"""Matrix Market reading and writing.

Supports the coordinate and array layouts with real or integer fields and
general or symmetric storage.  Symmetric storage is expanded eagerly to a
full general matrix; pattern, complex, hermitian and skew-symmetric files
are rejected because nothing downstream can use them.

A symmetric file must be square.  The size line and every body, either
layout, are each read with one np.loadtxt call, so a token is accepted
exactly when np.loadtxt accepts it; counts, indices and an integer field
are read as int64, so a fraction is refused.  Indices and values are then
checked as whole columns.  Only when a check fails are the body's lines
scanned, to name the first bad line.
"""

from __future__ import annotations

import warnings
from itertools import islice

import numpy as np

from .exceptions import ParseError
from .sparse import SparseMatrixCsr

__all__ = ["parse_matrix_market", "read_matrix_market", "write_matrix_market"]

_BANNER = "%%matrixmarket"
# Per layout, the messages for a body with the wrong entry count, a line
# with the wrong token count and a line np.loadtxt does not convert.
_BODY_ERRORS = {
    "coordinate": ("declared {} entries but found {}", "coordinate entry needs 'i j value', got {!r}",
                   "bad entry {!r}"),
    "array": ("declared array of {} values but found {}", "array entry must be a single value, got {!r}",
              "bad value {!r}"),
}


def _content(lines: list[str], start: int):
    """(line number, stripped text) of each line from index ``start`` on
    that is neither blank nor a comment."""
    for idx in range(start, len(lines)):
        stripped = lines[idx].strip()
        if stripped and not stripped.startswith("%"):
            yield idx + 1, stripped


def _loadtxt(lines: list[str], dtype) -> np.ndarray | None:
    """np.loadtxt of ``lines`` as ``dtype``, or None if it refuses them.
    Every warning but the all-blank one is an error: numpy before 2.0
    only warns when it truncates a float token read into an int column."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None


def _body_error(lines: list[str], start: int, fmt: str, dtype: np.dtype, expected: int) -> ParseError:
    """The error for a body, from line index ``start`` on, that np.loadtxt
    refuses or that does not hold ``expected`` entries: its first content
    line with the wrong token count or a token np.loadtxt does not convert,
    else the count mismatch."""
    wrong_total, wrong_count, bad_token = _BODY_ERRORS[fmt]
    count = 0
    for count, (line_no, entry) in enumerate(_content(lines, start), 1):
        if len(entry.split()) != len(dtype):
            return ParseError(wrong_count.format(entry), line_no=line_no)
        if _loadtxt([entry], dtype) is None:
            return ParseError(bad_token.format(entry), line_no=line_no)
    return ParseError(wrong_total.format(expected, count), line_no=start)


def parse_matrix_market(text: str) -> SparseMatrixCsr:
    """Parse Matrix Market text into a CSR matrix (1-based indices in the
    file, 0-based in the result)."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input")
    header = lines[0].strip().split()
    if not header or header[0].lower() != _BANNER:
        raise ParseError(f"missing banner, got {lines[0].strip()!r}", line_no=1)
    if len(header) != 5:
        raise ParseError("banner must have 5 tokens: %%MatrixMarket object format field symmetry", line_no=1)
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:])
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}", line_no=1)
    if fmt not in ("coordinate", "array"):
        raise ParseError(f"unsupported format {fmt!r}", line_no=1)
    if field not in ("real", "integer"):
        raise ParseError(f"unsupported field {field!r}", line_no=1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", line_no=1)

    size_line_no, size_line = next(_content(lines, 1), (None, None))
    if size_line is None:
        raise ParseError("missing size line")
    size_tokens = size_line.split()
    n_counts = 3 if fmt == "coordinate" else 2
    if len(size_tokens) != n_counts:
        raise ParseError(f"{fmt} size line needs {n_counts} integers, got {size_line!r}", line_no=size_line_no)
    if (counts := _loadtxt([size_line], np.int64)) is None:
        raise ParseError(f"bad size line {size_line!r}", line_no=size_line_no)
    counts = counts.tolist()
    if min(counts) < 0:
        raise ParseError(f"negative count in size line {size_line!r}", line_no=size_line_no)
    n_rows, n_cols = counts[:2]
    if symmetry == "symmetric" and n_rows != n_cols:
        raise ParseError(f"symmetric {fmt} matrix must be square", line_no=size_line_no)

    value = np.int64 if field == "integer" else np.float64
    if fmt == "coordinate":
        dtype = np.dtype([("i", np.int64), ("j", np.int64), ("v", value)])
        expected = counts[2]
    else:
        dtype = np.dtype([("v", value)])
        expected = n_rows * n_cols if symmetry == "general" else n_rows * (n_rows + 1) // 2
    body = lines[size_line_no:]
    if "%" in "".join(body):
        body = [line for line in body if not line.lstrip().startswith("%")]
    table = _loadtxt(body, dtype)
    if table is None or len(table) != expected:
        raise _body_error(lines, size_line_no, fmt, dtype, expected)

    def entry(k: int) -> tuple[int, str]:  # the body's k-th entry, to name a line that fails a check
        return next(islice(_content(lines, size_line_no), k, None))

    if fmt == "coordinate":
        rows, cols = table["i"] - 1, table["j"] - 1
        outside = (rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)
        if outside.any():
            k = int(np.argmax(outside))
            raise ParseError(
                f"index ({rows[k] + 1}, {cols[k] + 1}) outside declared {n_rows} x {n_cols} bounds",
                line_no=entry(k)[0],
            )
    elif symmetry == "general":
        # Column-major order.
        rows = np.tile(np.arange(n_rows, dtype=np.int64), n_cols)
        cols = np.repeat(np.arange(n_cols, dtype=np.int64), n_rows)
    else:
        # Lower triangle in column-major order: the upper triangle's
        # row-major (i, j) pairs, swapped.
        cols, rows = np.triu_indices(n_rows)
    vals = table["v"].astype(np.float64)
    # np.loadtxt reads 'nan' and 'inf' as floats.
    if not (finite := np.isfinite(vals)).all():
        line_no, bad = entry(int(np.argmin(finite)))
        raise ParseError(f"non-finite value in {bad!r}", line_no=line_no)

    if symmetry == "symmetric":
        off = rows != cols
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        vals = np.concatenate([vals, vals[off]])
    return SparseMatrixCsr.from_triplets(n_rows, n_cols, rows, cols, vals)


def read_matrix_market(path) -> SparseMatrixCsr:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_matrix_market(fh.read())


def write_matrix_market(a: SparseMatrixCsr | np.ndarray, path) -> None:
    """Write a CSR matrix in coordinate/real/general layout with 1-based
    indices, and an ndarray in array/real/general layout, column-major,
    with a 1-D array as one column."""
    with open(path, "w", encoding="ascii") as fh:
        if isinstance(a, SparseMatrixCsr):
            rows, cols, vals = a.to_triplets()
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{a.n_rows} {a.n_cols} {a.nnz}\n")
            for i, j, v in zip(rows, cols, vals):
                fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")
        else:
            a = np.asarray(a, dtype=np.float64)
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{a.shape[0]} {a.shape[1] if a.ndim == 2 else 1}\n")
            for x in a.ravel(order="F"):
                fh.write(f"{float(x)!r}\n")
