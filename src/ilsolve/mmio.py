"""Matrix Market reading and writing.

Supports the coordinate and array layouts with real or integer fields and
general or symmetric storage.  Symmetric storage is expanded eagerly to a
full general matrix; pattern, complex, hermitian and skew-symmetric files
are rejected because nothing downstream can use them.

A symmetric file must be square.  The lines of a coordinate body go to
one np.loadtxt call.  A body that call does not accept outright (a
comment, a malformed token, a wrong count, an index out of bounds, a
non-finite value) is parsed again line by line, so each error names its
line.
"""

from __future__ import annotations

import warnings

import numpy as np

from .exceptions import ParseError
from .sparse import SparseMatrixCsr

__all__ = ["parse_matrix_market", "read_matrix_market", "write_matrix_market", "write_vector_matrix_market"]

_BANNER = "%%matrixmarket"
_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _content(lines: list[str], start: int):
    """(line number, stripped text) of each line from index ``start`` on
    that is neither blank nor a comment."""
    for idx in range(start, len(lines)):
        stripped = lines[idx].strip()
        if stripped and not stripped.startswith("%"):
            yield idx + 1, stripped


def _coordinate_fast(lines: list[str], n_rows: int, n_cols: int, nnz: int):
    """0-based (rows, cols, vals) of a coordinate body, or None unless the
    body is comment-free and every entry is well formed, in bounds and
    finite.  The line list goes to np.loadtxt as is; it accepts a subset of
    what int() and float() accept."""
    if nnz == 0 or "%" in "".join(lines):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an all-blank body only warns
            table = np.loadtxt(lines, dtype=_TRIPLET, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    rows, cols, vals = table["i"] - 1, table["j"] - 1, np.ascontiguousarray(table["v"])
    if len(table) != nnz or not np.isfinite(vals).all():
        return None
    if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
        return None
    return rows, cols, vals


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

    body = _content(lines, 1)
    size_line_no, size_line = next(body, (None, None))
    if size_line is None:
        raise ParseError("missing size line")
    size_tokens = size_line.split()
    n_counts = 3 if fmt == "coordinate" else 2
    if len(size_tokens) != n_counts:
        raise ParseError(f"{fmt} size line needs {n_counts} integers, got {size_line!r}", line_no=size_line_no)
    try:
        counts = [int(t) for t in size_tokens]
    except ValueError:
        raise ParseError(f"bad size line {size_line!r}", line_no=size_line_no) from None
    if min(counts) < 0:
        raise ParseError(f"negative count in size line {size_line!r}", line_no=size_line_no)
    n_rows, n_cols = counts[:2]
    if symmetry == "symmetric" and n_rows != n_cols:
        raise ParseError(f"symmetric {fmt} matrix must be square", line_no=size_line_no)
    fast = _coordinate_fast(lines[size_line_no:], n_rows, n_cols, counts[2]) if fmt == "coordinate" else None
    entries = [] if fast is not None else list(body)
    if fast is not None:
        rows, cols, vals = fast
    elif fmt == "coordinate":
        nnz = counts[2]
        if len(entries) != nnz:
            raise ParseError(f"declared {nnz} entries but found {len(entries)}", line_no=size_line_no)
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        for k, (line_no, entry) in enumerate(entries):
            tokens = entry.split()
            if len(tokens) != 3:
                raise ParseError(f"coordinate entry needs 'i j value', got {entry!r}", line_no=line_no)
            try:
                i, j = int(tokens[0]), int(tokens[1])
                v = float(tokens[2])
            except ValueError:
                raise ParseError(f"bad entry {entry!r}", line_no=line_no) from None
            if not (1 <= i <= n_rows and 1 <= j <= n_cols):
                raise ParseError(
                    f"index ({i}, {j}) outside declared {n_rows} x {n_cols} bounds", line_no=line_no
                )
            rows[k], cols[k], vals[k] = i - 1, j - 1, v
    else:
        if symmetry == "general":
            expected = n_rows * n_cols
            # Column-major order.
            rows = np.tile(np.arange(n_rows, dtype=np.int64), n_cols)
            cols = np.repeat(np.arange(n_cols, dtype=np.int64), n_rows)
        else:
            expected = n_rows * (n_rows + 1) // 2
            # Lower triangle in column-major order: the upper triangle's
            # row-major (i, j) pairs, swapped.
            cols, rows = np.triu_indices(n_rows)
        if len(entries) != expected:
            raise ParseError(f"declared array of {expected} values but found {len(entries)}", line_no=size_line_no)
        vals = np.empty(expected, dtype=np.float64)
        for k, (line_no, entry) in enumerate(entries):
            tokens = entry.split()
            if len(tokens) != 1:
                raise ParseError(f"array entry must be a single value, got {entry!r}", line_no=line_no)
            try:
                vals[k] = float(tokens[0])
            except ValueError:
                raise ParseError(f"bad value {entry!r}", line_no=line_no) from None

    # float() accepts 'nan' and 'inf'; a per-line parse checks them here.
    if fast is None and not (finite := np.isfinite(vals)).all():
        line_no, entry = entries[int(np.argmin(finite))]
        raise ParseError(f"non-finite value in {entry!r}", line_no=line_no)

    if symmetry == "symmetric":
        off = rows != cols
        mirrored_rows = cols[off]
        mirrored_cols = rows[off]
        rows = np.concatenate([rows, mirrored_rows])
        cols = np.concatenate([cols, mirrored_cols])
        vals = np.concatenate([vals, vals[off]])
    return SparseMatrixCsr.from_triplets(n_rows, n_cols, rows, cols, vals)


def read_matrix_market(path) -> SparseMatrixCsr:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_matrix_market(fh.read())


def write_matrix_market(a: SparseMatrixCsr, path) -> None:
    """Write in coordinate/real/general layout with 1-based indices."""
    rows, cols, vals = a.to_triplets()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{a.n_rows} {a.n_cols} {a.nnz}\n")
        for i, j, v in zip(rows, cols, vals):
            fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")


def write_vector_matrix_market(v: np.ndarray, path) -> None:
    """Write a vector as an n x 1 array-format matrix."""
    v = np.asarray(v, dtype=np.float64)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{v.shape[0]} 1\n")
        for x in v:
            fh.write(f"{float(x)!r}\n")
