"""Matrix Market reading and writing.

Supports the coordinate and array layouts with real or integer fields and
general or symmetric storage.  Symmetric storage is expanded eagerly to a
full general matrix; pattern, complex, hermitian and skew-symmetric files
are rejected because nothing downstream can use them.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ParseError
from .sparse import SparseMatrixCsr

__all__ = ["parse_matrix_market", "read_matrix_market", "write_matrix_market", "write_vector_matrix_market"]

_BANNER = "%%matrixmarket"


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

    # Skip comments and blanks up to the size line.
    body = []
    for idx, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        body.append((idx, stripped))
    if not body:
        raise ParseError("missing size line")

    size_line_no, size_line = body[0]
    size_tokens = size_line.split()
    if fmt == "coordinate":
        if len(size_tokens) != 3:
            raise ParseError(f"coordinate size line needs 3 integers, got {size_line!r}", line_no=size_line_no)
        try:
            n_rows, n_cols, nnz = (int(t) for t in size_tokens)
        except ValueError:
            raise ParseError(f"bad size line {size_line!r}", line_no=size_line_no) from None
        entries = body[1:]
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
        if len(size_tokens) != 2:
            raise ParseError(f"array size line needs 2 integers, got {size_line!r}", line_no=size_line_no)
        try:
            n_rows, n_cols = (int(t) for t in size_tokens)
        except ValueError:
            raise ParseError(f"bad size line {size_line!r}", line_no=size_line_no) from None
        entries = body[1:]
        if symmetry == "general":
            expected = n_rows * n_cols
            # Column-major order.
            rows = np.tile(np.arange(n_rows, dtype=np.int64), n_cols)
            cols = np.repeat(np.arange(n_cols, dtype=np.int64), n_rows)
        else:
            if n_rows != n_cols:
                raise ParseError("symmetric array matrix must be square", line_no=size_line_no)
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

    # float() accepts 'nan' and 'inf'; checked once here, not per line.
    finite = np.isfinite(vals)
    if not finite.all():
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


def write_matrix_market(a: SparseMatrixCsr, path, comment: str = "") -> None:
    """Write in coordinate/real/general layout with 1-based indices."""
    rows, cols, vals = a.to_triplets()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{a.n_rows} {a.n_cols} {a.nnz}\n")
        for i, j, v in zip(rows, cols, vals):
            fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")


def write_vector_matrix_market(v: np.ndarray, path, comment: str = "") -> None:
    """Write a vector as an n x 1 array-format matrix."""
    v = np.asarray(v, dtype=np.float64)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{v.shape[0]} 1\n")
        for x in v:
            fh.write(f"{float(x)!r}\n")
