"""Compressed-sparse-row matrices and the kernels built on them.

Everything here is plain numpy.  Both products are one bincount-style
scatter/gather kernel, ``_product``: spmv and spmv_transpose call it after
checking the operand, and inner CG's Gram pair calls it unchecked on A1's
arrays; a (rows, k) block goes through it column by column, so each column
is the vector's product bit for bit and scratch stays O(nnz).  The row index
of every stored entry, which both products need, is computed once per
matrix; index arrays must hold whole numbers.

Each structure is scanned once: the public constructor scans a caller's
arrays and ``from_triplets`` its triplets.  What the package builds from
checked parts (``from_triplets``' result, row slices, normalization,
rectangular identities, the fold's twin in ilsolve.preconditioners) goes
through ``_built_csr`` with no second scan, and its arrays are read-only.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateMatrixError

__all__ = [
    "SparseMatrixCsr",
    "spmv",
    "spmv_transpose",
    "one_norm",
    "normalize_to_unit_one_norm",
    "rectangular_identity_csr",
]


def _count(name: str, value, least: int = 1) -> None:
    """A ValueError naming ``name`` unless ``value`` is an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


def _real(x, name: str) -> np.ndarray:
    """``x`` as float64; complex input is a TypeError naming ``name``."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise TypeError(f"{name} must be real, got dtype {x.dtype}")
    return x.astype(np.float64, copy=False)


def _sealed(x: np.ndarray) -> np.ndarray:
    """``x``, which the package made and no one else holds, marked read-only."""
    x.flags.writeable = False
    return x


def _read_only(x):
    """``x`` if it and every array it views are read-only, else a read-only
    copy in the same memory order; a CSR matrix with a writable array is
    rebuilt on read-only copies of its arrays, through the constructor's
    scan, since the caller may have written to them."""
    if isinstance(x, SparseMatrixCsr):
        arrays = (x.row_offsets, x.col_indices, x.values)
        kept = tuple(map(_read_only, arrays))
        return x if all(k is a for k, a in zip(kept, arrays)) else SparseMatrixCsr(*x.shape, *kept)
    base = x
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return _sealed(x.copy(order="K"))
        base = base.base
    return x


def _check_block(x: np.ndarray, rows: int, name: str, word: str = "shape") -> None:
    """A ValueError naming the shape of ``x`` unless it is (rows, k), k >= 1."""
    if x.ndim != 2 or x.shape[0] != rows or not x.shape[1]:
        want = f"({rows},)" if x.ndim < 2 else f"({rows}, k) with k >= 1"
        raise ValueError(f"{name} has {word} {x.shape}, expected {want}")


def _indices(values, name: str) -> np.ndarray:
    """``values`` as int64; a ValueError naming ``name`` if one is not whole."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":
        with np.errstate(invalid="ignore"):
            arr, given = arr.astype(np.int64), arr
        if not np.array_equal(arr, given):
            raise ValueError(f"{name} must hold whole numbers")
    return arr.astype(np.int64, copy=False)


def _built_csr(n_rows: int, n_cols: int, offsets, cols, values, rows=None) -> "SparseMatrixCsr":
    """A CSR matrix, with no scan, on int64 offsets and column indices and
    float64 values that the package has just built and checked, sealed;
    ``rows`` is the row index if the caller has it, else computed here."""
    if rows is None:
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offsets))
    offsets, cols, values, rows = map(_sealed, (offsets, cols, values, rows))
    a = object.__new__(SparseMatrixCsr)
    vars(a).update(n_rows=n_rows, n_cols=n_cols, row_offsets=offsets, col_indices=cols, values=values, _rows=rows)
    return a


@dataclass(frozen=True)
class SparseMatrixCsr:
    """Real matrix in CSR layout.

    The constructor checks that:

    * ``n_rows`` and ``n_cols`` are nonnegative;
    * ``row_offsets`` has n_rows + 1 entries, is non-decreasing, starts at
      0 and ends at nnz, the length of both ``col_indices`` and ``values``;
    * column indices lie in [0, n_cols), strictly increasing within a row.

    It does not look at the values, so it keeps an explicitly stored zero;
    :meth:`from_triplets` is what drops exact zeros (after summing
    duplicates, so exact cancellations go too).

    ``A @ x`` is :func:`spmv` and ``y @ A`` is :func:`spmv_transpose` (the
    vector A'y), as for a 2-D ndarray, also for an (n_cols, k) block x and a
    (k, n_rows) block y; numpy defers ``y @ A`` to this class because
    ``__array_ufunc__`` is None.
    """

    __array_ufunc__ = None

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "row_offsets", _indices(self.row_offsets, "row_offsets"))
        object.__setattr__(self, "col_indices", _indices(self.col_indices, "col_indices"))
        object.__setattr__(self, "values", _real(self.values, "values"))
        offs, cols, vals = self.row_offsets, self.col_indices, self.values
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if offs.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if offs[0] != 0 or offs[-1] != len(vals) or len(cols) != len(vals):
            raise ValueError("row_offsets endpoints inconsistent with stored entries")
        counts = np.diff(offs)
        if np.any(counts < 0):
            raise ValueError("row_offsets must be non-decreasing")
        rows = _sealed(np.repeat(np.arange(self.n_rows, dtype=np.int64), counts))
        object.__setattr__(self, "_rows", rows)
        if len(vals) and (cols.min() < 0 or cols.max() >= self.n_cols):
            raise ValueError("column index out of range")
        if np.any(np.diff(cols)[rows[1:] == rows[:-1]] <= 0):
            raise ValueError("column indices must be strictly increasing within each row")

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @classmethod
    def from_triplets(cls, n_rows, n_cols, rows, cols, values) -> "SparseMatrixCsr":
        """Build from (i, j, v) triplets; duplicates are summed, exact zeros
        after summation are dropped.  Triplets already in strictly increasing
        (row, col) order, as the Matrix Market writer puts them, are only
        stripped of their zeros."""
        _count("n_rows", n_rows, 0)
        _count("n_cols", n_cols, 0)
        rows, cols = _indices(rows, "rows"), _indices(cols, "cols")
        values = _real(values, "values")
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("triplet arrays must have matching lengths")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column index out of range")
        step = np.diff(rows)
        if (step >= 0).all() and (np.diff(cols)[step == 0] > 0).all():
            r, c, summed = rows, cols, values  # no duplicates; the masks below copy
        else:
            order = np.lexsort((cols, rows))
            r, c, v = rows[order], cols[order], values[order]
            first = np.ones(r.size, dtype=bool)
            first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            summed = np.bincount(np.cumsum(first) - 1, weights=v)
            r, c = r[first], c[first]
        keep = summed != 0.0
        r, c, summed = r[keep], c[keep], summed[keep]
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=n_rows), out=offsets[1:])
        return _built_csr(n_rows, n_cols, offsets, c, summed, r)

    def to_triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._rows.copy(), self.col_indices.copy(), self.values.copy()

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self._rows, self.col_indices] = self.values
        return out

    def row_slice(self, start: int, stop: int) -> "SparseMatrixCsr":
        """Submatrix of rows [start, stop) with the same column count."""
        _count("start", start, 0)
        _count("stop", stop, 0)
        start, stop = int(start), int(stop)
        if not start <= stop <= self.n_rows:
            raise ValueError("row slice out of range")
        lo, hi = self.row_offsets[start], self.row_offsets[stop]
        return _built_csr(
            stop - start,
            self.n_cols,
            self.row_offsets[start : stop + 1] - lo,
            self.col_indices[lo:hi],
            self.values[lo:hi],
            self._rows[lo:hi] - start,
        )

    def __matmul__(self, x) -> np.ndarray:
        return spmv(self, x)

    def __rmatmul__(self, y) -> np.ndarray:
        y = np.asarray(y)
        if y.ndim != 2:
            return spmv_transpose(self, y)
        if y.shape[1] != self.n_rows or not y.shape[0]:
            raise ValueError(f"operand has shape {y.shape}, expected (k, {self.n_rows}) with k >= 1")
        return spmv_transpose(self, y.T).T


def _product(values, gather, scatter, x: np.ndarray, size: int) -> np.ndarray:
    """out[scatter[k]] += values[k] * x[gather[k]], unchecked: A x or A'x."""
    return np.bincount(scatter, weights=values * x[gather], minlength=size)


def spmv(a: SparseMatrixCsr, x: np.ndarray) -> np.ndarray:
    """y = A x; also for an (n_cols, k) block x."""
    x = _real(x, "operand")
    if x.shape == (a.n_cols,):
        return _product(a.values, a.col_indices, a._rows, x, a.n_rows)
    _check_block(x, a.n_cols, "operand", "length")
    return np.stack([_product(a.values, a.col_indices, a._rows, c, a.n_rows) for c in x.T], axis=1)


def spmv_transpose(a: SparseMatrixCsr, x: np.ndarray) -> np.ndarray:
    """y = A' x, without materializing the transpose; also for an (n_rows, k) block x."""
    x = _real(x, "operand")
    if x.shape == (a.n_rows,):
        return _product(a.values, a._rows, a.col_indices, x, a.n_cols)
    _check_block(x, a.n_rows, "operand", "length")
    return np.stack([_product(a.values, a._rows, a.col_indices, c, a.n_cols) for c in x.T], axis=1)


def one_norm(a: SparseMatrixCsr | np.ndarray) -> float:
    """Maximum absolute column sum of a CSR matrix or a 2-D ndarray; 0.0 when it has no entries."""
    from .operators import as_matrix  # checks a dense operand; operators imports this module
    if isinstance(a, SparseMatrixCsr):
        colsums = np.bincount(a.col_indices, weights=np.abs(a.values), minlength=a.n_cols)
    else:
        colsums = np.abs(as_matrix(a)).sum(axis=0)  # as np.linalg.norm(a, 1) sums them
    return float(colsums.max()) if colsums.size else 0.0


def normalize_to_unit_one_norm(a: SparseMatrixCsr) -> SparseMatrixCsr:
    """Scale so that the 1-norm of the result is 1."""
    norm = one_norm(a)
    if norm == 0.0:
        raise DegenerateMatrixError("cannot normalize an all-zero matrix")
    if norm == 1.0:
        return a
    structure = map(_read_only, (a.row_offsets, a.col_indices))
    return _built_csr(a.n_rows, a.n_cols, *structure, a.values / norm, a._rows)


def rectangular_identity_csr(n_rows: int, n_cols: int, scale: float = 1.0) -> SparseMatrixCsr:
    """scale * I_{n_rows x n_cols}: ones on the leading diagonal, zeros
    elsewhere.  A zero scale yields an empty pattern."""
    _count("n_rows", n_rows, 0)
    _count("n_cols", n_cols, 0)
    k = min(n_rows, n_cols) if scale != 0.0 else 0
    idx = np.arange(k, dtype=np.int64)  # both the column and the row index
    offsets = np.minimum(np.arange(n_rows + 1, dtype=np.int64), k)
    return _built_csr(n_rows, n_cols, offsets, idx, np.full(k, float(scale)), idx)
