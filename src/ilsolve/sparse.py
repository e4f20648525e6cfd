"""Compressed-sparse-row matrices and the kernels built on them.

Everything here is plain numpy: values and indices are ordinary arrays and
the products are computed with bincount-style scatter/gather, which keeps
the hot paths vectorized without any compiled extension.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DegenerateMatrixError

__all__ = [
    "SparseMatrixCsr",
    "spmv",
    "spmv_transpose",
    "one_norm",
    "normalize_to_unit_one_norm",
    "identity_csr",
    "rectangular_identity_csr",
]


@dataclass(frozen=True)
class SparseMatrixCsr:
    """Real matrix in CSR layout.

    Invariants enforced at construction:

    * ``row_offsets`` is non-decreasing, starts at 0 and ends at nnz;
    * column indices are strictly increasing within each row and < n_cols;
    * no explicitly stored zeros (use :meth:`from_triplets`, which sums
      duplicates and drops exact cancellations).

    ``A @ x`` is :func:`spmv` and ``y @ A`` is :func:`spmv_transpose` (the
    vector A'y), as for a 2-D ndarray; numpy defers ``y @ A`` to this class
    because ``__array_ufunc__`` is None.
    """

    __array_ufunc__ = None

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_offsets", np.asarray(self.row_offsets, dtype=np.int64))
        object.__setattr__(self, "col_indices", np.asarray(self.col_indices, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        offs, cols, vals = self.row_offsets, self.col_indices, self.values
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if offs.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if offs[0] != 0 or offs[-1] != len(vals) or len(cols) != len(vals):
            raise ValueError("row_offsets endpoints inconsistent with stored entries")
        if np.any(np.diff(offs) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        nnz = len(vals)
        if nnz:
            if cols.min() < 0 or cols.max() >= self.n_cols:
                raise ValueError("column index out of range")
            d = np.diff(cols)
            cross = np.zeros(nnz - 1, dtype=bool)
            starts = offs[1:-1]
            starts = starts[(starts > 0) & (starts < nnz)]
            cross[starts - 1] = True
            if np.any(d[~cross] <= 0):
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
        after summation are dropped."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("triplet arrays must have matching lengths")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        order = np.lexsort((cols, rows))
        r, c, v = rows[order], cols[order], values[order]
        if r.size:
            first = np.ones(r.size, dtype=bool)
            first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            group = np.cumsum(first) - 1
            summed = np.bincount(group, weights=v)
            r, c = r[first], c[first]
            keep = summed != 0.0
            r, c, summed = r[keep], c[keep], summed[keep]
        else:
            summed = v
        counts = np.bincount(r, minlength=n_rows) if n_rows else np.zeros(0, np.int64)
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(n_rows, n_cols, offsets, c, summed)

    def to_triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_offsets))
        return rows, self.col_indices.copy(), self.values.copy()

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        rows, cols, vals = self.to_triplets()
        out[rows, cols] = vals
        return out

    def row_slice(self, start: int, stop: int) -> "SparseMatrixCsr":
        """Submatrix of rows [start, stop) with the same column count."""
        if not (0 <= start <= stop <= self.n_rows):
            raise ValueError("row slice out of range")
        lo, hi = self.row_offsets[start], self.row_offsets[stop]
        return SparseMatrixCsr(
            stop - start,
            self.n_cols,
            self.row_offsets[start : stop + 1] - lo,
            self.col_indices[lo:hi],
            self.values[lo:hi],
        )

    def __matmul__(self, x) -> np.ndarray:
        return spmv(self, x)

    def __rmatmul__(self, y) -> np.ndarray:
        return spmv_transpose(self, y)

    def _nnz_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_offsets))


def spmv(a: SparseMatrixCsr, x: np.ndarray) -> np.ndarray:
    """y = A x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.n_cols,):
        raise ValueError(f"operand has length {x.shape}, expected ({a.n_cols},)")
    prod = a.values * x[a.col_indices]
    return np.bincount(a._nnz_rows(), weights=prod, minlength=a.n_rows)


def spmv_transpose(a: SparseMatrixCsr, x: np.ndarray) -> np.ndarray:
    """y = A' x, computed without materializing the transpose."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.n_rows,):
        raise ValueError(f"operand has length {x.shape}, expected ({a.n_rows},)")
    prod = a.values * x[a._nnz_rows()]
    return np.bincount(a.col_indices, weights=prod, minlength=a.n_cols)


def one_norm(a: SparseMatrixCsr) -> float:
    """Maximum absolute column sum."""
    if a.nnz == 0 or a.n_cols == 0:
        return 0.0
    colsums = np.bincount(a.col_indices, weights=np.abs(a.values), minlength=a.n_cols)
    return float(colsums.max())


def normalize_to_unit_one_norm(a: SparseMatrixCsr) -> SparseMatrixCsr:
    """Scale so that the 1-norm of the result is 1."""
    norm = one_norm(a)
    if norm == 0.0:
        raise DegenerateMatrixError("cannot normalize an all-zero matrix")
    if norm == 1.0:
        return a
    return replace(a, values=a.values / norm)


def identity_csr(n: int, scale: float = 1.0) -> SparseMatrixCsr:
    return rectangular_identity_csr(n, n, scale)


def rectangular_identity_csr(n_rows: int, n_cols: int, scale: float = 1.0) -> SparseMatrixCsr:
    """scale * I_{n_rows x n_cols}: ones on the leading diagonal, zeros
    elsewhere.  A zero scale yields an empty pattern."""
    k = min(n_rows, n_cols) if scale != 0.0 else 0
    idx = np.arange(k, dtype=np.int64)
    vals = np.full(k, float(scale))
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    offsets[1 : k + 1] = idx + 1
    if k:
        offsets[k + 1 :] = k
    return SparseMatrixCsr(n_rows, n_cols, offsets, idx, vals)
