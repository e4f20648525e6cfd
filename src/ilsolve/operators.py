"""A minimal matrix-free linear-operator abstraction.

The Krylov solvers only ever need "apply to a vector", so they take a
LinearOperator: the block system, the shifted Gram matrix of the inner
solves and the reduced normal matrix are composed expressions built on the
problem's blocks.  The blocks themselves are plain matrices (CSR or 2-D
ndarray) and are used with ``@`` directly.
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseMatrixCsr

__all__ = ["LinearOperator", "as_matrix", "aslinearoperator", "identity_operator"]


class LinearOperator:
    """Wraps an apply callable (and optionally its transpose) with a shape."""

    __slots__ = ("n_rows", "n_cols", "_apply", "_apply_t")

    def __init__(self, n_rows, n_cols, apply, apply_transpose=None):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self._apply = apply
        self._apply_t = apply_transpose

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_cols,):
            raise ValueError(f"operand has shape {v.shape}, expected ({self.n_cols},)")
        return self._apply(v)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        if self._apply_t is None:
            raise NotImplementedError("operator has no transpose apply")
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_rows,):
            raise ValueError(f"operand has shape {v.shape}, expected ({self.n_rows},)")
        return self._apply_t(v)


def as_matrix(a, name: str = "matrix"):
    """A CSR matrix as given, anything else as a 2-D float64 ndarray; a
    TypeError naming ``name`` for input that is neither."""
    if isinstance(a, SparseMatrixCsr):
        return a
    try:
        arr = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 2:
        raise TypeError(f"{name} must be a CSR matrix or a 2-D array, got {type(a).__name__}")
    return arr


def aslinearoperator(a) -> LinearOperator:
    """Adapt a CSR matrix, 2-D ndarray, or LinearOperator to the interface."""
    if isinstance(a, LinearOperator):
        return a
    a = as_matrix(a)
    return LinearOperator(a.shape[0], a.shape[1], lambda v: a @ v, lambda v: v @ a)


def identity_operator(n: int) -> LinearOperator:
    return LinearOperator(n, n, lambda v: v.copy(), lambda v: v.copy())
