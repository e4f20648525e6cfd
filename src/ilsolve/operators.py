"""A minimal matrix-free linear-operator abstraction.

FGMRES and cg_solve only ever need "apply to a vector", so they take a
LinearOperator, such as the block system built on the problem's blocks
or ``aslinearoperator`` of one matrix.  ``apply`` checks the operand's
shape and dtype, so the callable it wraps can trust them.  Inner CG takes
the unchecked Gram pair of ilsolve.problem instead.  The blocks, CSR or 2-D
ndarray as ``as_matrix`` checks them, are used with ``@`` directly.
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseMatrixCsr, _real

__all__ = ["LinearOperator", "as_matrix", "aslinearoperator"]


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
        v = _real(v, "operand")
        if v.shape != (self.n_cols,):
            raise ValueError(f"operand has shape {v.shape}, expected ({self.n_cols},)")
        return self._apply(v)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        if self._apply_t is None:
            raise NotImplementedError("operator has no transpose apply")
        v = _real(v, "operand")
        if v.shape != (self.n_rows,):
            raise ValueError(f"operand has shape {v.shape}, expected ({self.n_rows},)")
        return self._apply_t(v)


def as_matrix(a, name: str = "matrix"):
    """A CSR matrix as given, anything else as a 2-D float64 ndarray; a
    TypeError naming ``name`` for input that is neither, or is complex."""
    if isinstance(a, SparseMatrixCsr):
        return a
    try:
        arr = np.asarray(a)
    except ValueError:
        arr = None
    if arr is None or arr.ndim != 2 or arr.dtype.kind not in "biufc":
        raise TypeError(f"{name} must be a CSR matrix or a 2-D array, got {type(a).__name__}")
    return _real(arr, name)


def aslinearoperator(a) -> LinearOperator:
    """Adapt a CSR matrix, 2-D ndarray, or LinearOperator to the interface."""
    if isinstance(a, LinearOperator):
        return a
    a = as_matrix(a)
    return LinearOperator(a.shape[0], a.shape[1], lambda v: a @ v, lambda v: v @ a)
