"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: dense
block matrices are assembled with numpy.block from densified blocks, and
matrix products use explicit loops where the point is to check a kernel.
"""

import numpy as np
import pytest

import ilsolve as il
from ilsolve import problem
from ilsolve.problem import densify


def spmv_oracle(dense, x):
    """Triple-loop matrix-vector product."""
    n_rows, n_cols = dense.shape
    y = np.zeros(n_rows)
    for i in range(n_rows):
        for j in range(n_cols):
            y[i] += dense[i, j] * x[j]
    return y


def dense_block_system(prob):
    """The full (p+n+q)^2 matrix assembled independently of apply_block_A."""
    a1, a2 = densify(prob.a1), densify(prob.a2)
    p, n, q = prob.p, prob.n, prob.q
    return np.block(
        [
            [np.eye(p), a1, np.zeros((p, q))],
            [np.zeros((n, p)), a1.T @ a1, a2.T],
            [np.zeros((q, p)), a2, np.eye(q)],
        ]
    )


def dense_splitting_matrix(kind, prob):
    """The splitting matrix M for each variant, assembled from dense blocks."""
    a1, a2 = densify(prob.a1), densify(prob.a2)
    p, n, q = prob.p, prob.n, prob.q
    inner = a1.T @ a1
    if kind.startswith("ibs"):
        inner = inner + prob.alpha * np.eye(n)
    zero_pn = np.zeros((p, n))
    top_mid = a1 if kind in ("ibs3", "ibs4", "bs3", "but") else zero_pn
    mid_right = a2.T if kind in ("ibs2", "ibs4", "bs2", "but") else np.zeros((n, q))
    return np.block(
        [
            [np.eye(p), top_mid, np.zeros((p, q))],
            [np.zeros((n, p)), inner, mid_right],
            [np.zeros((q, p)), np.zeros((q, n)), np.eye(q)],
        ]
    )


def panel_rows(a1):
    """Rows per panel of the Gram product's sweep over A1 (problem._gram): as
    many rows as fit in _PANEL_BYTES, and at least one, for a dense A1; 0 for
    a CSR A1, which is not swept."""
    if isinstance(a1, il.SparseMatrixCsr):
        return 0
    return max(problem._PANEL_BYTES // (a1.shape[1] * a1.itemsize), 1)


def random_desk_problem(i, max_dim=25):
    """Deterministic desk-scale instance family with SPD reduced normal
    matrix (the construction inside generate_random_problem guarantees it)."""
    rng = np.random.default_rng(90_000 + i)
    n = int(rng.integers(2, max_dim + 1))
    p = int(rng.integers(n, max_dim + 1))
    q = int(rng.integers(1, max_dim + 1))
    return il.generate_random_problem(p, q, n, seed=17_000 + i)


def random_csr(rng, n_rows, n_cols, density=0.4):
    count = max(1, int(density * n_rows * n_cols))
    rows = rng.integers(0, n_rows, size=count)
    cols = rng.integers(0, n_cols, size=count)
    vals = rng.standard_normal(count)
    return il.SparseMatrixCsr.from_triplets(n_rows, n_cols, rows, cols, vals)


def random_spd(rng, n, cond=100.0):
    """Random SPD matrix with a controlled condition number."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return q @ np.diag(eigs) @ q.T


def scalar_problem(alpha=4.0):
    """The 1x1x1 worked example: A1 = (2), A2 = (1), b = (3; 0)."""
    a1 = il.SparseMatrixCsr.from_triplets(1, 1, [0], [0], [2.0])
    a2 = il.SparseMatrixCsr.from_triplets(1, 1, [0], [0], [1.0])
    return il.IlsProblem(a1, a2, [3.0], [0.0], alpha)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
