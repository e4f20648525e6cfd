import dataclasses

import numpy as np
import pytest

from ilsolve import (
    CgConfig,
    ConfigurationError,
    IlsProblem,
    assemble_dense_preconditioned,
    make_preconditioner,
)
from ilsolve.dense import cholesky_solve, dense_cholesky
from ilsolve.problem import dense_blocks
from ilsolve.sparse import SparseMatrixCsr, rectangular_identity_csr

from conftest import (
    dense_block_system,
    dense_splitting_matrix,
    random_desk_problem,
    scalar_problem,
)

ALL_IBS = ("ibs1", "ibs2", "ibs3", "ibs4")
IBS_TO_BASELINE = {"ibs1": "bs1", "ibs2": "bs2", "ibs3": "bs3", "ibs4": "but"}


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown preconditioner"):
        make_preconditioner("ibs9", scalar_problem())


def test_none_kind_is_identity(rng):
    prob = random_desk_problem(0)
    pre = make_preconditioner("none", prob)
    r = rng.standard_normal(prob.size)
    assert np.array_equal(pre.apply(r), r)


def test_ibs1_applies_shifted_inverse_to_middle_block(rng):
    prob = random_desk_problem(1)
    pre = make_preconditioner("ibs1", prob, inner="cholesky")
    r = rng.standard_normal(prob.size)
    z = pre.apply(r)
    r1, r2, r3 = prob.layout.split(r)
    a1d, _ = dense_blocks(prob)
    shifted = a1d.T @ a1d + prob.alpha * np.eye(prob.n)
    want_mid = cholesky_solve(dense_cholesky(shifted), r2)
    assert np.array_equal(z[prob.layout.s1], r1)
    assert np.array_equal(z[prob.layout.s2], r3)
    np.testing.assert_allclose(z[prob.layout.sx], want_mid, rtol=1e-12, atol=1e-13)


def test_ibs4_equals_ibs3_when_a2_vanishes(rng):
    base = random_desk_problem(2)
    a2 = rectangular_identity_csr(base.q, base.n, 0.0)  # empty pattern
    prob = IlsProblem(base.a1, a2, base.b1, base.b2, base.p, base.q, base.n, base.alpha)
    p3 = make_preconditioner("ibs3", prob, inner="cholesky")
    p4 = make_preconditioner("ibs4", prob, inner="cholesky")
    r = rng.standard_normal(prob.size)
    assert np.array_equal(p3.apply(r), p4.apply(r))


def test_scalar_worked_example():
    prob = scalar_problem(alpha=4.0)  # inner matrix 4 + 4 = 8
    pre = make_preconditioner("ibs2", prob, inner="cholesky")
    z = pre.apply(np.array([1.0, 1.0, 1.0]))
    assert np.allclose(z, [1.0, 0.0, 1.0], rtol=0, atol=1e-15)
    # Independent dense check: M z = r.
    m = dense_splitting_matrix("ibs2", prob)
    assert np.allclose(m @ z, [1.0, 1.0, 1.0], rtol=0, atol=1e-14)


def test_exact_inner_consistency_fifty_instances(rng):
    for i in range(50):
        prob = random_desk_problem(i)
        kind = ALL_IBS[i % 4]
        pre = make_preconditioner(kind, prob, inner="cholesky")
        m = dense_splitting_matrix(kind, prob)
        r = rng.standard_normal(prob.size)
        z = pre.apply(r)
        assert np.linalg.norm(m @ z - r) / np.linalg.norm(r) <= 1e-10


def test_baseline_splitting_matrices_consistent(rng):
    for i, kind in enumerate(("bs1", "bs2", "bs3", "but")):
        prob = random_desk_problem(40 + i)
        pre = make_preconditioner(kind, prob, inner="cholesky")
        m = dense_splitting_matrix(kind, prob)
        r = rng.standard_normal(prob.size)
        z = pre.apply(r)
        assert np.linalg.norm(m @ z - r) / np.linalg.norm(r) <= 1e-10


def test_zero_shift_reduces_to_baseline(rng):
    for i in range(10):
        base = random_desk_problem(60 + i)
        prob = dataclasses.replace(base, alpha=0.0)
        r = rng.standard_normal(prob.size)
        for ibs_kind, baseline in IBS_TO_BASELINE.items():
            z_ibs = make_preconditioner(ibs_kind, prob, inner="cholesky").apply(r)
            z_base = make_preconditioner(baseline, prob, inner="cholesky").apply(r)
            assert np.linalg.norm(z_ibs - z_base) <= 1e-12 * max(np.linalg.norm(z_base), 1.0)


def test_linearity_of_application(rng):
    prob = random_desk_problem(5)
    pre = make_preconditioner("ibs4", prob, inner="cholesky")
    u = rng.standard_normal(prob.size)
    v = rng.standard_normal(prob.size)
    lhs = pre.apply(2.5 * u - 0.5 * v)
    rhs = 2.5 * pre.apply(u) - 0.5 * pre.apply(v)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)


class TestDenseAssembly:
    def test_none_kind_gives_block_system(self):
        prob = random_desk_problem(6)
        got = assemble_dense_preconditioned("none", prob)
        want = dense_block_system(prob)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_ibs2_structure(self):
        prob = random_desk_problem(7)
        p, n, q = prob.p, prob.n, prob.q
        t = assemble_dense_preconditioned("ibs2", prob)
        a1d, a2d = dense_blocks(prob)
        # Top-left identity, (1,3) and (2,3) blocks zero, middle block is
        # the shift-solved reduced normal matrix.
        assert np.allclose(t[:p, :p], np.eye(p), rtol=0, atol=1e-12)
        assert np.abs(t[:p, p + n :]).max() <= 1e-12
        assert np.abs(t[p : p + n, p + n :]).max() <= 1e-12
        shifted = a1d.T @ a1d + prob.alpha * np.eye(n)
        normal = a1d.T @ a1d - a2d.T @ a2d
        want_mid = np.linalg.solve(shifted, normal)
        np.testing.assert_allclose(t[p : p + n, p : p + n], want_mid, rtol=1e-9, atol=1e-11)

    def test_ibs4_structural_zeros(self):
        prob = random_desk_problem(8)
        p, n = prob.p, prob.n
        t = assemble_dense_preconditioned("ibs4", prob)
        assert np.abs(t[:p, p + n :]).max() <= 1e-12
        assert np.abs(t[p : p + n, p + n :]).max() <= 1e-12

    def test_scalar_ibs1_middle_entry(self):
        prob = scalar_problem(alpha=4.0)
        t = assemble_dense_preconditioned("ibs1", prob)
        assert abs(t[1, 1] - 0.5) <= 1e-15  # 4 / (4 + 4)

    def test_size_cap(self):
        prob = random_desk_problem(9)
        with pytest.raises(ConfigurationError):
            assemble_dense_preconditioned("ibs1", prob, cap=prob.size - 1)


class TestInnerSolvers:
    def test_cg_inner_matches_exact_at_tight_tolerance(self, rng):
        prob = random_desk_problem(10)
        tight = make_preconditioner(
            "ibs2", prob, inner="cg", inner_config=CgConfig(1e-13, 10_000)
        )
        exact = make_preconditioner("ibs2", prob, inner="cholesky")
        r = rng.standard_normal(prob.size)
        za, zb = tight.apply(r), exact.apply(r)
        assert np.linalg.norm(za - zb) / np.linalg.norm(zb) <= 1e-9

    def test_inner_failure_is_recorded_not_raised(self, rng):
        prob = random_desk_problem(11)
        pre = make_preconditioner(
            "ibs2", prob, inner="cg", inner_config=CgConfig(1e-13, 1)
        )
        z = pre.apply(rng.standard_normal(prob.size))
        assert np.all(np.isfinite(z))
        assert pre.inner_failures == 1
        pre.reset_stats()
        assert pre.inner_failures == 0

    def test_dense_cap_enforced(self):
        prob = random_desk_problem(12)
        with pytest.raises(ConfigurationError):
            make_preconditioner("ibs1", prob, inner="cholesky", dense_cap=prob.n - 1)

    def test_unknown_inner_mode(self):
        with pytest.raises(ValueError, match="inner solver"):
            make_preconditioner("ibs1", scalar_problem(), inner="lu")


def test_scalar_problem_apply():
    prob = scalar_problem()
    pre = make_preconditioner("ibs2", prob, inner="cholesky")
    out = pre.apply(np.ones(3))
    assert isinstance(out, np.ndarray)
    assert np.allclose(out, [1.0, 0.0, 1.0], rtol=0, atol=1e-15)
