import numpy as np
import pytest
import scipy.linalg

import ilsolve.dense
from ilsolve import CgConfig, NotSpdError, cg_solve, cholesky_solve, dense_cholesky
from ilsolve.dense import _BLOCK, is_spd, solve_lower, solve_lower_transpose
from ilsolve.operators import aslinearoperator

from conftest import random_spd


class TestDenseCholesky:
    def test_identity(self):
        f = dense_cholesky(np.eye(3))
        assert np.array_equal(f, np.eye(3))

    def test_known_two_by_two(self):
        f = dense_cholesky(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert np.allclose(f, np.array([[2.0, 0.0], [1.0, 1.0]]), rtol=0, atol=1e-15)
        assert np.allclose(f @ f.T, [[4.0, 2.0], [2.0, 2.0]], rtol=0, atol=1e-15)

    def test_indefinite_fails_at_step(self):
        # Eigenvalues 3 and -1: elimination breaks at the second pivot.
        with pytest.raises(NotSpdError) as exc:
            dense_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.step == 1

    def test_indefinite_fails_mid_matrix(self):
        with pytest.raises(NotSpdError) as exc:
            dense_cholesky(np.diag([4.0, 1.0, -1.0, 2.0]))
        assert exc.value.step == 2
        assert exc.value.pivot == -1.0
        assert str(exc.value).startswith("non-positive pivot")

    def test_schur_complement_pivot_reported(self):
        # Leading 2x2 block B is SPD; the third pivot is 0.5 - [1, 1] inv(B) [1, 1]'.
        m = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.5]])
        with pytest.raises(NotSpdError) as exc:
            dense_cholesky(m)
        assert exc.value.step == 2
        assert exc.value.pivot == pytest.approx(-0.5, abs=1e-15)

    def test_rank_deficient_gram_fails_at_rank(self, rng):
        x = rng.standard_normal((6, 3))
        gram = x @ x.T  # rank 3
        with pytest.raises(NotSpdError) as exc:
            dense_cholesky(gram)
        assert exc.value.step == 3
        assert abs(exc.value.pivot) <= 6 * np.finfo(float).eps * np.abs(np.diag(gram)).max()

    def test_positive_pivot_below_floor_fails(self):
        # LAPACK factors this matrix; the n*eps*max|diag| floor rejects it.
        assert np.linalg.cholesky(np.diag([1.0, 1e-17])).shape == (2, 2)
        with pytest.raises(NotSpdError) as exc:
            dense_cholesky(np.diag([1.0, 1e-17]))
        assert exc.value.step == 1
        assert exc.value.pivot == 1e-17
        assert "non-positive" not in str(exc.value)
        assert "at or below the rounding floor" in str(exc.value)

    def test_semidefinite_fails(self):
        assert not is_spd(np.diag([1.0, 0.0]))

    def test_is_spd_decides_without_locating_the_failure(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("failing step searched for")

        monkeypatch.setattr(ilsolve.dense, "_pivot_failure", refuse)
        assert not is_spd(np.diag([4.0, 1.0, -1.0, 2.0]))
        assert not is_spd(np.diag([1.0, 1e-17]))
        assert is_spd(np.eye(3)) and is_spd(np.zeros((0, 0)))
        with pytest.raises(ValueError, match="square"):
            is_spd(np.ones((2, 3)))
        with pytest.raises(ValueError, match="symmetric"):
            is_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            dense_cholesky(np.array([[np.nan]]))
        with pytest.raises(ValueError, match="non-finite"):
            dense_cholesky(np.array([[1.0, np.inf], [np.inf, 1.0]]))

    def test_non_finite_is_not_certified_spd(self):
        with pytest.raises(ValueError, match="non-finite"):
            is_spd(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_input_not_modified(self, rng):
        m = random_spd(rng, 5)
        kept = m.copy()
        dense_cholesky(m)
        assert np.array_equal(m, kept)

    def test_unsymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            dense_cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_reconstruction_random_spd(self, rng):
        for cond in (10.0, 1e3, 1e6):
            m = random_spd(rng, 12, cond=cond)
            f = dense_cholesky(m)
            rel = np.linalg.norm(f @ f.T - m) / np.linalg.norm(m)
            assert rel <= 1e-12

    def test_positive_diagonal(self, rng):
        f = dense_cholesky(random_spd(rng, 8))
        assert np.all(np.diag(f) > 0)


class TestCholeskySolve:
    def test_identity(self):
        f = dense_cholesky(np.eye(3))
        r = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(cholesky_solve(f, r), r)

    def test_known_system(self):
        m = np.array([[4.0, 2.0], [2.0, 2.0]])
        f = dense_cholesky(m)
        z = cholesky_solve(f, np.array([6.0, 4.0]))
        assert np.allclose(z, [1.0, 1.0], rtol=0, atol=1e-14)
        assert np.allclose(m @ z, [6.0, 4.0], rtol=0, atol=1e-14)

    def test_dimension_mismatch(self):
        f = dense_cholesky(np.eye(3))
        with pytest.raises(ValueError):
            cholesky_solve(f, np.ones(4))

    def test_agrees_with_cg(self, rng):
        m = random_spd(rng, 10, cond=50.0)
        rhs = rng.standard_normal(10)
        direct = cholesky_solve(dense_cholesky(m), rhs)
        iterative, report = cg_solve(
            aslinearoperator(m), rhs, config=CgConfig(rel_tolerance=1e-12, max_iterations=500)
        )
        assert report.converged
        assert np.linalg.norm(direct - iterative) / np.linalg.norm(direct) <= 1e-8

    def test_matrix_right_hand_side_triangular_solves(self, rng):
        m = random_spd(rng, 6)
        f = dense_cholesky(m)
        b = rng.standard_normal((6, 3))
        y = solve_lower(f, b)
        z = solve_lower_transpose(f, y)
        assert np.allclose(m @ z, b, rtol=0, atol=1e-10)


_SIZES = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 200]


class TestBlockedTriangularSolves:
    @pytest.mark.parametrize(
        "n, cond",
        [pytest.param(n, 1e4, id=str(n)) for n in _SIZES]
        + [pytest.param(n, 1e10, id=f"{n}-cond1e10") for n in _SIZES],
    )
    @pytest.mark.parametrize("cols", [None, 3])
    def test_match_scipy_solve_triangular(self, rng, n, cols, cond):
        lower = np.linalg.cholesky(random_spd(rng, n, cond=cond))
        b = rng.standard_normal(n if cols is None else (n, cols))
        kept = b.copy()
        y = solve_lower(lower, b)
        z = solve_lower_transpose(lower, b)
        assert np.array_equal(b, kept)
        assert y.shape == z.shape == b.shape
        # Backward error of substitution, n eps |L| |y| (Higham, Accuracy
        # and Stability of Numerical Algorithms, Thm 8.5), in norms;
        # multiplying by inverted diagonal blocks keeps it within c n eps
        # (Du Croz and Higham, 1992), here with c = 1.
        eps = np.finfo(np.float64).eps
        for m, x in ((lower, y), (lower.T, z)):
            bound = n * eps * np.linalg.norm(lower) * np.linalg.norm(x)
            assert np.linalg.norm(m @ x - b) <= bound
        if cond <= 1e4:
            want_y = scipy.linalg.solve_triangular(lower, b, lower=True)
            want_z = scipy.linalg.solve_triangular(lower, b, lower=True, trans="T")
            np.testing.assert_allclose(y, want_y, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(z, want_z, rtol=1e-10, atol=1e-12)

