import numpy as np
import pytest

import ilsolve as il
from ilsolve import (
    BlockVector,
    DegenerateProblemError,
    IlsProblem,
    ProblemAssumptionError,
    apply_block_A,
    build_rhs,
    compute_alpha,
    exact_solution_oracle,
    full_solution_from_x,
    partition_problem,
)
from ilsolve.problem import BlockLayout, gram_operator, reduced_normal_operator, shifted_gram_operator
from ilsolve.sparse import SparseMatrixCsr, identity_csr, normalize_to_unit_one_norm

from conftest import dense_block_system, random_csr, random_desk_problem, scalar_problem


class TestBlockLayout:
    def test_slices_cover_vector(self):
        layout = BlockLayout(2, 3, 4)
        v = np.arange(9.0)
        d1, x, d2 = layout.split(v)
        assert d1.tolist() == [0, 1]
        assert x.tolist() == [2, 3, 4]
        assert d2.tolist() == [5, 6, 7, 8]
        assert np.array_equal(layout.join(d1, x, d2), v)

    def test_block_vector_views_share_storage(self):
        bv = BlockVector.zeros(BlockLayout(1, 2, 1))
        bv.x[:] = 7.0
        assert bv.data.tolist() == [0.0, 7.0, 7.0, 0.0]


class TestPartition:
    def test_identity_split(self):
        a = identity_csr(4)
        prob = partition_problem(a, np.array([1.0, 2.0, 3.0, 4.0]), p=2, q=2)
        assert prob.p == 2 and prob.q == 2 and prob.n == 4
        assert np.array_equal(prob.b1, [1.0, 2.0])
        assert np.array_equal(prob.b2, [3.0, 4.0])
        a1d, a2d = il.problem.dense_blocks(prob)
        assert np.array_equal(a1d, np.eye(4)[:2])
        assert np.array_equal(a2d, np.eye(4)[2:])

    def test_wrong_split_rejected(self):
        a = identity_csr(4)
        with pytest.raises(ValueError):
            partition_problem(a, np.ones(4), p=2, q=3)

    def test_empty_block_rejected(self):
        a = identity_csr(4)
        with pytest.raises(DegenerateProblemError):
            partition_problem(a, np.ones(4), p=0, q=4)

    def test_auto_alpha_is_squared_one_norm(self, rng):
        a = random_csr(rng, 6, 3)
        prob = partition_problem(a, np.ones(6), p=4, q=2)
        assert prob.alpha == compute_alpha(a.row_slice(0, 4))


class TestProblemValidation:
    @pytest.mark.parametrize("b1, b2", [([1.0, np.nan], [1.0]), ([1.0, 1.0], [np.inf])])
    def test_non_finite_rhs_rejected(self, b1, b2):
        with pytest.raises(ValueError, match="right-hand side has non-finite entries"):
            IlsProblem(identity_csr(2), np.ones((1, 2)), b1, b2, 2, 1, 2, 1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -1.0])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must be finite and nonnegative, got {alpha}"):
            IlsProblem(identity_csr(2), np.ones((1, 2)), np.ones(2), np.ones(1), 2, 1, 2, alpha)

    @pytest.mark.parametrize("which", ["A1", "A2"])
    @pytest.mark.parametrize("block", [il.aslinearoperator(np.eye(2)), np.ones(2)])
    def test_block_that_is_not_a_matrix_rejected(self, which, block):
        a1, a2 = (block, np.eye(2)) if which == "A1" else (np.eye(2), block)
        with pytest.raises(TypeError, match=f"{which} must be a CSR matrix or a 2-D array"):
            IlsProblem(a1, a2, np.ones(2), np.ones(2), 2, 2, 2, 1.0)

    def test_int_block_stored_as_float(self):
        prob = IlsProblem(np.eye(2, dtype=np.int64), identity_csr(2), np.ones(2), np.ones(2), 2, 2, 2, 1.0)
        assert prob.a1.dtype == np.float64
        assert np.array_equal(prob.a1, np.eye(2))


class TestComputeAlpha:
    def test_unit_norm_gives_one(self, rng):
        a = normalize_to_unit_one_norm(random_csr(rng, 5, 5))
        assert abs(compute_alpha(a) - 1.0) <= 2e-15

    def test_squaring(self):
        a = identity_csr(3, scale=2.0)
        assert compute_alpha(a) == 4.0

    def test_half_identity(self):
        a = identity_csr(3, scale=0.5)
        assert compute_alpha(a) == 0.25

    def test_dense_input(self):
        assert compute_alpha(np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])) == 1.5**2


class TestApplyBlockA:
    def test_zero_x_annihilates_a1_terms(self, rng):
        prob = random_desk_problem(0)
        d1 = rng.standard_normal(prob.p)
        d2 = rng.standard_normal(prob.q)
        v = np.concatenate([d1, np.zeros(prob.n), d2])
        out = apply_block_A(prob, v)
        assert np.array_equal(out[: prob.p], d1)
        assert np.allclose(
            out[prob.p : prob.p + prob.n], prob.a2.T @ d2, rtol=1e-14, atol=1e-14
        )
        assert np.array_equal(out[prob.p + prob.n :], d2)

    def test_matches_dense_assembly_on_random_instances(self, rng):
        for i in range(50):
            prob = random_desk_problem(i)
            dense = dense_block_system(prob)
            v = rng.standard_normal(prob.size)
            got = apply_block_A(prob, v)
            want = dense @ v
            denom = max(np.linalg.norm(want), 1e-30)
            assert np.linalg.norm(got - want) / denom <= 1e-13

    def test_scalar_problem_rows(self):
        prob = scalar_problem()
        out = apply_block_A(prob, np.ones(3))
        assert isinstance(out, np.ndarray)
        # Rows: (d1 + A1 x, A1'(A1 x) + A2' d2, A2 x + d2) with A1 = 2, A2 = 1.
        assert out.tolist() == [3.0, 5.0, 2.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_block_A(scalar_problem(), np.ones(4))


class TestBuildRhs:
    def test_zero_rhs(self):
        a1 = identity_csr(2)
        a2 = identity_csr(2, scale=0.5)
        prob = IlsProblem(a1, a2, np.zeros(2), np.zeros(2), 2, 2, 2, 1.0)
        assert np.array_equal(build_rhs(prob).data, np.zeros(6))

    def test_identity_a1_copies_b1_to_middle(self):
        a1 = identity_csr(2)
        a2 = identity_csr(2, scale=0.5)
        prob = IlsProblem(a1, a2, np.array([1.0, 2.0]), np.zeros(2), 2, 2, 2, 1.0)
        rhs = build_rhs(prob)
        assert np.array_equal(rhs.x, [1.0, 2.0])

    def test_all_ones_b_gives_column_sums(self, rng):
        core = random_csr(rng, 7, 7)
        prob = il.generate_augmented_problem(core, q=9, scale=6.0)
        rhs = build_rhs(prob)
        colsums = np.zeros(7)
        dense = core.to_dense()
        for i in range(7):
            for j in range(7):
                colsums[j] += dense[i, j]
        assert np.allclose(rhs.x, colsums, rtol=1e-13, atol=1e-13)


class TestOperators:
    def test_shift_identity_exact(self, rng):
        prob = random_desk_problem(3)
        v = rng.standard_normal(prob.n)
        shifted = shifted_gram_operator(prob)
        gram = gram_operator(prob)
        assert np.array_equal(shifted.apply(v), prob.alpha * v + gram.apply(v))

    def test_reduced_normal_operator(self, rng):
        prob = random_desk_problem(4)
        a1d, a2d = il.problem.dense_blocks(prob)
        v = rng.standard_normal(prob.n)
        want = a1d.T @ (a1d @ v) - a2d.T @ (a2d @ v)
        assert np.allclose(reduced_normal_operator(prob).apply(v), want, rtol=1e-13, atol=1e-13)


class TestExactSolutionOracle:
    def test_identity_a1_zero_a2(self):
        a1 = identity_csr(3)
        a2 = SparseMatrixCsr.from_triplets(2, 3, [], [], [])
        b1 = np.array([4.0, 5.0, 6.0])
        prob = IlsProblem(a1, a2, b1, np.zeros(2), 3, 2, 3, 1.0)
        assert np.allclose(exact_solution_oracle(prob), b1, rtol=0, atol=1e-14)

    def test_scalar_hand_value(self):
        prob = scalar_problem()
        x = exact_solution_oracle(prob)
        assert np.allclose(x, [2.0], rtol=0, atol=1e-14)
        # Residual check against the normal equations (4 - 1) x = 6.
        assert abs(3.0 * x[0] - 6.0) <= 1e-14

    def test_modes_agree_on_large_spd_instance(self):
        prob = il.generate_random_problem(p=420, q=30, n=400, seed=11)
        dense = exact_solution_oracle(prob, mode="dense-cholesky")
        cg = exact_solution_oracle(prob, mode="tight-cg")
        assert np.linalg.norm(dense - cg) / np.linalg.norm(dense) <= 1e-6

    def test_assumption_violation_raises(self):
        # A2 large enough that the reduced normal matrix goes indefinite.
        a1 = identity_csr(2)
        a2 = identity_csr(2, scale=3.0)
        prob = IlsProblem(a1, a2, np.ones(2), np.ones(2), 2, 2, 2, 1.0)
        with pytest.raises(ProblemAssumptionError):
            exact_solution_oracle(prob, mode="dense-cholesky")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            exact_solution_oracle(scalar_problem(), mode="sideways")

    def test_lifted_solution_satisfies_block_system(self):
        for i in range(10):
            prob = random_desk_problem(i)
            x_star = exact_solution_oracle(prob)
            v_star = full_solution_from_x(prob, x_star)
            rhs = build_rhs(prob).data
            res = np.linalg.norm(apply_block_A(prob, v_star.data) - rhs)
            assert res / np.linalg.norm(rhs) <= 1e-10
