import dataclasses

import numpy as np
import pytest

import ilsolve as il
from ilsolve import (
    CgConfig,
    DegenerateProblemError,
    IlsProblem,
    OracleFailureError,
    ProblemAssumptionError,
    apply_block_A,
    build_rhs,
    cg_solve,
    compute_alpha,
    full_solution_from_x,
    partition_problem,
    reference_solution,
)
from ilsolve import problem as problem_module
from ilsolve.problem import _gram_pair, reduced_normal_operator
from ilsolve.sparse import SparseMatrixCsr, normalize_to_unit_one_norm, rectangular_identity_csr

from conftest import dense_block_system, random_csr, random_desk_problem, scalar_problem


class TestSplit:
    # p, n, q = 2, 3, 4
    SMALL = IlsProblem(np.ones((2, 3)), np.ones((4, 3)), np.ones(2), np.ones(4), 1.0)

    def test_slices_cover_vector(self):
        v = np.arange(9.0)
        d1, x, d2 = self.SMALL.split(v)
        assert d1.tolist() == [0, 1]
        assert x.tolist() == [2, 3, 4]
        assert d2.tolist() == [5, 6, 7, 8]

    def test_split_returns_views_of_flat_block_vectors(self, rng):
        prob = random_desk_problem(2)
        for v in (build_rhs(prob), full_solution_from_x(prob, rng.standard_normal(prob.n))):
            assert v.dtype == np.float64 and v.shape == (prob.size,)
            for block in prob.split(v):
                assert block.base is v
            prob.split(v)[1][:] = 7.0
            assert np.all(v[prob.p : prob.p + prob.n] == 7.0)

    def test_other_dtypes_are_converted(self):
        blocks = self.SMALL.split(list(range(9)))
        assert all(block.dtype == np.float64 for block in blocks)
        assert np.concatenate(blocks).tolist() == list(range(9))

    @pytest.mark.parametrize("shape", [(8,), (10,), (9, 1), (1, 9)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=rf"vector has shape \({shape[0]},.*expected \(9,\)"):
            self.SMALL.split(np.zeros(shape))

    def test_block_products_use_the_same_check(self):
        prob = random_desk_problem(3)
        pre = il.make_preconditioner("ibs2", prob, inner="cholesky")
        for apply in (lambda v: apply_block_A(prob, v), pre.apply):
            with pytest.raises(ValueError, match=rf"expected \({prob.size},\)"):
                apply(np.zeros(prob.size + 1))


class TestPartition:
    def test_identity_split(self):
        a = rectangular_identity_csr(4, 4)
        prob = partition_problem(a, np.array([1.0, 2.0, 3.0, 4.0]), p=2, q=2)
        assert prob.p == 2 and prob.q == 2 and prob.n == 4
        assert np.array_equal(prob.b1, [1.0, 2.0])
        assert np.array_equal(prob.b2, [3.0, 4.0])
        a1d, a2d = il.problem.dense_blocks(prob)
        assert np.array_equal(a1d, np.eye(4)[:2])
        assert np.array_equal(a2d, np.eye(4)[2:])

    def test_wrong_split_rejected(self):
        a = rectangular_identity_csr(4, 4)
        with pytest.raises(ValueError):
            partition_problem(a, np.ones(4), p=2, q=3)

    def test_empty_block_rejected(self):
        a = rectangular_identity_csr(4, 4)
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
            IlsProblem(rectangular_identity_csr(2, 2), np.ones((1, 2)), b1, b2, 1.0)

    @pytest.mark.parametrize("which", ["A1", "A2"])
    @pytest.mark.parametrize(
        "bad", [np.array([[1.0, np.nan], [0.0, 1.0]]), SparseMatrixCsr.from_triplets(2, 2, [0, 1], [0, 1], [1.0, np.inf])]
    )
    def test_non_finite_block_rejected(self, which, bad):
        a1, a2 = (bad, np.eye(2)) if which == "A1" else (np.eye(2), bad)
        with pytest.raises(ValueError, match=f"{which} has non-finite entries"):
            IlsProblem(a1, a2, np.ones(2), np.ones(2), 1.0)

    def test_no_unknowns_rejected(self):
        with pytest.raises(DegenerateProblemError, match="no unknowns"):
            IlsProblem(np.zeros((2, 0)), np.zeros((3, 0)), np.ones(2), np.ones(3), 1.0)

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError, match="A1 has 2 columns but A2 has 3"):
            IlsProblem(np.eye(2), np.ones((1, 3)), np.ones(2), np.ones(1), 1.0)

    def test_sizes_read_from_blocks(self):
        prob = IlsProblem(np.ones((3, 2)), np.ones((1, 2)), np.ones(3), np.ones(1), 1.0)
        assert (prob.p, prob.q, prob.n) == (3, 1, 2)
        changed = dataclasses.replace(prob, alpha=2.0)
        assert (changed.p, changed.q, changed.n, changed.alpha) == (3, 1, 2, 2.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -1.0])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must be finite and nonnegative, got {alpha}"):
            IlsProblem(rectangular_identity_csr(2, 2), np.ones((1, 2)), np.ones(2), np.ones(1), alpha)

    @pytest.mark.parametrize("which", ["A1", "A2"])
    @pytest.mark.parametrize("block", [il.aslinearoperator(np.eye(2)), np.ones(2)])
    def test_block_that_is_not_a_matrix_rejected(self, which, block):
        a1, a2 = (block, np.eye(2)) if which == "A1" else (np.eye(2), block)
        with pytest.raises(TypeError, match=f"{which} must be a CSR matrix or a 2-D array"):
            IlsProblem(a1, a2, np.ones(2), np.ones(2), 1.0)

    def test_int_block_stored_as_float(self):
        prob = IlsProblem(np.eye(2, dtype=np.int64), rectangular_identity_csr(2, 2), np.ones(2), np.ones(2), 1.0)
        assert prob.a1.dtype == np.float64
        assert np.array_equal(prob.a1, np.eye(2))


class TestComputeAlpha:
    def test_unit_norm_gives_one(self, rng):
        a = normalize_to_unit_one_norm(random_csr(rng, 5, 5))
        assert abs(compute_alpha(a) - 1.0) <= 2e-15

    def test_squaring(self):
        a = rectangular_identity_csr(3, 3, scale=2.0)
        assert compute_alpha(a) == 4.0

    def test_half_identity(self):
        a = rectangular_identity_csr(3, 3, scale=0.5)
        assert compute_alpha(a) == 0.25

    def test_dense_input(self):
        assert compute_alpha(np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])) == 1.5**2

    def test_dense_one_norm_sums_magnitudes_by_column(self):
        assert compute_alpha(np.array([[1.0, -2.0], [3.0, 4.0]])) == 6.0**2
        with pytest.raises(il.DegenerateMatrixError):
            compute_alpha(np.zeros((2, 2)))


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


def _rows_per_panel(n):
    return max(problem_module._PANEL_BYTES // (8 * n), 1)


PANEL = _rows_per_panel(200)  # rows of one panel at n = 200
WIDE = problem_module._PANEL_BYTES // 8 + 1  # columns of a row wider than a panel


class TestGramSweep:
    @pytest.mark.parametrize(
        "shape",
        [(PANEL - 1, 200), (PANEL, 200), (PANEL + 1, 200), (1, 200), (1, WIDE), (3, WIDE), (3 * _rows_per_panel(1) + 5, 1)],
        ids=["panel-1", "panel", "panel+1", "one-row", "wide-row", "wide-rows", "one-column"],
    )
    def test_matches_the_two_products(self, rng, shape):
        a = rng.standard_normal(shape)
        x = rng.standard_normal(shape[1])
        rows = _rows_per_panel(shape[1])
        ax, gram = problem_module._gram_sweep(a, x, rows)
        want_ax = a @ x
        if shape[0] <= rows:  # one panel: the two products themselves
            assert np.array_equal(ax, want_ax) and np.array_equal(gram, want_ax @ a)
        # Both sides are within (p + n) eps |A|_F^2 |x| of A'(A x).
        scale = np.finfo(np.float64).eps * np.linalg.norm(a) * np.linalg.norm(x)
        assert np.linalg.norm(ax - want_ax) <= 2 * shape[1] * scale
        assert np.linalg.norm(gram - want_ax @ a) <= 2 * sum(shape) * scale * np.linalg.norm(a)

    @staticmethod
    def two_products(prob, v):
        d1, x, d2 = prob.split(v)
        a1x = prob.a1 @ x
        return np.concatenate([d1 + a1x, a1x @ prob.a1 + d2 @ prob.a2, prob.a2 @ x + d2])

    @pytest.mark.parametrize(
        "a1",
        [lambda rng: random_csr(rng, 2 * PANEL, 200), lambda rng: rng.standard_normal((PANEL, 200)),
         lambda rng: np.asfortranarray(rng.standard_normal((PANEL, 200))),
         lambda rng: random_desk_problem(5).a1],
        ids=["csr", "dense-one-panel", "dense-column-major", "desk"],
    )
    def test_other_blocks_keep_the_two_products_bit_for_bit(self, rng, a1):
        # A CSR A1 has no panels, and a dense A1 of one panel is swept as
        # the two products, in either memory order.
        a1 = a1(rng)
        prob = IlsProblem(a1, rng.standard_normal((7, a1.shape[1])), np.ones(a1.shape[0]), np.ones(7), 2.0)
        assert (prob._panel == 0) == isinstance(a1, SparseMatrixCsr)
        assert prob._panel == 0 or prob._panel >= prob.p
        v = rng.standard_normal(prob.size)
        assert np.array_equal(apply_block_A(prob, v), self.two_products(prob, v))
        x = prob.split(v)[1]
        for shift in (0.0, prob.alpha):
            sx, a1x = _gram_pair(prob, shift)(x)
            assert np.array_equal(sx, shift * x + (prob.a1 @ x) @ prob.a1) and np.array_equal(a1x, prob.a1 @ x)

    def test_dense_block_over_one_panel_is_swept(self, rng):
        # In either memory order: a column-major A1 is summed by panels too.
        for order in "CF":
            a1 = np.asarray(rng.standard_normal((PANEL + 1, 200)), order=order)
            prob = IlsProblem(a1, random_csr(rng, 7, 200), np.ones(PANEL + 1), np.ones(7), 2.0)
            assert prob._panel == PANEL
            v = rng.standard_normal(prob.size)
            d1, x, d2 = prob.split(v)
            ax, gram = problem_module._gram_sweep(prob.a1, x, PANEL)
            want = np.concatenate([d1 + ax, gram + d2 @ prob.a2, prob.a2 @ x + d2])
            assert np.array_equal(apply_block_A(prob, v), want)
            assert np.array_equal(_gram_pair(prob, 0.0)(x)[0], gram)
            assert np.array_equal(_gram_pair(prob, prob.alpha)(x)[0], prob.alpha * x + gram)
            got, two = apply_block_A(prob, v), self.two_products(prob, v)
            assert np.linalg.norm(got - two) <= 1e-13 * np.linalg.norm(two)


class TestBuildRhs:
    def test_zero_rhs(self):
        a1 = rectangular_identity_csr(2, 2)
        a2 = rectangular_identity_csr(2, 2, scale=0.5)
        prob = IlsProblem(a1, a2, np.zeros(2), np.zeros(2), 1.0)
        assert np.array_equal(build_rhs(prob), np.zeros(6))

    def test_identity_a1_copies_b1_to_middle(self):
        a1 = rectangular_identity_csr(2, 2)
        a2 = rectangular_identity_csr(2, 2, scale=0.5)
        prob = IlsProblem(a1, a2, np.array([1.0, 2.0]), np.zeros(2), 1.0)
        rhs = build_rhs(prob)
        assert np.array_equal(prob.split(rhs)[1], [1.0, 2.0])

    def test_all_ones_b_gives_column_sums(self, rng):
        core = random_csr(rng, 7, 7)
        prob = il.generate_augmented_problem(core, q=9, scale=6.0)
        rhs = build_rhs(prob)
        colsums = np.zeros(7)
        dense = core.to_dense()
        for i in range(7):
            for j in range(7):
                colsums[j] += dense[i, j]
        assert np.allclose(prob.split(rhs)[1], colsums, rtol=1e-13, atol=1e-13)


class TestOperators:
    def test_shift_identity_exact(self, rng):
        prob = random_desk_problem(3)
        v = rng.standard_normal(prob.n)
        shifted = _gram_pair(prob, prob.alpha)
        gram = _gram_pair(prob, 0.0)
        assert np.array_equal(shifted(v)[0], prob.alpha * v + gram(v)[0])

    def test_reduced_normal_operator(self, rng):
        prob = random_desk_problem(4)
        a1d, a2d = il.problem.dense_blocks(prob)
        v = rng.standard_normal(prob.n)
        want = a1d.T @ (a1d @ v) - a2d.T @ (a2d @ v)
        assert np.allclose(reduced_normal_operator(prob).apply(v), want, rtol=1e-13, atol=1e-13)


class TestExactSolutionOracle:
    def test_identity_a1_zero_a2(self):
        a1 = rectangular_identity_csr(3, 3)
        a2 = SparseMatrixCsr.from_triplets(2, 3, [], [], [])
        b1 = np.array([4.0, 5.0, 6.0])
        prob = IlsProblem(a1, a2, b1, np.zeros(2), 1.0)
        x, note = reference_solution(prob)
        assert note == ""
        assert np.allclose(x, b1, rtol=0, atol=1e-14)

    def test_scalar_hand_value(self):
        prob = scalar_problem()
        x, _ = reference_solution(prob)
        assert np.allclose(x, [2.0], rtol=0, atol=1e-14)
        # Residual check against the normal equations (4 - 1) x = 6.
        assert abs(3.0 * x[0] - 6.0) <= 1e-14

    def test_cg_branch_agrees_with_dense(self, monkeypatch):
        prob = il.generate_random_problem(p=420, q=30, n=400, seed=11)
        dense, dense_note = reference_solution(prob)
        monkeypatch.setattr(problem_module, "DENSE_MAX_N", 0)
        cg, cg_note = reference_solution(prob)
        assert dense_note == cg_note == ""
        assert np.linalg.norm(dense - cg) / np.linalg.norm(dense) <= 1e-6

    def test_cap_boundary_selects_the_cg_branch(self, monkeypatch):
        # n = DENSE_MAX_N stays dense; one past the cap runs CG, which
        # converges to the dense answer (the reduced normal matrix has
        # condition at most 8 here, and CG stops at 1e-14).
        prob = il.generate_random_problem(p=20, q=10, n=15, seed=3)
        calls = []
        monkeypatch.setattr(
            problem_module, "cg_solve", lambda op, rhs, config: calls.append(1) or cg_solve(op, rhs, config=config)
        )
        monkeypatch.setattr(problem_module, "DENSE_MAX_N", prob.n)
        dense, _ = reference_solution(prob)
        assert calls == []
        monkeypatch.setattr(problem_module, "DENSE_MAX_N", prob.n - 1)
        cg, note = reference_solution(prob)
        assert calls == [1] and note == ""
        assert np.linalg.norm(dense - cg) <= 1e-12 * np.linalg.norm(dense)

    def test_stalled_cg_is_an_oracle_failure(self, monkeypatch):
        # CG held to one iteration cannot reach 1e-14 on 15 unknowns.
        prob = il.generate_random_problem(p=20, q=10, n=15, seed=3)
        monkeypatch.setattr(problem_module, "DENSE_MAX_N", prob.n - 1)
        monkeypatch.setattr(
            problem_module, "cg_solve",
            lambda op, rhs, config: cg_solve(op, rhs, config=CgConfig(config.rel_tolerance, 1)),
        )
        with pytest.raises(OracleFailureError, match="^reference CG stalled at relative residual .* after 1 iterations$"):
            reference_solution(prob)

    def test_assumption_violation_raises(self, monkeypatch):
        # A2 large enough that the reduced normal matrix goes indefinite.
        # Only the CG branch raises; the dense branch takes the LU fallback.
        prob = IlsProblem(rectangular_identity_csr(2, 2), rectangular_identity_csr(2, 2, scale=3.0), np.ones(2), np.ones(2), 1.0)
        monkeypatch.setattr(problem_module, "DENSE_MAX_N", 0)
        with pytest.raises(ProblemAssumptionError, match="not positive definite"):
            reference_solution(prob)

    def test_lifted_solution_satisfies_block_system(self):
        for i in range(10):
            prob = random_desk_problem(i)
            x_star, _ = reference_solution(prob)
            v_star = full_solution_from_x(prob, x_star)
            rhs = build_rhs(prob)
            res = np.linalg.norm(apply_block_A(prob, v_star) - rhs)
            assert res / np.linalg.norm(rhs) <= 1e-10


def test_problems_compare_and_hash_by_identity(rng):
    # Equal-valued ndarray blocks must neither make == raise (the truth
    # value of an array is ambiguous) nor hash() fail.
    a1, a2 = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    one = IlsProblem(a1, a2, np.ones(5), np.ones(4), 2.0)
    two = IlsProblem(a1.copy(), a2.copy(), np.ones(5), np.ones(4), 2.0)
    assert one == one and one != two
    assert len({one, two, one}) == 2 and hash(one) == hash(one)
