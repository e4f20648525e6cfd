import dataclasses

import numpy as np
import pytest

import ilsolve as il
from ilsolve import (
    CgConfig,
    ConfigurationError,
    DegenerateProblemError,
    IlsProblem,
    ProblemAssumptionError,
    apply_block_A,
    build_rhs,
    compute_alpha,
    partition_problem,
    reference_solution,
)
from ilsolve import problem as problem_module
from ilsolve.problem import _gram_pair
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
        x = rng.standard_normal(prob.n)
        for v in (build_rhs(prob), np.concatenate([prob.b1 - prob.a1 @ x, x, prob.b2 - prob.a2 @ x])):
            assert v.dtype == np.float64 and v.shape == (prob.size,)
            for block in prob.split(v):
                assert block.base is v
            prob.split(v)[1][:] = 7.0
            assert np.all(v[prob.p : prob.p + prob.n] == 7.0)

    def test_other_dtypes_are_converted(self):
        blocks = self.SMALL.split(list(range(9)))
        assert all(block.dtype == np.float64 for block in blocks)
        assert np.concatenate(blocks).tolist() == list(range(9))

    @pytest.mark.parametrize("shape", [(8,), (10,), (1, 9), (9, 0), (10, 2), (9, 1, 1)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=rf"vector has shape \({shape[0]},.*expected \(9,"):
            self.SMALL.split(np.zeros(shape))

    def test_a_block_splits_into_row_blocks(self):
        v = np.arange(18.0).reshape(9, 2)
        d1, x, d2 = self.SMALL.split(v)
        assert d1.shape == (2, 2) and x.shape == (3, 2) and d2.shape == (4, 2)
        assert all(np.shares_memory(block, v) for block in (d1, x, d2))
        assert np.array_equal(np.vstack([d1, x, d2]), v)

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

    def test_dense_and_csr_give_the_same_blocks(self, rng):
        a = random_csr(rng, 6, 3)
        b = rng.standard_normal(6)
        dense_a = a.to_dense()
        sparse, dense = partition_problem(a, b, p=4, q=2), partition_problem(dense_a, b, p=4, q=2)
        dense_a[:] = 0.0  # the problem owns copies of the rows
        assert isinstance(dense.a1, np.ndarray) and isinstance(dense.a2, np.ndarray)
        for got, want in zip(il.problem.dense_blocks(dense), il.problem.dense_blocks(sparse)):
            assert np.array_equal(got, want)
        assert np.array_equal(dense.b1, sparse.b1) and np.array_equal(dense.b2, sparse.b2)
        assert dense.alpha == sparse.alpha

    def test_dense_blocks_are_read_only_for_both_kinds(self, rng):
        a = random_csr(rng, 6, 3)
        for prob in (partition_problem(a, np.ones(6), p=4, q=2), partition_problem(a.to_dense(), np.ones(6), p=4, q=2)):
            for block in il.problem.dense_blocks(prob):
                with pytest.raises(ValueError, match="read-only"):
                    block[0, 0] = 1.0

    def test_auto_alpha_is_squared_one_norm(self, rng):
        a = random_csr(rng, 6, 3)
        prob = partition_problem(a, np.ones(6), p=4, q=2)
        assert prob.alpha == compute_alpha(a.row_slice(0, 4))


def exact_and_cg(prob, r):
    """z = M^{-1} r for ibs1 with an exact inner solve (the problem's shared
    factor) and with inner CG at 1e-12, which reads the blocks afresh."""
    exact = il.make_preconditioner("ibs1", prob, inner="cholesky").apply(r)
    cg = il.make_preconditioner("ibs1", prob, inner="cg", inner_config=CgConfig(1e-12, 1000)).apply(r)
    return exact, cg


def all_read_only(*blocks):
    arrays = []
    for block in blocks:
        if isinstance(block, SparseMatrixCsr):
            arrays += [block.row_offsets, block.col_indices, block.values, block._rows]
        else:
            arrays.append(block)
    return not any(a.flags.writeable for a in arrays)


class TestDataIsReadOnly:
    """A problem holds read-only data, copying what its caller can still
    write, so the data ``_shared`` derives from it cannot go stale."""

    def test_a_write_to_the_callers_block_reaches_neither_block_nor_factor(self, rng):
        base = il.generate_random_problem(20, 15, 10, seed=4)
        a1 = np.array(base.a1)
        prob = IlsProblem(a1, np.array(base.a2), np.array(base.b1), np.array(base.b2), base.alpha)
        r = rng.standard_normal(prob.size)
        before, _ = exact_and_cg(prob, r)
        a1 *= 2.0
        exact, cg = exact_and_cg(prob, r)
        np.testing.assert_allclose(cg, exact, rtol=0, atol=1e-9 * np.abs(exact).max())
        assert np.array_equal(prob.a1, base.a1) and np.array_equal(exact, before)

    def test_a_write_to_a_csr_matrix_after_partition_problem(self, rng):
        base = il.generate_random_problem(20, 15, 10, seed=5)
        dense = np.vstack([base.a1, base.a2])
        dense[rng.random(dense.shape) < 0.3] = 0.0
        rows, cols = np.nonzero(dense)
        offsets = np.concatenate([[0], np.cumsum(np.count_nonzero(dense, axis=1))])
        values = dense[rows, cols]
        a = SparseMatrixCsr(35, 10, offsets, cols, values)
        prob = partition_problem(a, np.concatenate([base.b1, base.b2]), p=20, q=15)
        r = rng.standard_normal(prob.size)
        before, _ = exact_and_cg(prob, r)
        values *= 2.0  # the caller's array, which a.values is
        assert a.values is values
        exact, cg = exact_and_cg(prob, r)
        np.testing.assert_allclose(cg, exact, rtol=0, atol=1e-9 * np.abs(exact).max())
        assert np.array_equal(prob.a1.to_dense(), dense[:20]) and np.array_equal(exact, before)

    def test_writable_data_is_copied_once_and_read_only_data_kept(self):
        a1 = np.asfortranarray(np.arange(12.0).reshape(4, 3) + np.eye(4, 3))
        frozen = np.ones((2, 3))
        frozen.flags.writeable = False
        view = np.ones(2).view()  # read-only, but its base is writable
        view.flags.writeable = False
        b1 = np.ones(4)
        prob = IlsProblem(a1, frozen, b1, view, 1.0)
        assert prob.a1 is not a1 and np.array_equal(prob.a1, a1) and prob.a1.flags.f_contiguous
        assert prob.b1 is not b1 and prob.b2 is not view
        assert prob.a2 is frozen
        assert all_read_only(prob.a1, prob.a2, prob.b1, prob.b2)
        again = dataclasses.replace(prob, alpha=2.0)
        assert all(getattr(again, k) is getattr(prob, k) for k in ("a1", "a2", "b1", "b2"))

    def test_a_csr_block_with_a_writable_array_is_rebuilt(self):
        given = SparseMatrixCsr(2, 2, [0, 1, 2], [0, 1], [1.0, 2.0])
        made = rectangular_identity_csr(2, 2, 3.0)
        prob = IlsProblem(given, made, np.ones(2), np.ones(2), 1.0)
        assert prob.a1 is not given and np.array_equal(prob.a1.to_dense(), given.to_dense())
        assert prob.a2 is made
        assert all_read_only(prob.a1, prob.a2)

    def test_the_package_makes_read_only_data_that_needs_no_copy(self, monkeypatch, tmp_path):
        # The generators, the Matrix Market reader (from_triplets), the
        # normalization, row slices and the fold's twin mark the arrays
        # they make read-only, so a problem built on them copies nothing.
        copied = []
        read_only = problem_module._read_only

        def recording(x):
            out = read_only(x)
            if out is not x:
                copied.append(x)
            return out

        monkeypatch.setattr(problem_module, "_read_only", recording)
        path = tmp_path / "core.mtx"
        written = SparseMatrixCsr.from_triplets(4, 3, [0, 1, 2, 3], [0, 1, 2, 0], [2.0, 3.0, 4.0, 1.0])
        il.write_matrix_market(written, path)
        core = normalize_to_unit_one_norm(il.read_matrix_market(path))
        augmented = il.generate_augmented_problem(core, 6)
        b = np.ones(6)
        b.flags.writeable = False
        problems = [
            augmented,
            il.generate_hilbert_problem(12),
            il.generate_random_problem(9, 4, 5, seed=1),
            partition_problem(rectangular_identity_csr(6, 3), b, p=4, q=2),
            il.preconditioners._fold(augmented)[0],
        ]
        for prob in problems:
            assert all_read_only(prob.a1, prob.a2, prob.b1, prob.b2)
        assert all_read_only(written, core) and copied == []


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

    def test_assumption_violation_raises(self):
        # A1 = A2 = I_2 makes the reduced normal matrix zero: no reference.
        eye = rectangular_identity_csr(2, 2)
        prob = IlsProblem(eye, eye, np.ones(2), np.ones(2), 1.0)
        with pytest.raises(ProblemAssumptionError, match="^reduced normal matrix is singular$"):
            reference_solution(prob)

    def test_indefinite_matrix_takes_the_lu_fallback(self):
        # A2 = 3 I_2 gives (1 - 9) x = 1 - 3, so x = 1/4 from the LU solve.
        prob = IlsProblem(
            rectangular_identity_csr(2, 2), rectangular_identity_csr(2, 2, scale=3.0), np.ones(2), np.ones(2), 1.0
        )
        x, note = reference_solution(prob)
        assert note == "reduced normal matrix indefinite; reference from dense LU solve"
        assert np.allclose(x, [0.25, 0.25], rtol=0, atol=1e-15)

    def test_cap_boundary_raises_configuration_error(self, monkeypatch):
        # n = DENSE_MAX_N still gets the dense solve, bit for bit; one
        # unknown past the cap raises and names both numbers.
        prob = il.generate_random_problem(p=20, q=10, n=15, seed=3)
        want, want_note = reference_solution(prob)
        monkeypatch.setattr(problem_module, "DENSE_MAX_N", prob.n)
        x, note = reference_solution(prob)
        assert np.array_equal(x, want) and note == want_note == ""
        monkeypatch.setattr(problem_module, "DENSE_MAX_N", prob.n - 1)
        with pytest.raises(ConfigurationError, match="^dense reference solution requested for n = 15 > cap 14$"):
            reference_solution(prob)

    def test_sparse_and_dense_blocks_give_one_reference(self):
        # The same data as CSR or ndarray blocks solves the normal
        # equations A1'(A1 x) - A2'(A2 x) = A1'b1 - A2'b2, applied matrix-free.
        def as_csr(a):
            rows, cols = np.nonzero(a)
            return SparseMatrixCsr.from_triplets(*a.shape, rows, cols, a[rows, cols])

        for i in range(5):
            dense = random_desk_problem(i)
            csr = IlsProblem(as_csr(dense.a1), as_csr(dense.a2), dense.b1, dense.b2, dense.alpha)
            rhs = csr.b1 @ csr.a1 - csr.b2 @ csr.a2
            x_csr, _ = reference_solution(csr)
            x_dense, _ = reference_solution(dense)
            for prob, x in ((csr, x_csr), (dense, x_dense)):
                normal_x = (prob.a1 @ x) @ prob.a1 - (prob.a2 @ x) @ prob.a2
                assert np.linalg.norm(normal_x - rhs) <= 1e-10 * np.linalg.norm(rhs)
            assert np.allclose(x_csr, x_dense, rtol=1e-10, atol=0)

    def test_lifted_solution_satisfies_block_system(self):
        for i in range(10):
            prob = random_desk_problem(i)
            x_star, _ = reference_solution(prob)
            v_star = np.concatenate([prob.b1 - prob.a1 @ x_star, x_star, prob.b2 - prob.a2 @ x_star])
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
