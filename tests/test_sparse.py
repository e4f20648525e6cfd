import re

import numpy as np
import pytest

from ilsolve import (
    DegenerateMatrixError,
    SparseMatrixCsr,
    normalize_to_unit_one_norm,
    one_norm,
    rectangular_identity_csr,
    spmv,
    spmv_transpose,
)
from ilsolve.bench import generate_augmented_problem
from ilsolve.mmio import read_matrix_market, write_matrix_market
from ilsolve.preconditioners import IBS_VARIANTS, _fold, make_preconditioner
from ilsolve.problem import IlsProblem, build_rhs

from conftest import random_csr, spmv_oracle


class TestConstruction:
    def test_from_triplets_sorts_and_sums_duplicates(self):
        a = SparseMatrixCsr.from_triplets(
            2, 3, [1, 0, 1, 1], [2, 1, 0, 2], [1.0, 2.0, 3.0, 4.0]
        )
        assert a.nnz == 3
        rows, cols, vals = a.to_triplets()
        assert rows.tolist() == [0, 1, 1]
        assert cols.tolist() == [1, 0, 2]
        assert vals.tolist() == [2.0, 3.0, 5.0]

    def test_exact_cancellation_is_dropped(self):
        a = SparseMatrixCsr.from_triplets(2, 2, [0, 0], [0, 0], [1.5, -1.5])
        assert a.nnz == 0

    def test_roundtrip_matches_summed_multiset(self, rng):
        for i in range(20):
            rows = rng.integers(0, 7, size=30)
            cols = rng.integers(0, 5, size=30)
            vals = rng.standard_normal(30)
            a = SparseMatrixCsr.from_triplets(7, 5, rows, cols, vals)
            dense = np.zeros((7, 5))
            for r, c, v in zip(rows, cols, vals):
                dense[r, c] += v
            assert np.allclose(a.to_dense(), dense, rtol=0, atol=1e-15)
            again = SparseMatrixCsr.from_triplets(7, 5, *a.to_triplets())
            assert np.array_equal(again.to_dense(), a.to_dense())

    def test_invalid_offsets_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrixCsr(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrixCsr(1, 3, [0, 2], [2, 0], [1.0, 1.0])

    def test_out_of_range_column_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrixCsr.from_triplets(2, 2, [0], [5], [1.0])

    @pytest.mark.parametrize(
        "field, offsets, cols",
        [("row_offsets", [0, 1.7, 2], [0, 1]), ("col_indices", [0, 1, 2], [0, 1.2]),
         ("col_indices", [0, 1, 2], [0, np.nan]), ("row_offsets", [0, np.inf, 2], [0, 1])],
    )
    def test_fractional_index_rejected(self, field, offsets, cols):
        # A cast to int64 would truncate 1.7 to 1 and accept the matrix.
        with pytest.raises(ValueError, match=f"{field} must hold whole numbers"):
            SparseMatrixCsr(2, 2, offsets, cols, [1.0, 1.0])

    @pytest.mark.parametrize(
        "field, rows, cols",
        [("rows", [0.5, 1.9], [0, 1]), ("cols", [0, 1], [0, 1.2]), ("cols", [0, 1], [0, 1e300])],
    )
    def test_fractional_triplet_index_rejected(self, field, rows, cols):
        with pytest.raises(ValueError, match=f"{field} must hold whole numbers"):
            SparseMatrixCsr.from_triplets(2, 2, rows, cols, [1.0, 1.0])

    def test_whole_float_indices_accepted(self):
        a = SparseMatrixCsr(2, 2, np.array([0.0, 1.0, 2.0]), [0.0, 1.0], [1.0, 2.0])
        b = SparseMatrixCsr.from_triplets(2, 2, [0.0, 1.0], np.array([0.0, 1.0]), [1.0, 2.0])
        for m in (a, b):
            assert m.row_offsets.dtype == m.col_indices.dtype == np.int64
            assert np.array_equal(m.to_dense(), np.diag([1.0, 2.0]))

    def test_integer_indices_are_not_copied(self):
        offsets, cols = np.array([0, 1, 2]), np.array([0, 1])
        a = SparseMatrixCsr(2, 2, offsets, cols, [1.0, 2.0])
        assert a.row_offsets is offsets and a.col_indices is cols

    @pytest.mark.parametrize("build", ["csr", "triplets"])
    def test_complex_values_rejected(self, build):
        with pytest.raises(TypeError, match="values must be real, got dtype complex128"):
            if build == "csr":
                SparseMatrixCsr(1, 1, [0, 1], [0], [1 + 1j])
            else:
                SparseMatrixCsr.from_triplets(1, 1, [0], [0], np.array([1j]))

    def test_row_slice(self, rng):
        a = random_csr(rng, 8, 4)
        top = a.row_slice(0, 3)
        bottom = a.row_slice(3, 8)
        assert np.array_equal(top.to_dense(), a.to_dense()[:3])
        assert np.array_equal(bottom.to_dense(), a.to_dense()[3:])


class TestSpmv:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(spmv(rectangular_identity_csr(3, 3), x), x)

    def test_empty_pattern_gives_zero(self):
        a = SparseMatrixCsr.from_triplets(3, 3, [], [], [])
        assert np.array_equal(spmv(a, np.array([1.0, -2.0, 5.0])), np.zeros(3))

    def test_two_by_two_against_loop_oracle(self):
        a = SparseMatrixCsr.from_triplets(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0])
        x = np.array([1.0, -1.0])
        expected = spmv_oracle(a.to_dense(), x)
        assert np.array_equal(expected, np.array([-1.0, -1.0]))
        assert np.array_equal(spmv(a, x), expected)

    def test_random_against_loop_oracle(self, rng):
        for _ in range(10):
            a = random_csr(rng, 6, 9)
            x = rng.standard_normal(9)
            np.testing.assert_allclose(spmv(a, x), spmv_oracle(a.to_dense(), x), rtol=1e-14, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmv(rectangular_identity_csr(3, 3), np.ones(4))


class TestSpmvTranspose:
    def test_identity(self):
        x = np.array([4.0, 5.0, 6.0])
        assert np.array_equal(spmv_transpose(rectangular_identity_csr(3, 3), x), x)

    def test_two_by_two_against_loop_oracle(self):
        a = SparseMatrixCsr.from_triplets(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0])
        x = np.array([1.0, -1.0])
        expected = spmv_oracle(a.to_dense().T, x)
        assert np.array_equal(expected, np.array([-2.0, -2.0]))
        assert np.array_equal(spmv_transpose(a, x), expected)

    def test_adjoint_identity_hundred_instances(self, rng):
        for _ in range(100):
            a = random_csr(rng, 7, 4)
            x = rng.standard_normal(4)
            y = rng.standard_normal(7)
            lhs = spmv(a, x) @ y
            rhs = x @ spmv_transpose(a, y)
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1e-30)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmv_transpose(rectangular_identity_csr(3, 3), np.ones(4))


class TestMatmul:
    def test_products_match_dense(self, rng):
        for _ in range(20):
            a = random_csr(rng, 7, 4)
            x, y = rng.standard_normal(4), rng.standard_normal(7)
            np.testing.assert_allclose(a @ x, a.to_dense() @ x, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(y @ a, a.to_dense().T @ y, rtol=1e-14, atol=1e-14)

    def test_vector_times_csr_is_a_float_array(self, rng):
        a = random_csr(rng, 5, 3)
        out = np.ones(5, dtype=np.int64) @ a
        assert type(out) is np.ndarray
        assert out.dtype == np.float64 and out.shape == (3,)

    def test_misshapen_block_operand_rejected(self, rng):
        # (3, k) blocks multiply A, (k, 5) blocks multiply it from the left;
        # no other shape does.
        a = random_csr(rng, 5, 3)
        for shape in [(5, 2), (3, 0), (3, 2, 1)]:
            with pytest.raises(ValueError, match=rf"^operand has length {re.escape(str(shape))}, expected \(3, k\)"):
                a @ np.ones(shape)
        for shape in [(2, 3), (0, 5)]:
            with pytest.raises(ValueError, match=rf"^operand has shape {re.escape(str(shape))}, expected \(k, 5\)"):
                np.ones(shape) @ a


class TestCachedRowIndex:
    """The row index of the stored entries is computed once per matrix;
    every way of making a matrix must give it one that fits."""

    def check_products(self, a, rng):
        x, y = rng.standard_normal(a.n_cols), rng.standard_normal(a.n_rows)
        np.testing.assert_allclose(a @ x, a.to_dense() @ x, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(y @ a, a.to_dense().T @ y, rtol=1e-14, atol=1e-14)

    def test_writing_into_triplets_leaves_products_unchanged(self, rng):
        a = random_csr(rng, 7, 4)
        x = rng.standard_normal(4)
        before = a @ x
        for arr in a.to_triplets():
            arr[:] = 0
        assert np.array_equal(a @ x, before)

    def test_row_slice(self, rng):
        a = random_csr(rng, 9, 5)
        for start, stop in ((0, 4), (3, 9), (2, 2)):
            self.check_products(a.row_slice(start, stop), rng)

    def test_normalized_copy(self, rng):
        self.check_products(normalize_to_unit_one_norm(random_csr(rng, 8, 6)), rng)

    def test_empty_leading_and_trailing_rows(self, rng):
        a = SparseMatrixCsr.from_triplets(6, 3, [2, 2, 3], [0, 2, 1], [1.0, -2.0, 3.0])
        assert a.row_offsets.tolist() == [0, 0, 0, 2, 3, 3, 3]
        self.check_products(a, rng)

    def test_zero_rows(self):
        a = SparseMatrixCsr(0, 3, [0], [], [])
        assert (a @ np.ones(3)).shape == (0,)
        assert np.array_equal(np.ones(0) @ a, np.zeros(3))

    def test_products_do_not_rebuild_the_index(self, rng, monkeypatch):
        a = random_csr(rng, 7, 4)

        def no_repeat(*args, **kwargs):
            raise AssertionError("np.repeat called by a product")

        monkeypatch.setattr(np, "repeat", no_repeat)
        self.check_products(a, rng)


def assert_as_constructed(a):
    """``a`` equals the public constructor's matrix on its fields, field by
    field with the row index, and every array of ``a`` is read-only."""
    b = SparseMatrixCsr(a.n_rows, a.n_cols, a.row_offsets, a.col_indices, a.values)
    assert (a.n_rows, a.n_cols) == (b.n_rows, b.n_cols)
    for name in ("row_offsets", "col_indices", "values", "_rows"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name


def interleaved_fold():
    """The folded twin of a problem whose A2 has empty rows 0, 2, 3 and 5 of 7."""
    a2 = SparseMatrixCsr.from_triplets(7, 3, [1, 1, 4, 6], [0, 2, 1, 2], [1.0, -2.0, 3.0, 4.0])
    prob = IlsProblem(np.eye(4, 3), a2, np.ones(4), np.arange(7.0), 1.0)
    twin, empty = _fold(prob)
    assert empty.tolist() == [True, False, True, True, False, True, False]
    return twin.a2


class TestBuiltFromCheckedParts:
    """The package's own matrices skip the constructor's scan, and must be
    what it would have made of their arrays."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: SparseMatrixCsr.from_triplets(3, 4, [0, 0, 2, 2], [1, 3, 0, 2], [1.0, -0.0, 2.0, 3.0]),
            lambda rng: SparseMatrixCsr.from_triplets(3, 4, [2, 0, 2, 0, 2], [0, 1, 0, 3, 2], [1.0, 2.0, -1.0, 0.5, 3.0]),
            lambda rng: SparseMatrixCsr.from_triplets(5, 2, [], [], []),
            lambda rng: random_csr(rng, 9, 6),
            lambda rng: normalize_to_unit_one_norm(random_csr(rng, 8, 6)),
            lambda rng: rectangular_identity_csr(7, 3, 6.0),
            lambda rng: rectangular_identity_csr(2, 5, -1.5),
            lambda rng: rectangular_identity_csr(4, 4, 0.0),
            lambda rng: random_csr(rng, 9, 5).row_slice(3, 8),
            lambda rng: random_csr(rng, 9, 5).row_slice(0, 9),
            lambda rng: random_csr(rng, 9, 5).row_slice(4, 4),
            lambda rng: interleaved_fold(),
        ],
        ids=["ordered-triplets", "shuffled-triplets", "no-triplets", "random", "normalized", "tall-identity",
             "wide-identity", "zero-scale-identity", "row-slice", "whole-slice", "empty-slice", "fold-twin"],
    )
    def test_equals_the_constructors_matrix(self, build, rng):
        assert_as_constructed(build(rng))

    def test_fold_twin_has_its_own_row_index(self):
        # Dropping A2's empty rows renumbers the rows after them.
        a2 = interleaved_fold()
        assert a2.shape == (4, 3)
        assert a2._rows.tolist() == [0, 0, 1, 2]
        want = np.zeros((4, 3))
        want[0, [0, 2]], want[1, 1], want[2, 2] = [1.0, -2.0], 3.0, 4.0
        assert np.array_equal(a2.to_dense(), want)

    @pytest.mark.parametrize("vals", [[1.0, 0.0, -2.0], [1.0, 3.0, -2.0]], ids=["a-zero", "no-zero"])
    def test_ordered_triplets_are_copied_not_sealed(self, vals):
        rows, cols, vals = np.array([0, 1, 1]), np.array([2, 0, 1]), np.array(vals)
        a = SparseMatrixCsr.from_triplets(2, 3, rows, cols, vals)
        assert np.array_equal(a.to_dense(), [[0.0, 0.0, 1.0], [vals[1], -2.0, 0.0]])
        for given in (rows, cols, vals):
            assert given.flags.writeable
            assert not any(np.shares_memory(given, kept) for kept in (a.col_indices, a.values, a._rows))

    def test_normalizing_a_writable_matrix_leaves_its_arrays_writable(self):
        offsets, cols, vals = np.array([0, 1, 2]), np.array([0, 1]), np.array([2.0, 4.0])
        b = normalize_to_unit_one_norm(SparseMatrixCsr(2, 2, offsets, cols, vals))
        assert offsets.flags.writeable and cols.flags.writeable
        assert_as_constructed(b)
        assert np.array_equal(b.to_dense(), np.diag([0.5, 1.0]))


class TestBoundarySizes:
    @pytest.mark.parametrize(
        "n_rows, n_cols, name",
        [(2, -1, "n_cols"), (-1, 2, "n_rows"), (2.5, 3, "n_rows"), (2, 3.0, "n_cols"), (True, 2, "n_rows")],
    )
    def test_from_triplets_refuses_a_bad_size(self, n_rows, n_cols, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SparseMatrixCsr.from_triplets(n_rows, n_cols, [], [], [])

    @pytest.mark.parametrize(
        "n_rows, n_cols, name",
        [(3, -2, "n_cols"), (-3, 2, "n_rows"), (2.5, 3, "n_rows"), (2, np.float64(3.0), "n_cols")],
    )
    def test_rectangular_identity_refuses_a_bad_size(self, n_rows, n_cols, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            rectangular_identity_csr(n_rows, n_cols)

    def test_zero_and_numpy_integer_sizes_are_accepted(self):
        for a in (SparseMatrixCsr.from_triplets(np.int64(0), 3, [], [], []), rectangular_identity_csr(0, np.int32(2))):
            assert a.shape == (0, a.n_cols) and a.nnz == 0
            assert_as_constructed(a)


def test_building_a_stand_in_problem_scans_no_structure(tmp_path, monkeypatch):
    # Read from Matrix Market, normalized, augmented with the 10,000-row
    # identity, with four preconditioners and the fold's twin: every CSR
    # matrix on the way is built from checked parts.
    rng = np.random.default_rng(1234)
    rows, cols = np.nonzero(np.abs(np.subtract.outer(np.arange(60), np.arange(60))) <= 2)
    path = tmp_path / "standin.mtx"
    write_matrix_market(SparseMatrixCsr.from_triplets(60, 60, rows, cols, rng.standard_normal(rows.size)), path)
    scans = []
    scan = SparseMatrixCsr.__post_init__
    monkeypatch.setattr(SparseMatrixCsr, "__post_init__", lambda self: scans.append(self.shape) or scan(self))

    def no_lexsort(*args):
        raise AssertionError("triplets in (row, col) order were sorted")

    monkeypatch.setattr(np, "lexsort", no_lexsort)
    prob = generate_augmented_problem(normalize_to_unit_one_norm(read_matrix_market(path)), 10000)
    for kind in IBS_VARIANTS:
        make_preconditioner(kind, prob, inner="cg")
    assert _fold(prob) is not None and build_rhs(prob).shape == (prob.size,)
    assert scans == []
    SparseMatrixCsr(2, 2, [0, 1, 1], [1], [1.0])  # the spy sees a public construction
    assert scans == [(2, 2)]


class TestOneNorm:
    def test_identity(self):
        assert one_norm(rectangular_identity_csr(5, 5)) == 1.0

    def test_small_example(self):
        a = SparseMatrixCsr.from_triplets(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, -2.0, 3.0, 4.0])
        assert one_norm(a) == 6.0

    def test_normalized_matrix_has_unit_norm(self, rng):
        for _ in range(10):
            a = random_csr(rng, 9, 6)
            assert abs(one_norm(normalize_to_unit_one_norm(a)) - 1.0) <= 1e-15


class TestNormalize:
    def test_unit_norm_is_fixed_point(self):
        a = rectangular_identity_csr(4, 4)
        assert normalize_to_unit_one_norm(a) is a

    def test_scaled_identity(self):
        a = rectangular_identity_csr(2, 2, scale=2.0)
        b = normalize_to_unit_one_norm(a)
        assert np.array_equal(b.to_dense(), np.eye(2))

    def test_zero_matrix_rejected(self):
        a = SparseMatrixCsr.from_triplets(2, 2, [], [], [])
        with pytest.raises(DegenerateMatrixError):
            normalize_to_unit_one_norm(a)


class TestRectangularIdentity:
    def test_tall_pattern(self):
        a = rectangular_identity_csr(5, 3, scale=6.0)
        assert a.nnz == 3
        dense = np.zeros((5, 3))
        dense[range(3), range(3)] = 6.0
        assert np.array_equal(a.to_dense(), dense)

    def test_wide_pattern(self):
        a = rectangular_identity_csr(2, 4, scale=-1.5)
        assert a.nnz == 2
        assert a.to_dense()[1, 1] == -1.5

    def test_zero_scale_gives_empty_pattern(self):
        a = rectangular_identity_csr(4, 4, scale=0.0)
        assert a.nnz == 0
