import numpy as np
import pytest

from ilsolve import (
    DegenerateMatrixError,
    SparseMatrixCsr,
    identity_csr,
    normalize_to_unit_one_norm,
    one_norm,
    rectangular_identity_csr,
    spmv,
    spmv_transpose,
)

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

    def test_row_slice(self, rng):
        a = random_csr(rng, 8, 4)
        top = a.row_slice(0, 3)
        bottom = a.row_slice(3, 8)
        assert np.array_equal(top.to_dense(), a.to_dense()[:3])
        assert np.array_equal(bottom.to_dense(), a.to_dense()[3:])


class TestSpmv:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(spmv(identity_csr(3), x), x)

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
            spmv(identity_csr(3), np.ones(4))


class TestSpmvTranspose:
    def test_identity(self):
        x = np.array([4.0, 5.0, 6.0])
        assert np.array_equal(spmv_transpose(identity_csr(3), x), x)

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
            spmv_transpose(identity_csr(3), np.ones(4))


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

    def test_two_dimensional_operand_rejected(self, rng):
        a = random_csr(rng, 5, 3)
        with pytest.raises(ValueError, match="operand"):
            a @ np.ones((3, 2))
        with pytest.raises(ValueError, match="operand"):
            np.ones((2, 5)) @ a


class TestOneNorm:
    def test_identity(self):
        assert one_norm(identity_csr(5)) == 1.0

    def test_small_example(self):
        a = SparseMatrixCsr.from_triplets(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, -2.0, 3.0, 4.0])
        assert one_norm(a) == 6.0

    def test_normalized_matrix_has_unit_norm(self, rng):
        for _ in range(10):
            a = random_csr(rng, 9, 6)
            assert abs(one_norm(normalize_to_unit_one_norm(a)) - 1.0) <= 1e-15


class TestNormalize:
    def test_unit_norm_is_fixed_point(self):
        a = identity_csr(4)
        assert normalize_to_unit_one_norm(a) is a

    def test_scaled_identity(self):
        a = identity_csr(2, scale=2.0)
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
