import numpy as np
import pytest

from ilsolve import LinearOperator, aslinearoperator

from conftest import random_csr


def test_csr_adapter_matches_dense(rng):
    a = random_csr(rng, 6, 4)
    op = aslinearoperator(a)
    x = rng.standard_normal(4)
    y = rng.standard_normal(6)
    assert np.allclose(op.apply(x), a.to_dense() @ x, rtol=1e-14, atol=1e-14)
    assert np.allclose(op.apply_transpose(y), a.to_dense().T @ y, rtol=1e-14, atol=1e-14)


def test_ndarray_adapter(rng):
    m = rng.standard_normal((3, 5))
    op = aslinearoperator(m)
    assert op.shape == (3, 5)
    x = rng.standard_normal(5)
    assert np.array_equal(op.apply(x), m @ x)


def test_linearity(rng):
    m = rng.standard_normal((4, 4))
    op = aslinearoperator(m)
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    lhs = op.apply(2.0 * u - 3.0 * v)
    rhs = 2.0 * op.apply(u) - 3.0 * op.apply(v)
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def test_shape_mismatch_raises():
    op = aslinearoperator(np.eye(3))
    with pytest.raises(ValueError):
        op.apply(np.ones(4))


def test_missing_transpose_raises():
    op = LinearOperator(2, 2, lambda v: v)
    with pytest.raises(NotImplementedError):
        op.apply_transpose(np.ones(2))


def test_aslinearoperator_rejects_vectors():
    with pytest.raises(TypeError):
        aslinearoperator(np.ones(3))
