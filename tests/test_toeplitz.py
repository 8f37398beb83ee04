"""FFT Toeplitz products against dense linear algebra."""

import numpy as np
import pytest
import scipy.linalg

from templap import Grid, SchemeParams, assemble_operator, materialize_dense
from templap.toeplitz import SymToeplitz


class TestSymToeplitz:
    def test_identity_column(self):
        T = SymToeplitz(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        v = np.array([3.0, -1.0, 2.0, 0.5, 7.0])
        np.testing.assert_allclose(T.matvec(v), v, atol=1e-14)

    def test_rank_structure_all_ones(self):
        T = SymToeplitz(np.ones(3))
        np.testing.assert_allclose(T.matvec(np.ones(3)), [3.0, 3.0, 3.0], rtol=1e-14)

    def test_random_against_dense(self):
        rng = np.random.default_rng(42)
        col = rng.standard_normal(256)
        T = SymToeplitz(col)
        dense = scipy.linalg.toeplitz(col)
        for _ in range(5):
            v = rng.standard_normal(256)
            got, want = T.matvec(v), dense @ v
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_length_mismatch(self):
        T = SymToeplitz(np.ones(4))
        with pytest.raises(ValueError):
            T.matvec(np.ones(5))


@pytest.fixture(scope="module")
def op():
    grid = Grid(0.0, 1.0, 128)
    return assemble_operator(SchemeParams(beta=0.8, lam=1.5, s=1, s1=1), grid)


class TestOperatorMatvec:
    def test_unit_vectors_reproduce_columns(self, op):
        dense = materialize_dense(op)
        for i in (0, 1, 64, 127):
            e = np.zeros(op.M)
            e[i] = 1.0
            np.testing.assert_allclose(op.matvec(e), dense[:, i],
                                       rtol=1e-12, atol=1e-14)

    def test_linearity(self, op):
        rng = np.random.default_rng(1)
        v, w = rng.standard_normal(op.M), rng.standard_normal(op.M)
        alpha = 0.731
        left = op.matvec(alpha * v + w)
        right = alpha * op.matvec(v) + op.matvec(w)
        assert np.linalg.norm(left - right) <= 1e-13 * np.linalg.norm(right)

    def test_self_adjointness(self, op):
        rng = np.random.default_rng(2)
        v, w = rng.standard_normal(op.M), rng.standard_normal(op.M)
        hv_w = float(op.matvec(v) @ w)
        v_hw = float(v @ op.matvec(w))
        assert hv_w == pytest.approx(v_hw, rel=1e-12)
