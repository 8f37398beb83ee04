"""FFT Toeplitz products against dense linear algebra."""

import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from templap import Grid, OperatorMatrix, SchemeParams, assemble_operator, materialize_dense
from templap.toeplitz import SymToeplitz

EPS = np.finfo(float).eps
SRC = Path(__file__).resolve().parents[1] / "src"


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

    @pytest.mark.parametrize("M", [8191, 16383])
    def test_product_rounds_spectrum_first(self, M):
        # One rounding order at every length, spectrum * rfft(v).  An
        # out-of-place product let numpy elide the rfft temporary from
        # 256 KiB (L = 2^15) on and round it as rfft(v) * spectrum there; on
        # an FMA host the two orders differ in about a third of the entries.
        rng = np.random.default_rng(M)
        T = SymToeplitz(rng.standard_normal(M))
        v = rng.standard_normal(M)
        L = 2 * (M + 1)
        want = np.fft.irfft(np.multiply(T.spectrum, np.fft.rfft(v, n=L)), n=L)[:M]
        np.testing.assert_array_equal(T.matvec(v), want)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
    def test_products_take_no_page_faults(self):
        # A fresh process, so no earlier allocation has raised glibc's mmap
        # threshold.  Without the block that SymToeplitz.__init__ frees, every
        # product mapped fresh pages: 320 minor faults at M = 16383 and 704 at
        # M = 32767.  The first product grows the heap and is not counted.
        code = ("import resource\n"
                "import numpy as np\n"
                "from templap.toeplitz import SymToeplitz\n"
                "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "for M in (16383, 32767):\n"
                "    T = SymToeplitz(1.0 / np.arange(1.0, M + 1.0))\n"
                "    v = np.ones(M)\n"
                "    T.matvec(v)\n"
                "    before = faults()\n"
                "    for _ in range(50):\n"
                "        T.matvec(v)\n"
                "    print((faults() - before) / 50)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        per_product = [float(line) for line in out.splitlines()]
        assert len(per_product) == 2
        assert max(per_product) <= 1.0, per_product


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

    def test_result_owns_m_floats(self, op):
        out = op.matvec(np.ones(op.M))
        assert out.flags.owndata and out.shape == (op.M,)

    def test_nonzero_lag_zero_rejected(self, op):
        col = op.toeplitz_col.copy()
        col[0] = 1.0
        doctored = OperatorMatrix(diag=op.diag, toeplitz_col=col, tails=op.tails,
                                  params=op.params, grid=op.grid)
        with pytest.raises(ValueError, match="lag 0"):
            doctored.matvec(np.ones(op.M))

    # beta keeps 1e-12 away from 1, except 1 itself: within about 2e-13 of
    # 1 the (1, 1) pair weights lose their sign (see
    # tests/test_assembly.py::TestMatrixStructure).
    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(beta=st.one_of(st.floats(1e-12, 2.0, exclude_max=True), st.floats(1e-12, 1e-3),
                          st.floats(1.0 - 1e-3, 1.0 + 1e-3),
                          st.floats(2.0 - 1e-3, 2.0, exclude_max=True)).filter(
                              lambda b: b == 1.0 or abs(b - 1.0) >= 1e-12),
           lam=st.floats(0.0, 300.0, allow_subnormal=False), M=st.integers(3, 600),
           both_selectors=st.booleans())
    def test_matvec_and_sign_pattern_anywhere(self, beta, lam, M, both_selectors):
        s, s1 = (1, 1) if both_selectors else (0, 0) if beta < 1.0 else (0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # beta within 1e-6 of 1
            op = assemble_operator(SchemeParams(beta=beta, lam=lam, s=s, s1=s1),
                                   Grid(0.0, 1.0, M))
        H = materialize_dense(op)
        assert np.all(H[~np.eye(M, dtype=bool)] < 0.0)
        assert np.all(op.diag > 0.0)
        # ||H||_inf >= ||H||_2 for symmetric H.  Measured worst 2.1 of
        # eps ||H||_inf ||v|| over 6000 examples (beta = 1e-12, M = 579).
        v = np.random.default_rng(M).standard_normal(M)
        scale = EPS * np.abs(H).sum(axis=1).max() * np.linalg.norm(v)
        assert np.linalg.norm(op.matvec(v) - H @ v) <= 4.0 * scale
