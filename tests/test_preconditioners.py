"""Circulant and banded preconditioners: construction, contracts, effect."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from templap import (
    Grid,
    SchemeParams,
    assemble_operator,
    build_band_compensated_ichol,
    build_tchan_precond,
    materialize_dense,
    pcg_solve,
)
from templap import preconditioners
from templap.assembly import OperatorMatrix
from templap.preconditioners import tchan_column
from templap.solvers import _numpy_openblas

EPS = np.finfo(float).eps


def compensated_band(P):
    """Dense G = U^T U from the banded Cholesky factor's upper storage."""
    k = P.bandwidth
    U = np.zeros((P.upper_factor.shape[1],) * 2)
    for j in range(k + 1):
        U += np.diag(P.upper_factor[k - j, j:], j)
    return U.T @ U


def example_op(beta=0.5, lam=0.5, M=255):
    s, s1 = (0, 0) if beta < 1 else (1, 1)
    grid = Grid(0.0, 1.0, M)
    return assemble_operator(SchemeParams(beta=beta, lam=lam, s=s, s1=s1), grid)


def unfactored_band(op, P):
    """The compensated band matrix G in LAPACK upper band storage."""
    k = P.bandwidth
    band = np.zeros((k + 1, op.M))
    band[k] = op.diag + P.compensation
    for j in range(1, k + 1):
        band[k - j, j:] = op.toeplitz_col[j]
    return band


@pytest.fixture(params=["openblas", "scipy"])
def route(request, monkeypatch):
    """Run the banded preconditioner on numpy's OpenBLAS or on scipy.linalg."""
    if request.param == "scipy":
        monkeypatch.setattr(preconditioners, "_numpy_openblas", lambda: None)
    elif getattr(_numpy_openblas(), "scipy_dpbtrf_64_", None) is None:
        pytest.skip("numpy ships no OpenBLAS with dpbtrf")
    return request.param


class TestTChanColumn:
    def test_four_point_example(self):
        c = tchan_column(np.array([2.0, 1.0, 0.5, 0.25]))
        np.testing.assert_allclose(c, [2.0, 0.8125, 0.5, 0.8125], rtol=1e-15)

    def test_constant_column_is_fixed_point(self):
        np.testing.assert_allclose(tchan_column(np.ones(7)), np.ones(7), rtol=1e-15)

    @pytest.mark.parametrize("M", [7, 255, 8191])
    def test_column_is_a_palindrome_bit_for_bit(self, M):
        # build_tchan_precond drops the imaginary part of the spectrum
        # unchecked; it is rounding only because c_k == c_{M-k} bit for bit.
        def assert_palindrome(c):
            np.testing.assert_array_equal(c[1:], c[1:][::-1])

        for beta in (0.05, 0.5, 1.0, 1.5, 1.95):
            for lam in (0.0, 3.0, 100.0):
                op = example_op(beta=beta, lam=lam, M=M)
                g = op.toeplitz_col.copy()
                g[0] = op.diag.mean()
                assert_palindrome(tchan_column(g))
        rng = np.random.default_rng(M)
        for _ in range(20):
            assert_palindrome(tchan_column(rng.standard_normal(M)
                                           * 10.0 ** rng.uniform(-8.0, 8.0, M)))


def assert_inverts_circulant(C, seed=0):
    B = scipy.linalg.circulant(C.first_col)
    v = np.random.default_rng(seed).standard_normal(C.M)
    np.testing.assert_allclose(C.apply(B @ v), v, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(B @ C.apply(v), v, rtol=1e-12, atol=1e-12)


class TestCirculant:
    @pytest.mark.parametrize("M", [254, 255, 256, 257, 1021])
    def test_apply_inverts_circulant(self, M):
        C = build_tchan_precond(example_op(M=M))
        assert_inverts_circulant(C, seed=M)

    def test_inverse_follows_from_M_alone(self):
        C = build_tchan_precond(example_op(M=8191))
        rebuilt = type(C)(first_col=C.first_col, spectrum=C.spectrum)
        np.testing.assert_array_equal(rebuilt.inverse.first_col, C.inverse.first_col)
        with pytest.raises(TypeError):
            type(C)(first_col=C.first_col, spectrum=C.spectrum, inverse=None)

    @pytest.mark.parametrize("M", [4095, 8191])  # composite 3^2*5*7*13, prime
    def test_toeplitz_inverse_matches_spectral_division(self, M):
        op = example_op(M=M)
        C = build_tchan_precond(op)
        v = np.random.default_rng(1).standard_normal(op.M)
        ref = np.fft.irfft(np.fft.rfft(v) / C.spectrum, n=op.M)
        x = C.apply(v)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("M", [511, 1024, 2047, 4095, 8191, 16383])
    def test_apply_transform_lengths(self, M, monkeypatch):
        # Every apply, at composite and prime M alike, is a product through
        # power-of-two transforms of length >= 2M, never a length-M one.
        C = build_tchan_precond(example_op(M=M))
        v = np.random.default_rng(2).standard_normal(M)
        lengths = []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def recording(fft):
            def call(a, n=None, *args, **kwargs):
                lengths.append(len(a) if n is None else n)
                return fft(a, n, *args, **kwargs)
            return call

        monkeypatch.setattr(np.fft, "rfft", recording(rfft))
        monkeypatch.setattr(np.fft, "irfft", recording(irfft))
        C.apply(v)
        monkeypatch.undo()
        assert lengths and all(n & (n - 1) == 0 and n >= 2 * M for n in lengths), lengths

    def test_spectrum_strictly_positive(self):
        for beta in (0.5, 1.0, 1.5):
            op = example_op(beta=beta, lam=3.0)
            C = build_tchan_precond(op)
            assert np.all(C.spectrum > 0.0)

    def test_indefinite_surrogate_rejected_with_index(self):
        from templap.assembly import OperatorMatrix

        grid = Grid(0.0, 1.0, 8)
        params = SchemeParams(beta=0.5, s=0, s1=0)
        col = np.zeros(8)
        col[1] = -5.0  # dominates the tiny averaged diagonal: indefinite circulant
        zeros = np.zeros(8)
        doctored = OperatorMatrix(diag=np.full(8, 0.1), toeplitz_col=col,
                                  tails=zeros, params=params, grid=grid)
        with pytest.raises(ValueError, match="index"):
            build_tchan_precond(doctored)

    def test_eigenvalue_clustering_quantified(self):
        op = example_op(beta=0.5, lam=0.5, M=255)
        C = build_tchan_precond(op)
        H = materialize_dense(op)
        B = scipy.linalg.circulant(C.first_col)
        B = (B + B.T) / 2.0
        ev = scipy.linalg.eigvalsh(H, B)
        fraction = np.mean((ev >= 0.5) & (ev <= 1.5))
        assert fraction >= 0.90


class TestBandedCholesky:
    def test_row_sum_compensation(self):
        op = example_op(beta=0.5, lam=0.5, M=255)
        P = build_band_compensated_ichol(op, k=10)
        ones = np.ones(op.M)
        np.testing.assert_allclose(compensated_band(P) @ ones, op.matvec(ones),
                                   rtol=1e-12)

    # k = M - 1 at M = 8191 is left out: its band is a dense 8191 x 8191 matrix.
    @pytest.mark.parametrize("M, k", [(M, k) for M in (31, 32, 511, 8191)
                                      for k in (1, 3, 10, M - 1) if (M, k) != (8191, 8190)])
    def test_apply_without_finite_check_is_bit_identical(self, route, M, k):
        op = example_op(beta=1.5, lam=0.5, M=M)
        P = build_band_compensated_ichol(op, k=k)
        factor = scipy.linalg.cholesky_banded(unfactored_band(op, P), lower=False)
        np.testing.assert_array_equal(P.upper_factor, factor)
        v = np.random.default_rng(3).standard_normal(op.M)
        checked = scipy.linalg.cho_solve_banded((factor, False), v)
        v_before = v.copy()
        np.testing.assert_array_equal(P.apply(v), checked)
        np.testing.assert_array_equal(v, v_before)  # apply leaves v alone

    def test_fallback_runs_on_scipy_linalg_with_the_same_bits(self, monkeypatch):
        op = example_op(beta=1.5, lam=0.5, M=511)
        v = np.random.default_rng(4).standard_normal(op.M)
        P = build_band_compensated_ichol(op, k=10)
        calls = []

        def spy(name):
            real = getattr(scipy.linalg, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        monkeypatch.setattr(preconditioners, "_numpy_openblas", lambda: None)
        for name in ("cholesky_banded", "get_lapack_funcs"):
            monkeypatch.setattr(scipy.linalg, name, spy(name))
        fallback = build_band_compensated_ichol(op, k=10)
        assert calls == ["cholesky_banded", "get_lapack_funcs"]
        np.testing.assert_array_equal(fallback.upper_factor, P.upper_factor)
        np.testing.assert_array_equal(fallback.apply(v), P.apply(v))

    def test_apply_solves_each_column(self, route):
        P = build_band_compensated_ichol(example_op(M=31), k=3)
        V = np.random.default_rng(5).standard_normal((31, 3))
        X = P.apply(V)
        for j in range(3):
            np.testing.assert_array_equal(X[:, j], P.apply(V[:, j]))

    def test_apply_rejects_a_mismatched_right_hand_side(self):
        P = build_band_compensated_ichol(example_op(M=31), k=3)
        for n in (30, 32):
            with pytest.raises(ValueError, match="shape"):
                P.apply(np.ones(n))

    def test_nonfinite_factor_rejected_at_construction(self):
        from templap import BandedCholPrecond

        P = build_band_compensated_ichol(example_op(M=31), k=3)
        bad = P.upper_factor.copy()
        bad[1, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            BandedCholPrecond(P.bandwidth, bad, P.compensation)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_factor_diagonal_rejected_at_construction(self, value):
        from templap import BandedCholPrecond

        P = build_band_compensated_ichol(example_op(M=31), k=3)
        bad = P.upper_factor.copy()
        bad[3, 4] = value  # row k holds the diagonal
        with pytest.raises(ValueError, match="positive diagonal"):
            BandedCholPrecond(P.bandwidth, bad, P.compensation)

    def test_former_attribute_name_reads_the_factor(self):
        # perfbench/tracing.py reads M from lower_factor.shape[1].
        P = build_band_compensated_ichol(example_op(M=31), k=3)
        assert P.lower_factor is P.upper_factor

    def test_full_bandwidth_is_exact_inverse(self):
        op = example_op(beta=0.5, lam=1.0, M=32)
        P = build_band_compensated_ichol(op, k=op.M - 1)
        F = np.linspace(1.0, 2.0, op.M)
        _, rep = pcg_solve(op, F, P, tol=1e-10)
        assert rep.iterations <= 3

    def test_bandwidth_contract(self):
        op = example_op(M=31)
        for bad in (0, 31, 40):
            with pytest.raises(ValueError):
                build_band_compensated_ichol(op, k=bad)

    @staticmethod
    def sick_op(diag, col):
        zeros = np.zeros(diag.size)
        return OperatorMatrix(diag=diag, toeplitz_col=col, tails=zeros,
                              params=SchemeParams(beta=0.5, s=0, s1=0),
                              grid=Grid(0.0, 1.0, diag.size))

    def test_nonpositive_pivot_raises(self, route):
        col = np.zeros(8)
        col[1] = -2.0
        with pytest.raises(ValueError, match="pivot"):
            build_band_compensated_ichol(self.sick_op(np.full(8, 0.5), col), k=2)

    def test_nan_diagonal_raises(self, route):
        op = example_op(M=31)
        diag = op.diag.copy()
        diag[7] = np.nan
        with pytest.raises(ValueError):
            build_band_compensated_ichol(self.sick_op(diag, op.toeplitz_col), k=3)

    # beta from 1e-12 up: below about 1e-15 the assembled diagonal itself
    # rounds to negative values (-2.5e-17 at beta = 1e-20), so no H is s.p.d.
    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(beta=st.one_of(st.floats(1e-12, 2.0, exclude_max=True), st.floats(1e-12, 1e-3),
                          st.floats(1.0 - 1e-3, 1.0 + 1e-3),
                          st.floats(2.0 - 1e-3, 2.0, exclude_max=True)),
           lam=st.floats(0.0, 300.0, allow_subnormal=False), M=st.integers(3, 600),
           both_selectors=st.booleans(), data=st.data())
    def test_banded_route_anywhere(self, beta, lam, M, both_selectors, data):
        k = data.draw(st.integers(1, min(M - 1, 20)), label="k")
        s, s1 = (1, 1) if both_selectors else (0, 0) if beta < 1.0 else (0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # beta within 1e-6 of 1
            op = assemble_operator(SchemeParams(beta=beta, lam=lam, s=s, s1=s1),
                                   Grid(0.0, 1.0, M))
        P = build_band_compensated_ichol(op, k=k)
        H = materialize_dense(op)
        lag = np.abs(np.subtract.outer(np.arange(M), np.arange(M)))
        G = np.where(lag <= k, H, 0.0) + np.diag(P.compensation)
        scale = EPS * H.diagonal().max()
        # Cholesky's backward error is at most (k + 2) eps |U^T| |U|, and
        # |U^T| |U| <= max g_ii <= max h_ii entrywise.  Measured over 600
        # random examples (all four bounds held on 1500 more): worst 5.0 eps
        # max h_ii, at k = 20.
        assert np.abs(compensated_band(P) - G).max() <= (k + 2) * scale
        # Measured worst 11.7 eps max h_ii (beta = 1.999, M = 600).
        e = np.ones(M)
        assert np.abs(G @ e - H @ e).max() <= 32.0 * scale
        # Forward error of a backward-stable solve: measured worst
        # 2.1 eps cond(G).
        v = np.random.default_rng(M).standard_normal(M)
        want = np.linalg.solve(G, v)
        ev = np.linalg.eigvalsh(G)
        assert np.linalg.norm(P.apply(v) - want) <= 8.0 * EPS * ev[-1] / ev[0] \
            * np.linalg.norm(want)
        # ||x - x*|| <= cond(H) ||r|| / ||F|| ||x*||; measured worst 0.71 of it.
        F = np.linspace(1.0, 2.0, M)
        x, rep = pcg_solve(op, F, P, tol=1e-10)
        want = np.linalg.solve(H, F)
        ev = np.linalg.eigvalsh(H)
        assert rep.converged
        assert np.linalg.norm(x - want) <= ev[-1] / ev[0] * 1e-10 * np.linalg.norm(want)

    def test_conditioning_improvement(self):
        op = example_op(beta=0.5, lam=0.5, M=255)
        P = build_band_compensated_ichol(op, k=10)
        H = materialize_dense(op)
        ev_h = np.linalg.eigvalsh(H)
        ev = scipy.linalg.eigvalsh(H, compensated_band(P))
        cond_raw = ev_h[-1] / ev_h[0]
        cond_pre = ev[-1] / ev[0]
        assert cond_raw / cond_pre >= 10.0


class TestEndToEnd:
    def test_circulant_iteration_counts_flat_across_levels(self):
        # The smooth-solution benchmark at beta = 0.5, lam = 0.5 takes eleven
        # circulant-preconditioned iterations, essentially independent of M.
        from templap import example1_f

        p = SchemeParams(beta=0.5, lam=0.5, s=0, s1=0)
        for J in (12, 13, 14):
            grid = Grid(0.0, 1.0, 2 ** J - 1)
            op = assemble_operator(p, grid)
            _, rep = pcg_solve(op, example1_f(p, grid), build_tchan_precond(op),
                               tol=1e-9)
            assert rep.converged
            assert abs(rep.iterations - 11) <= 3, (J, rep.iterations)

    def test_both_preconditioners_beat_plain_cg(self):
        op = example_op(beta=1.5, lam=0.5, M=511)
        F = np.ones(op.M)
        _, plain = pcg_solve(op, F, None, tol=1e-9)
        _, ic = pcg_solve(op, F, build_band_compensated_ichol(op, 10), tol=1e-9)
        _, tc = pcg_solve(op, F, build_tchan_precond(op), tol=1e-9)
        assert ic.iterations < plain.iterations
        assert tc.iterations < plain.iterations
        assert plain.converged and ic.converged and tc.converged
