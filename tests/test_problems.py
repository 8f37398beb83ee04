"""Benchmark problem setups: sources, exterior data, exact solutions."""

import itertools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from templap import (
    BoundarySpec,
    Grid,
    SchemeParams,
    assemble_operator,
    assemble_rhs,
    example1_exact,
    example1_f,
    example2_setup,
    example3_exact,
    example3_setup,
    materialize_dense,
    reference_apply_operator,
)
from templap import problems, tail_profile
from templap.assembly import _exterior_loads
from templap.problems import EXAMPLE2_SUPPORT, example2_extension
from templap.tails import expint


def example2_second_difference(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exact 2u(x) - u(x-t) - u(x+t) for the interior quartic (x+-t inside)."""
    u2 = 2.0 - 12.0 * x + 12.0 * x * x
    return -(u2 + 2.0 * t * t) * t * t


def example2_oracle(params, grid):
    """Problem 2's source from the reference operator on the lower half of the nodes.

    With the exact second difference the reference operator has no rounding
    floor in its near field; on the upper half its far field reads about
    1.7e-14 of max|f| worse, and the source there is a mirror image.
    """
    x = grid.interior[:(grid.M + 1) // 2]
    return reference_apply_operator(example2_extension, x, params, 0.0, 1.0,
                                    support=EXAMPLE2_SUPPORT,
                                    second_difference=example2_second_difference)


def source_gap(params, grid):
    """max |f - oracle| / max |oracle| over the lower half of the nodes.

    The denominator is at least the smallest normal float: at beta near
    2.2e-308, c_beta and so f are subnormal, and hold only an absolute error.
    """
    want = example2_oracle(params, grid)
    got = example2_setup(params, grid)[0][:want.size]
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), sys.float_info.min)


def quiet_params(beta, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # beta within 1e-6 of 1
        return SchemeParams(beta=beta, lam=lam, s=1, s1=1)


class TestProblem1:
    def test_requires_unit_interval(self):
        p = SchemeParams(beta=0.5, s=0, s1=0)
        with pytest.raises(ValueError):
            example1_f(p, Grid(0.0, 2.0, 7))

    def test_zero_exterior_means_plain_load(self):
        p = SchemeParams(beta=1.5, lam=3.0, s=1, s1=1)
        grid = Grid(0.0, 1.0, 31)
        f = example1_f(p, grid)
        F = assemble_rhs(f, BoundarySpec(), p, grid)
        np.testing.assert_array_equal(F, f)

    @pytest.mark.parametrize("beta,lam,s,s1", [
        (0.5, 0.0, 0, 0), (0.5, 0.5, 1, 1), (1.0, 0.0, 1, 1),
        (1.0, 3.0, 0, 1), (1.5, 0.0, 0, 1),
    ])
    def test_solving_recovers_exact_solution(self, beta, lam, s, s1):
        p = SchemeParams(beta=beta, lam=lam, s=s, s1=s1)
        grid = Grid(0.0, 1.0, 127)
        op = assemble_operator(p, grid)
        U = np.linalg.solve(materialize_dense(op), example1_f(p, grid))
        err = np.max(np.abs(U - example1_exact(grid.interior)))
        assert err < 5e-3  # coarse-grid sanity; rates are checked elsewhere


def two_sweep_example1_f(params, grid):
    """example1_f with every right-side term evaluated on 1 - x by its own sweep."""
    beta, lam = params.beta, params.lam
    x = grid.interior
    u = example1_exact(x)
    up = 2.0 * x - 3.0 * x * x
    tails = tail_profile(x, params) + tail_profile(1.0 - x, params)
    if not params.is_log_case:
        def moments(d):
            return problems._moments(d, tail_profile(d, params), params)

        (m2L, m3L, _), (m2R, m3R, _) = moments(x), moments(1.0 - x)
        cL = 3.0 * x - 1.0 + lam * up / (1.0 - beta)
        cR = 3.0 * x - 1.0 - lam * up / (1.0 - beta)
        f = (u * tails
             + up / (1.0 - beta) * (x ** (1.0 - beta) * np.exp(-lam * x)
                                    - (1.0 - x) ** (1.0 - beta) * np.exp(-lam * (1.0 - x)))
             + (cL * m2L - m3L)
             + (m3R + cR * m2R))
    else:
        if lam == 0.0:
            moment0 = lambda d: d
            moment1 = lambda d: d * d / 2.0
            tail_diff = np.log(x) - np.log(1.0 - x)
        else:
            moment0 = lambda d: -np.expm1(-lam * d) / lam
            moment1 = lambda d: (-np.expm1(-lam * d) - lam * d * np.exp(-lam * d)) / lam ** 2
            tail_diff = expint(1, lam * (1.0 - x)) - expint(1, lam * x)
        f = (u * tails
             + (-moment1(x) + (3.0 * x - 1.0) * moment0(x))
             + (moment1(1.0 - x) + (3.0 * x - 1.0) * moment0(1.0 - x))
             + up * tail_diff)
    return params.cbeta * f


class TestProblem1Mirror:
    @pytest.mark.parametrize("M", [7, 127, 4095])
    @pytest.mark.parametrize("beta, lam, s", [(0.5, 3.0, 0), (1.5, 0.5, 1), (1.0, 0.0, 1),
                                              (1.0, 3.0, 1)])
    def test_source_equals_a_two_sweep_evaluation(self, M, beta, lam, s):
        # With h a power of two, 1 - x is exactly x reversed, so one sweep on
        # x reversed gives the right side's values bit for bit.
        p = SchemeParams(beta=beta, lam=lam, s=s, s1=s)
        grid = Grid(0.0, 1.0, M)
        np.testing.assert_array_equal(example1_f(p, grid), two_sweep_example1_f(p, grid))


class TestProblem2:
    def test_extension_pieces(self):
        y = np.array([-0.6, -0.25, 0.0, 0.5, 1.0, 1.25, 1.6])
        vals = example2_extension(y)
        np.testing.assert_allclose(
            vals, [0.0, 0.5, 0.0, 0.0625, 0.0, 0.5, 0.0], atol=1e-15)

    def test_setup_contracts(self):
        p = SchemeParams(beta=0.5, lam=0.0, s=1, s1=1)
        grid = Grid(0.0, 1.0, 16)
        f, boundary, exact = example2_setup(p, grid)
        assert boundary.u_a == 0.0 and boundary.u_b == 0.0
        assert boundary.support == EXAMPLE2_SUPPORT
        x = grid.interior
        np.testing.assert_allclose(exact, (x - x * x) ** 2, rtol=1e-14)
        np.testing.assert_allclose(f, f[::-1], rtol=1e-12)  # symmetric data

    def test_source_matches_pointwise_reference(self):
        grid = Grid(0.0, 1.0, 16)
        for beta, lam in itertools.product((0.5, 1.0, 1.5), (0.0, 3.0)):
            p = SchemeParams(beta=beta, lam=lam, s=1, s1=1)
            f, _, _ = example2_setup(p, grid)
            for idx, x in enumerate(grid.interior):
                exact_sd = reference_apply_operator(
                    example2_extension, float(x), p, 0.0, 1.0, support=EXAMPLE2_SUPPORT,
                    second_difference=example2_second_difference)
                generic = reference_apply_operator(
                    example2_extension, float(x), p, 0.0, 1.0, support=EXAMPLE2_SUPPORT)
                assert f[idx] == pytest.approx(exact_sd, rel=1e-12), (beta, lam, idx)
                assert f[idx] == pytest.approx(generic, abs=2e-9), (beta, lam, idx)

    def test_source_is_closed_form(self, monkeypatch):
        # The reference operator is the source's oracle, not its path.
        def refuse(*args, **kwargs):
            raise AssertionError("problem 2's source called the reference operator")

        monkeypatch.setattr(problems, "reference_apply_operator", refuse)
        f, _, _ = example2_setup(SchemeParams(beta=1.5, lam=3.0, s=1, s1=1), Grid(0.0, 1.0, 16))
        assert np.all(np.isfinite(f))

    @pytest.mark.parametrize("M", [16, 256, 1024])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 3.0, 30.0, 300.0])
    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.999, 1.0, 1.001, 1.5, 1.95])
    def test_source_matches_the_oracle(self, beta, lam, M):
        # Measured worst 4.2e-14, at beta = 1.95, lam = 300, M = 16, where
        # mpmath puts the oracle's own error at the same size.
        assert source_gap(quiet_params(beta, lam), Grid(0.0, 1.0, M)) <= 1e-13

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(beta=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True, allow_subnormal=False),
           lam=st.floats(0.0, 300.0, allow_subnormal=False), M=st.integers(3, 600))
    def test_source_matches_the_oracle_anywhere(self, beta, lam, M):
        assert source_gap(quiet_params(beta, lam), Grid(0.0, 1.0, M)) <= 1e-13

    def test_exterior_loads_nonnegative(self):
        # Both exterior pieces are nonnegative, so the kernel-weighted loads are too.
        p = SchemeParams(beta=0.5, lam=0.0, s=0, s1=0)
        grid = Grid(0.0, 1.0, 16)
        _, boundary, _ = example2_setup(p, grid)
        left, right = _exterior_loads(boundary, p, grid)
        for i in (1, 8, 16):
            d1, d2 = left[i - 1], right[i - 1]
            assert d1 >= 0.0 and d2 >= 0.0
            assert d1 + d2 > 0.0


class TestKernelMoments:
    # m_k(d) = lam^{beta-k} gamma(k - beta, lam d), from its series at
    # lam d <= 2 and from Gamma(k - beta) minus a tail above; E_p from
    # E_{1+beta} by stepping the order down.
    @pytest.mark.parametrize("beta", [0.01, 0.5, 0.999, 1.0, 1.5, 1.999])
    def test_moments_on_both_sides_of_the_switch(self, beta):
        # lam d from 0.1 to 8; measured worst 3.9e-15.
        lam = 10.0
        p = quiet_params(beta, lam)
        d = np.linspace(0.01, 0.8, 80)
        got = problems._moments(d, tail_profile(d, p), p)
        with mpmath.workdps(30):
            for k, mk in zip((2, 3, 4), got):
                want = [float(mpmath.mpf(lam) ** (beta - k) * mpmath.gammainc(k - beta, 0, lam * di))
                        for di in d]
                np.testing.assert_allclose(mk, want, rtol=8e-15, atol=0.0)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.999, 1.0, 1.001, 1.5, 1.95])
    def test_lower_orders(self, beta):
        # Orders beta, beta - 1, beta - 2 and beta - 3, wherever z = lam d > 1;
        # measured worst 1.5e-15.
        lam = 3.0
        p = quiet_params(beta, lam)
        z = np.geomspace(1.0 + 1e-12, 700.0, 120)
        d = z / lam
        got = problems._lower_orders(d, tail_profile(d, p), p, 4)
        with mpmath.workdps(30):
            for k, E in enumerate(got):
                want = [float(mpmath.expint(beta - k, mpmath.mpf(lam * di))) for di in d]
                np.testing.assert_allclose(E, want, rtol=4e-15, atol=0.0)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.999, 1.0, 1.001, 1.5, 1.95, 1.9999])
    @pytest.mark.parametrize("lam", [0.0, 1e-8, 0.8, 3.0, 300.0])
    def test_first_moment_differences(self, beta, lam):
        # T_1(a) - T_1(b) = int_a^b t^{-beta} e^{-lam t} dt for pairs on either
        # side of lam d = 1, of the anchor min(1, 1/lam) and of beta = 1 and 2,
        # against mpmath at the rounded products lam d that the code sees;
        # measured worst 5.2e-15.
        p = quiet_params(beta, lam)
        a = np.geomspace(1e-4, 1.0, 25)
        b = a + 0.5
        (va, ca), (vb, cb) = (problems._first_moment(d, tail_profile(d, p), p) for d in (a, b))
        got = (va - vb) + (ca - cb)
        B = mpmath.mpf(beta)
        with mpmath.workdps(30):
            for ai, bi, gi in zip(a, b, got):
                if lam == 0.0:
                    want = mpmath.quad(lambda t: t ** -B, [ai, bi])
                else:
                    want = mpmath.mpf(lam) ** (B - 1) * mpmath.gammainc(
                        1 - B, mpmath.mpf(lam * ai), mpmath.mpf(lam * bi))
                assert abs(gi - want) <= 1e-14 * abs(want), (ai, gi, want)


class TestProblem3:
    def test_closed_form_values(self):
        assert example3_exact(1.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-13)
        assert example3_exact(0.5, 1.0, 1.0) == 0.0
        assert example3_exact(1.5, 2.0, -2.0) == 0.0
        # beta = 1, r = 1: u(x) = sqrt(1 - x^2)
        x = np.array([-0.5, 0.0, 0.25])
        np.testing.assert_allclose(example3_exact(1.0, 1.0, x), np.sqrt(1 - x * x),
                                   rtol=1e-13)

    def test_rejects_points_outside_domain(self):
        with pytest.raises(ValueError):
            example3_exact(0.5, 1.0, 1.5)

    def test_setup_exact_only_for_untempered(self):
        grid = Grid(-1.0, 1.0, 15)
        f0, b0, exact0 = example3_setup(SchemeParams(beta=0.5, lam=0.0, s=0, s1=0), grid)
        np.testing.assert_array_equal(f0, np.ones(15))
        assert b0.exterior_g is None
        assert exact0 is not None
        _, _, exact1 = example3_setup(SchemeParams(beta=0.5, lam=2.0, s=0, s1=0), grid)
        assert exact1 is None

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 2.0)])
    def test_setup_exact_on_any_interval(self, a, b):
        # The exit time depends on the distance to the midpoint only, so a
        # shifted interval has the same exact values, and a solve meets them.
        p, grid = SchemeParams(beta=1.5, lam=0.0, s=1, s1=1), Grid(a, b, 255)
        f, _, exact = example3_setup(p, grid)
        np.testing.assert_allclose(exact, example3_exact(1.5, 1.0, Grid(-1.0, 1.0, 255).interior),
                                   rtol=0, atol=1e-15)
        U = np.linalg.solve(materialize_dense(assemble_operator(p, grid)), f)
        assert np.max(np.abs(U - exact)) < 3e-3  # 2.6e-3 at M = 255

    def test_normalization_required_for_convergence(self):
        # With the constant source fixed, only the normalized operator
        # converges to the closed form; dropping the constant leaves an O(1)
        # discrepancy.
        grid = Grid(-1.0, 1.0, 255)
        exact = example3_exact(0.5, 1.0, grid.interior)
        p = SchemeParams(beta=0.5, lam=0.0, s=0, s1=0)
        dense = materialize_dense(assemble_operator(p, grid))
        errs = {}
        for normalized, matrix in ((True, dense), (False, dense / p.cbeta)):
            U = np.linalg.solve(matrix, np.ones(grid.M))
            errs[normalized] = np.max(np.abs(U - exact))
        assert errs[True] < 0.1
        assert errs[False] > 0.5
