"""Kernel tail integrals against adaptive quadrature of the definition."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from templap import Grid, SchemeParams, tail_profile, tails
from templap.core import e1
from templap.tails import _tail_unit_order_substitution


def tail_oracle(d, beta, lam):
    val, err = scipy.integrate.quad(
        lambda t: math.exp(-lam * t) * t ** (-1.0 - beta), d, np.inf,
        epsabs=1e-14, epsrel=1e-13, limit=400,
    )
    return val


def tail_at(d, params):
    return float(tail_profile(d, params)[0])


def params_for(beta, lam):
    pairs = {True: (0, 0), False: (1, 1)}[beta < 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SchemeParams(beta=beta, lam=lam, s=pairs[0], s1=pairs[1])


class TestClosedForms:
    def test_untempered(self):
        g = Grid(0.0, 1.0, 3)  # h = 1/4, x_1 - a = 1/4
        p = SchemeParams(beta=0.5, lam=0.0, s=0, s1=0)
        assert tail_at(g.nodes[1] - g.a, p) == pytest.approx(4.0, rel=1e-14)
        assert tail_at(g.b - g.nodes[3], p) == pytest.approx(4.0, rel=1e-14)
        g2 = Grid(0.0, 1.0, 3)
        p1 = SchemeParams(beta=1.0, lam=0.0, s=1, s1=1)
        assert tail_at(g2.nodes[2] - g2.a, p1) == pytest.approx(2.0, rel=1e-14)

    def test_reflection_symmetry(self):
        g = Grid(0.0, 1.0, 15)
        p = params_for(0.7, 2.0)
        for i in range(1, 8):
            assert tail_at(g.b - g.nodes[g.M + 1 - i], p) == pytest.approx(
                tail_at(g.nodes[i] - g.a, p), rel=1e-14)


class TestOracleAgreement:
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 1.1, 1.5, 1.9])
    @pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
    def test_fractional_orders(self, beta, lam):
        for d in (0.02, 0.3, 0.9, 1.7):
            got = float(tail_profile(d, params_for(beta, lam))[0])
            assert got == pytest.approx(tail_oracle(d, beta, lam), rel=1e-10)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
    def test_unit_order_both_branches(self, lam):
        p = params_for(1.0, lam)
        threshold = 1.0 / (2.0 * lam)
        for d in (0.3 * threshold, 0.95 * threshold, 1.05 * threshold, 3.0 * threshold):
            got = float(tail_profile(d, p)[0])
            assert got == pytest.approx(tail_oracle(d, 1.0, lam), rel=1e-9)

    def test_untempered_any_order(self):
        for beta in (0.25, 1.0, 1.75):
            p = params_for(beta, 0.0)
            for d in (0.1, 0.5, 2.0):
                assert float(tail_profile(d, p)[0]) == pytest.approx(
                    d ** (-beta) / beta, rel=1e-14)


class TestBranchSeam:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
    def test_recipes_agree_at_threshold(self, lam):
        d = np.array([1.0 / (2.0 * lam)])
        near = float(np.exp(-lam * d[0]) / d[0] - lam * e1(lam * d[0]))
        far = float(_tail_unit_order_substitution(d, lam)[0])
        assert near == pytest.approx(far, rel=1e-8)

    def test_values_continuous_across_threshold(self):
        lam = 3.0
        p = params_for(1.0, lam)
        thr = 1.0 / (2.0 * lam)
        below = float(tail_profile(thr * (1.0 - 1e-9), p)[0])
        above = float(tail_profile(thr * (1.0 + 1e-9), p)[0])
        assert below == pytest.approx(above, rel=1e-8)


class TestStructure:
    @pytest.mark.parametrize("beta,lam", [(0.5, 0.0), (0.5, 3.0), (1.0, 2.0), (1.6, 1.0)])
    def test_monotone_and_positive(self, beta, lam):
        g = Grid(0.0, 1.0, 63)
        p = params_for(beta, lam)
        B1 = tail_profile(g.interior - g.a, p)
        B2 = tail_profile(g.b - g.interior, p)
        assert np.all(B1 > 0.0) and np.all(B2 > 0.0)
        assert np.all(np.diff(B1) < 0.0)
        assert np.all(np.diff(B2) > 0.0)

    def test_tail_sum_lower_bound(self):
        # Truncating both tails to length delta = b - a and bounding the
        # exponential from below gives
        #   B1 + B2 >= 2 e^{-lam(b-a+delta)} [(b-a)^-beta - (b-a+delta)^-beta]/beta.
        rng = np.random.default_rng(17)
        for _ in range(25):
            beta = float(rng.uniform(0.05, 1.95))
            if abs(beta - 1.0) < 5e-3:
                beta = 1.0
            lam = float(rng.uniform(0.0, 4.0))
            a, width = float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 2.0))
            b = a + width
            g = Grid(a, b, 31)
            p = params_for(beta, lam)
            B = tail_profile(g.interior - a, p) + tail_profile(b - g.interior, p)
            delta = width
            bound = (2.0 * math.exp(-lam * (width + delta))
                     * (width ** (-beta) - (width + delta) ** (-beta)) / beta)
            assert np.all(B >= bound), (beta, lam, width)

    def test_node_doubling_drift(self, monkeypatch):
        p = params_for(0.6, 2.5)
        d = np.array([0.05, 0.4, 1.3])
        p1 = params_for(1.0, 2.5)
        dd = np.array([0.21, 0.8, 1.5])  # all beyond the threshold 0.2
        assert (tails.GAUSS_JACOBI_POINTS, tails.TAIL_SUBSTITUTION_POINTS) == (64, 128)
        v64, w128 = tail_profile(d, p), tail_profile(dd, p1)
        monkeypatch.setattr(tails, "GAUSS_JACOBI_POINTS", 128)
        monkeypatch.setattr(tails, "TAIL_SUBSTITUTION_POINTS", 256)
        v128, w256 = tail_profile(d, p), tail_profile(dd, p1)
        np.testing.assert_allclose(v64, v128, rtol=1e-12)
        np.testing.assert_allclose(w128, w256, rtol=1e-12)

    def test_domain_errors(self):
        p = params_for(0.5, 1.0)
        with pytest.raises(ValueError):
            tail_profile(np.array([0.5, -0.1]), p)
