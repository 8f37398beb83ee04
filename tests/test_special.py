"""Gamma function, normalization constant, and exponential integral tail."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from templap import Grid, SchemeParams
from templap.core import EULER_GAMMA, c_beta_const, e1, gamma_fn

SQRT_PI = math.sqrt(math.pi)


class TestGrid:
    def test_endpoints_exact(self):
        g = Grid(0.1, 0.9 + 1e-17, 97)  # awkward spacing
        assert g.nodes[0] == g.a
        assert g.nodes[-1] == g.b
        assert g.interior.size == 97
        assert g.h == pytest.approx((g.b - g.a) / 98.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0.0, 0.0, 7)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 2)


class TestGamma:
    def test_half_integer_values(self):
        assert gamma_fn(0.5) == pytest.approx(SQRT_PI, rel=1e-13)
        assert gamma_fn(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)
        assert gamma_fn(-1.5) == pytest.approx(4.0 * SQRT_PI / 3.0, rel=1e-13)

    def test_factorials(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)
        assert gamma_fn(10.0) == pytest.approx(362880.0, rel=1e-13)

    def test_against_stdlib_on_range(self):
        xs = np.concatenate([np.linspace(0.05, 30.0, 313),
                             np.linspace(-29.95, -0.05, 307)])
        for x in xs:
            if abs(x - round(x)) < 1e-9 and x <= 0:
                continue
            assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0, math.inf, math.nan])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            gamma_fn(x)


class TestCBeta:
    def test_untempered_beta_one_is_inverse_pi(self):
        p = SchemeParams(beta=1.0, lam=0.0, s=1, s1=1)
        assert c_beta_const(p) == pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_tempered_branch_beta_half(self):
        # Gamma(1/2)/(2 sqrt(pi) |Gamma(-1/2)|) = 1/(4 sqrt(pi))
        p = SchemeParams(beta=0.5, lam=3.0, s=0, s1=0)
        assert c_beta_const(p) == pytest.approx(1.0 / (4.0 * SQRT_PI), rel=1e-13)

    def test_untempered_branch_beta_half(self):
        # 0.5 Gamma(3/4) / (2^{1/2} sqrt(pi) Gamma(3/4)) = 1/(2 sqrt(2 pi))
        p = SchemeParams(beta=0.5, lam=0.0, s=0, s1=0)
        assert c_beta_const(p) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0 * math.pi)),
                                                rel=1e-13)

    def test_beta_one_tempered_uses_first_branch(self):
        p = SchemeParams(beta=1.0, lam=5.0, s=1, s1=1)
        assert c_beta_const(p) == pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_matches_independent_gamma_composition(self):
        for beta in (0.2, 0.5, 0.9, 1.2, 1.5, 1.8):
            s, s1 = ((0, 0) if beta < 1 else (1, 1))
            lam0 = SchemeParams(beta=beta, lam=0.0, s=s, s1=s1)
            want0 = (beta * scipy.special.gamma((1 + beta) / 2)
                     / (2 ** (1 - beta) * SQRT_PI * scipy.special.gamma(1 - beta / 2)))
            assert c_beta_const(lam0) == pytest.approx(want0, rel=1e-12)
            lam1 = SchemeParams(beta=beta, lam=2.0, s=s, s1=s1)
            want1 = 1.0 / (2.0 * abs(scipy.special.gamma(-beta)))
            assert c_beta_const(lam1) == pytest.approx(want1, rel=1e-12)


class TestSchemeParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SchemeParams(beta=0.0, s=0, s1=0)
        with pytest.raises(ValueError):
            SchemeParams(beta=2.0, s=1, s1=1)
        with pytest.raises(ValueError):
            SchemeParams(beta=0.5, lam=-1.0, s=0, s1=0)

    def test_normalization_cannot_be_switched_off(self):
        with pytest.raises(TypeError):
            SchemeParams(beta=0.5, lam=0.0, s=0, s1=0, apply_cbeta=False)

    @pytest.mark.parametrize("beta,s,s1", [
        (0.5, 0, 1), (0.5, 1, 0), (1.0, 0, 0), (1.0, 1, 0),
        (1.5, 0, 0), (1.5, 1, 0),
    ])
    def test_rejects_inadmissible_selectors(self, beta, s, s1):
        with pytest.raises(ValueError):
            SchemeParams(beta=beta, s=s, s1=s1)

    def test_warns_near_log_case(self):
        with pytest.warns(RuntimeWarning):
            SchemeParams(beta=1.0 + 1e-7, s=1, s1=1)
        with pytest.warns(RuntimeWarning):
            SchemeParams(beta=1.0 - 1e-8, s=0, s1=0)

    def test_exact_log_case_does_not_warn(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SchemeParams(beta=1.0, s=1, s1=1)


class TestExpIntegralTail:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_known_values_against_quadrature(self):
        for z, frozen in ((1.0, 0.21938393439552026), (0.1, 1.8229239584193906)):
            oracle = scipy.integrate.quad(lambda t: math.exp(-t) / t, z, np.inf,
                                          epsabs=1e-15, epsrel=1e-14)[0]
            assert e1(z) == pytest.approx(oracle, rel=1e-12)
            assert e1(z) == pytest.approx(frozen, rel=1e-12)
        # From z = 4 on e1 is scipy.special.exp1; check it against quadrature,
        # not against itself.
        for z in (5.0, 30.0, 200.0):
            oracle = scipy.integrate.quad(lambda t: math.exp(-t) / t, z, np.inf,
                                          epsabs=0.0, epsrel=1e-13)[0]
            assert e1(z) == pytest.approx(oracle, rel=1e-12)

    def test_truncation_is_converged_in_usage_regime(self):
        # e1 stops its series early; that gives the same bits as all 64
        # terms on (0, 4), and below 1/2 as the 26-term truncation.
        def series(z, terms):
            acc, term = np.zeros_like(z), np.ones_like(z)
            for n in range(1, terms + 1):
                term = term * (-z) / n
                acc = acc + term / n
            return -EULER_GAMMA - np.log(z) - acc

        rng = np.random.default_rng(4)
        z = np.concatenate([np.geomspace(1e-12, 4.0, 2000, endpoint=False),
                            rng.uniform(0.0, 4.0, 2000)])
        z = z[z > 0.0]
        np.testing.assert_array_equal(e1(z), series(z, 64))
        low = z[z < 0.5]
        np.testing.assert_array_equal(e1(low), series(low, 26))

    def test_against_scipy_below_half(self):
        z = np.linspace(1e-3, 0.5, 97)
        got = e1(z)
        np.testing.assert_allclose(got, scipy.special.exp1(z), rtol=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            e1(0.0)
        with pytest.raises(ValueError):
            e1(np.array([0.5, -1.0]))

    def test_robust_e1_wide_range(self):
        z = np.concatenate([np.linspace(0.01, 3.9, 51), np.linspace(4.0, 30.0, 53)])
        np.testing.assert_allclose(e1(z), scipy.special.exp1(z), rtol=1e-12)
