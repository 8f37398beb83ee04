"""Grid, Gamma function, normalization constant and parameter validation."""

import math
import sys

import numpy as np
import pytest
import scipy.special

from templap import Grid, SchemeParams
from templap.core import c_beta_const, gamma_fn

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
        for a, b in ((0.0, math.inf), (-math.inf, 1.0), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="finite"):
                Grid(a, b, 7)


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
        for lam in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SchemeParams(beta=0.5, lam=lam, s=0, s1=0)

    def test_rejects_subnormal_beta_and_lam(self):
        # At beta = 5e-324 the tails d^{-beta}/beta are infinite, and at
        # lam = 5e-324 lam d is 0 for d < 1, where E_p's series takes ln 0.
        tiny = sys.float_info.min
        for beta, lam in ((5e-324, 0.0), (tiny / 2, 1.0), (0.5, 5e-324), (1.0, tiny / 2)):
            with pytest.raises(ValueError, match="at least"):
                SchemeParams(beta=beta, lam=lam, s=1 if beta >= 1.0 else 0, s1=1 if beta >= 1.0 else 0)
        assert SchemeParams(beta=tiny, lam=tiny, s=0, s1=0).lam == tiny

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

