"""Closed-form interpolation weights against their defining integrals."""

import math

import numpy as np
import pytest

from templap import Grid, SchemeParams
from templap.assembly import _boundary_lift_weights
from templap.coefficients import (
    boundary_left_profile,
    coeff_near_diag,
    pair_sum_profile,
    singular_cell_weight,
)
from coefficient_oracle import coeff_quadrature_oracle


def unit_grid(M=15, h=None):
    if h is None:
        return Grid(0.0, 1.0, M)
    return Grid(0.0, h * (M + 1), M)


def pair_sum(m, params, grid):
    return float(pair_sum_profile(np.array([m]), params, grid)[0])


def boundary_left(i, params, grid):
    return float(boundary_left_profile(np.array([i]), params, grid)[0])


def random_params(rng, avoid_log_band=True):
    beta = rng.uniform(0.05, 1.95)
    if avoid_log_band and abs(beta - 1.0) < 5e-3:
        beta = 1.0 if rng.integers(2) else beta + 0.01
    if beta == 1.0:
        s, s1 = (0, 1) if rng.integers(2) else (1, 1)
    elif beta < 1.0:
        s, s1 = (0, 0) if rng.integers(2) else (1, 1)
    else:
        s, s1 = (0, 1) if rng.integers(2) else (1, 1)
    return SchemeParams(beta=beta, lam=float(rng.uniform(0.0, 4.0)), s=s, s1=s1)


class TestPairSum:
    def test_frozen_values(self):
        g = unit_grid(M=15, h=1.0)
        p = SchemeParams(beta=0.5, lam=0.0, s=0, s1=0)
        want = 4.0 * (2.0 * math.sqrt(2.0) - 1.0 - math.sqrt(3.0))
        assert pair_sum(2, p, g) == pytest.approx(want, rel=1e-13)
        p1 = SchemeParams(beta=1.0, lam=0.0, s=1, s1=1)
        want1 = -4.0 * math.log(2.0) + 3.0 * math.log(3.0)
        assert pair_sum(2, p1, g) == pytest.approx(want1, rel=1e-13)

    def test_matches_cell_quadrature(self):
        rng = np.random.default_rng(11)
        g_cache = {}
        for _ in range(40):
            p = random_params(rng)
            m = int(rng.integers(2, 400))
            h = float(10.0 ** rng.uniform(-3.0, 0.0))
            M = m + 2
            grid = g_cache.setdefault((M, h), Grid(0.0, h * (M + 1), M))
            i, j = m + 1, 1
            oracle = (coeff_quadrature_oracle(i, j + 1, "A1", p, grid)
                      + coeff_quadrature_oracle(i, j, "A2", p, grid))
            assert pair_sum(m, p, grid) == pytest.approx(oracle, rel=1e-9)

    def test_right_side_pair_equals_left_side_pair(self):
        # A3(i, s, j+1) + A4(i, s, j) equals the left-side pair at the same lag
        grid = Grid(0.0, 1.0, 12)
        p = SchemeParams(beta=1.3, lam=0.8, s=1, s1=1)
        for m in (2, 4, 7):
            i, j = 2, 2 + m
            right = (coeff_quadrature_oracle(i, j + 1, "A3", p, grid)
                     + coeff_quadrature_oracle(i, j, "A4", p, grid))
            assert pair_sum(m, p, grid) == pytest.approx(right, rel=1e-10)

    def test_positive_for_all_admissible_lags(self):
        grid = unit_grid(M=5, h=0.01)
        m = np.unique(np.concatenate([np.arange(2, 200),
                                      np.geomspace(200, 10_000, 60).astype(int)]))
        for beta in (0.1, 0.5, 0.999, 1.0, 1.001, 1.5, 1.9):
            pairs = [(0, 0), (1, 1)] if beta < 1 else [(0, 1), (1, 1)]
            for s, s1 in pairs:
                import warnings
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    p = SchemeParams(beta=beta, s=s, s1=s1)
                vals = pair_sum_profile(m, p, grid)
                assert np.all(vals > 0.0), (beta, s)


class TestNearDiag:
    def test_frozen_values(self):
        g = unit_grid(M=15, h=1.0)
        p = SchemeParams(beta=0.5, lam=0.0, s=0, s1=0)
        want = 2.0 + 4.0 * (1.5 - math.sqrt(2.0))
        assert coeff_near_diag(p, g) == pytest.approx(want, rel=1e-13)
        p1 = SchemeParams(beta=1.0, lam=0.0, s=1, s1=1)
        assert coeff_near_diag(p1, g) == pytest.approx(2.0 * math.log(2.0), rel=1e-13)

    def test_tempering_damps_by_exponential_factor(self):
        g = unit_grid(M=15, h=0.1)
        base = coeff_near_diag(SchemeParams(beta=0.7, lam=0.0, s=0, s1=0), g)
        damped = coeff_near_diag(SchemeParams(beta=0.7, lam=3.0, s=0, s1=0), g)
        assert damped == pytest.approx(base * math.exp(-0.3), rel=1e-13)

    def test_adjacent_cell_weight_matches_quadrature(self):
        rng = np.random.default_rng(5)
        grid = Grid(0.0, 1.0, 9)
        for _ in range(15):
            p = random_params(rng)
            oracle = (singular_cell_weight(p, grid)
                      + coeff_quadrature_oracle(5, 4, "A2", p, grid)
                      * math.exp(-p.lam * grid.h))
            assert coeff_near_diag(p, grid) == pytest.approx(oracle, rel=1e-10)


class TestBoundaryWeights:
    def test_frozen_values(self):
        g = unit_grid(M=15, h=1.0)
        p = SchemeParams(beta=0.5, lam=0.0, s=0, s1=0)
        want = 4.0 * (math.sqrt(2.0) - 1.0 - 0.5 / math.sqrt(2.0))
        assert boundary_left(2, p, g) == pytest.approx(want, rel=1e-13)
        p1 = SchemeParams(beta=1.0, lam=0.0, s=1, s1=1)
        assert boundary_left(2, p1, g) == pytest.approx(1.0 - math.log(2.0), rel=1e-13)

    def test_mirror_identity(self):
        # The (damped) right endpoint weight of row i is the left one of row M+1-i.
        g = unit_grid(M=17)
        p = SchemeParams(beta=1.5, lam=2.0, s=1, s1=1)
        left, right = _boundary_lift_weights(p, g)
        for i in (1, 3, 9, 16):
            assert right[i - 1] == left[g.M - i]

    def test_matches_cell_quadrature(self):
        rng = np.random.default_rng(23)
        grid = Grid(0.0, 1.0, 31)
        for _ in range(15):
            p = random_params(rng)
            i = int(rng.integers(2, grid.M + 1))
            oracle = coeff_quadrature_oracle(i, 1, "A1", p, grid)
            assert boundary_left(i, p, grid) == pytest.approx(oracle, rel=1e-9)


class TestQuadratureOracle:
    def test_rejects_singular_cells(self):
        g = unit_grid(M=9)
        p = SchemeParams(beta=0.5, s=0, s1=0)
        with pytest.raises(ValueError):
            coeff_quadrature_oracle(4, 4, "A1", p, g)   # cell touches x_i
        with pytest.raises(ValueError):
            coeff_quadrature_oracle(4, 5, "A3", p, g)   # cell touches x_i
        with pytest.raises(ValueError):
            coeff_quadrature_oracle(4, 2, "A9", p, g)

    def test_integrand_positive(self):
        g = unit_grid(M=9)
        p = SchemeParams(beta=1.7, lam=0.0, s=1, s1=1)
        assert coeff_quadrature_oracle(5, 2, "A1", p, g) > 0.0
        assert coeff_quadrature_oracle(5, 8, "A4", p, g) > 0.0
