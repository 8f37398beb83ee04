"""Benchmark problem setups: sources, exterior data, exact solutions."""

import itertools
import math

import numpy as np
import pytest

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
from templap.quadrature import GAUSS_JACOBI_POINTS, jacobi_gauss_rule, row_block_quadrature
from templap.assembly import _exterior_load_profile
from templap.problems import EXAMPLE2_SUPPORT, example2_extension, example2_second_difference
from templap.tails import expint


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
        rule = jacobi_gauss_rule(GAUSS_JACOBI_POINTS, 0.0, 1.0 - beta)
        tL = (1.0 / 2.0) * (1.0 + rule.nodes)
        wL = (1.0 / 2.0) ** ((1.0 - beta) + 1.0) * rule.weights

        def incomplete(d, const, sign):
            def integrand(sl, out, scratch):
                t = np.multiply.outer(d[sl], tL)
                out[...] = (sign * t + const[sl, None]) * np.exp(-lam * t)

            return d ** (2.0 - beta) * row_block_quadrature(integrand, (d.size,), wL)

        cL = 3.0 * x - 1.0 + lam * up / (1.0 - beta)
        cR = 3.0 * x - 1.0 - lam * up / (1.0 - beta)
        f = (u * tails
             + up / (1.0 - beta) * (x ** (1.0 - beta) * np.exp(-lam * x)
                                    - (1.0 - x) ** (1.0 - beta) * np.exp(-lam * (1.0 - x)))
             + incomplete(x, cL, -1.0)
             + incomplete(1.0 - x, cR, +1.0))
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

    def test_source_calls_u_a_fixed_number_of_times(self, monkeypatch):
        # The source is one batched pass over the lower-half nodes, so u is
        # evaluated a fixed number of times however many nodes there are; a
        # per-node loop would scale with M.
        p = SchemeParams(beta=1.5, lam=3.0, s=1, s1=1)
        calls = []

        def counting_extension(y):
            calls.append(1)
            return example2_extension(y)

        monkeypatch.setattr(problems, "example2_extension", counting_extension)
        counts = {}
        for M in (16, 256):
            calls.clear()
            example2_setup(p, Grid(0.0, 1.0, M))
            counts[M] = len(calls)
        assert 0 < counts[16] == counts[256]

    def test_exterior_loads_nonnegative(self):
        # Both exterior pieces are nonnegative, so the kernel-weighted loads are too.
        p = SchemeParams(beta=0.5, lam=0.0, s=0, s1=0)
        grid = Grid(0.0, 1.0, 16)
        _, boundary, _ = example2_setup(p, grid)
        left = _exterior_load_profile(boundary, p, grid, "left")
        right = _exterior_load_profile(boundary, p, grid, "right")
        for i in (1, 8, 16):
            d1, d2 = left[i - 1], right[i - 1]
            assert d1 >= 0.0 and d2 >= 0.0
            assert d1 + d2 > 0.0


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
