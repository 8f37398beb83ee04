"""Kernel tail integrals against adaptive quadrature of the definition."""

import contextlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate

from templap import (BoundarySpec, ExperimentConfig, Grid, SchemeParams, assemble_operator,
                     assembly, example1_f, materialize_dense, pcg_solve, problems, quadrature,
                     run_convergence_study, tail_profile, tails)

SRC = Path(__file__).resolve().parents[1] / "src"


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

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.0, 10.0, 100.0])
    def test_unit_order_both_branches(self, lam):
        # T(d) = E_2(lam d) / d from lam d = 1e-3 to 40, at 1e-12 relative
        # against quadrature with no absolute floor (T falls to ~1e-18 lam).
        p = params_for(1.0, lam)
        for z in np.geomspace(1e-3, 40.0, 9):
            d = z / lam
            want = scipy.integrate.quad(lambda t: math.exp(-lam * t) / (t * t), d, np.inf,
                                        epsabs=0.0, epsrel=1e-13, limit=400)[0]
            assert float(tail_profile(d, p)[0]) == pytest.approx(want, rel=1e-12)
        # lam d = 800: e^{-800} is below the smallest double.
        far = float(tail_profile(800.0 / lam, p)[0])
        assert math.isfinite(far) and far >= 0.0

    def test_untempered_any_order(self):
        for beta in (0.25, 1.0, 1.75):
            p = params_for(beta, 0.0)
            for d in (0.1, 0.5, 2.0):
                assert float(tail_profile(d, p)[0]) == pytest.approx(
                    d ** (-beta) / beta, rel=1e-14)


class TestAgainstMpmath:
    # E_p and T at 30 digits.  Sampled geometrically over the whole range and
    # densely around x = 1, where ``expint`` switches from the power series to
    # the continued fraction.
    @pytest.mark.parametrize("p", [1, 2])
    def test_exponential_integrals(self, p):
        # On (1/2, 1] the power series cancels: measured worst 7.8e-16 for
        # E_1 and 1.04e-15 for E_2 (at x = 0.83).  Elsewhere 1e-15.
        x = np.concatenate([np.geomspace(1e-300, 1e4, 1500), np.linspace(0.4, 1.2, 16001)])
        got = tails.expint(p, x)
        with mpmath.workdps(30):
            for xi, gi in zip(x, got):
                xm = mpmath.mpf(xi)
                # E_2 = e^{-x} - x E_1 loses at most 4 of the 30 digits here,
                # and mpmath's own E_2 takes milliseconds per point at tiny x.
                want = mpmath.e1(xm) if p == 1 else mpmath.exp(-xm) - xm * mpmath.e1(xm)
                bound = 1.5e-15 if 0.5 < xi <= 1.0 else 1e-15
                if want > 1e-300:
                    assert abs(gi - want) <= bound * want, (p, xi)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 1.95])
    def test_tail_profile(self, beta):
        # T(d) = d^{-beta} E_{1+beta}(lam d) for every beta and lam d.  The
        # reference is taken at the rounded product lam*d that the code sees:
        # T's relative condition number in lam d is about lam d, so the
        # product's own rounding would otherwise account for up to 1e-12 at
        # lam d = 1e4.  Below lam d = 1 a non-integer order takes the power
        # series, whose terms Gamma(-beta) x^beta and x/(1 - beta) are summed
        # as one within 0.1 of beta = 1, and beta = 1 takes the same grouped
        # series at e = 0; measured worst 1.3e-15 at beta = 0.05, 2.2e-15 at
        # beta = 0.999, 6.3e-16 at 1 and 7.0e-16 at 1.001 (2.8e-12 and
        # 1.1e-12 at 0.999 and 1.001 with the two terms apart).
        series = 4e-15 if abs(beta - 1.0) < 0.01 else 4e-14
        for lam in (0.5, 3.0, 100.0):
            z = np.geomspace(1e-6, 1e4, 400)
            d = z / lam
            got = tail_profile(d, params_for(beta, lam))
            with mpmath.workdps(30):
                for di, gi in zip(d, got):
                    x = lam * di
                    want = mpmath.mpf(lam) ** beta * mpmath.gammainc(-beta, mpmath.mpf(x))
                    bound = 1e-14 if x > 1.0 else series
                    if want > 1e-300:
                        assert abs(gi - want) <= bound * want, (beta, lam, di)

    def test_orders_at_x_up_to_one(self):
        # Every order takes the power series below x = 1 and the continued
        # fraction above; integer orders group their pole terms as at e = 0,
        # and orders <= 0 have no pole.
        x = np.concatenate([np.geomspace(1e-8, 1.0, 60), [1.5, 30.0]])
        for p in (1.05, 1.5, 2.5, 2.95, 3, 4.0, 0.0, -1.0, -3.5):
            with mpmath.workdps(30):
                want = [float(mpmath.expint(mpmath.mpf(p), mpmath.mpf(xi))) for xi in x]
            got = tails.expint(p, x)
            np.testing.assert_allclose(got[:-2], want[:-2], rtol=3e-14, atol=0.0)
            if 1.0 < p < 3.0:
                np.testing.assert_allclose(got[-2:], want[-2:], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("e", [0.0, 1e-8, -1e-8, 2e-6, -2e-6, 1e-4, -1e-4, 1e-2, -1e-2,
                                   0.09, -0.09])
    def test_orders_near_a_pole(self, n, e):
        # Within 0.1 of an integer order n the series' pole terms
        # Gamma(1-p) x^{p-1} and the k = n-1 term are summed as one; each
        # alone is of order 1/e.  At e = 0 the pair is E_n's psi term.
        # Measured worst 1.5e-15 over these orders.
        p = n + e
        x = np.geomspace(1e-6, 1.0, 200)
        with mpmath.workdps(40):
            want = [float(mpmath.expint(mpmath.mpf(p), mpmath.mpf(xi))) for xi in x]
        np.testing.assert_allclose(tails.expint(p, x), want, rtol=3e-15, atol=0.0)

    def test_power_series(self):
        # sum_{j not in skip} (-z)^j / (j! (q+j)) in the three shapes its
        # callers use: E_n's series less its pole term (q = 1 - n), the
        # problem-2 first moment (q = 1 - beta, skip (0, 1)) and its fourth
        # moment (q = 4 - beta, z up to 2).  Measured worst 2.4e-15 at
        # q = -2, under 1e-15 elsewhere.
        def want(q, z, skip):
            with mpmath.workdps(40):
                return float(mpmath.fsum((-mpmath.mpf(z)) ** j
                                         / (mpmath.factorial(j) * (mpmath.mpf(q) + j))
                                         for j in range(80) if j not in skip))

        to_one = np.concatenate([[0.0], np.geomspace(1e-8, 1.0, 60)])
        shapes = [(1.0 - n, (n - 1,), to_one) for n in (1, 2, 3)]
        shapes += [(1.0 - beta, (0, 1), to_one) for beta in (0.5, 1.0, 1.95)]
        shapes += [(4.0 - beta, (), np.linspace(0.0, 2.0, 61)) for beta in (0.5, 1.0, 1.95)]
        for q, skip, z in shapes:
            ref = [want(q, zi, skip) for zi in z]
            np.testing.assert_allclose(tails.power_series(q, z, skip), ref, rtol=3e-15, atol=0.0)
            assert tails.power_series(q, np.empty(0), skip).shape == (0,)

    def test_pole_pair_at_the_pole(self):
        # At p = n it is E_n's (-x)^{n-1} (psi(n) - ln x) / (n-1)!.
        x = np.geomspace(1e-6, 1.0, 50)
        for n, psi in ((1, -np.euler_gamma), (2, 1.0 - np.euler_gamma),
                       (3, 1.5 - np.euler_gamma)):
            want = (-x) ** (n - 1) / math.factorial(n - 1) * (psi - np.log(x))
            np.testing.assert_allclose(tails.pole_pair(float(n), n, x), want, rtol=1e-15, atol=0.0)


class TestStructure:
    def test_strong_tempering_keeps_the_operator_positive_definite(self):
        # beta = 0.5, lam = 100 on (0, 20), J = 11: lam h = 0.98 and most
        # tails have lam d in the hundreds or thousands.  The Gauss-Jacobi
        # form cancels terms of size lam^beta there, which made most row sums
        # negative and the smallest eigenvalue of H -0.030; with exact tails
        # it is +2.6e-6.
        op = assemble_operator(params_for(0.5, 100.0), Grid(0.0, 20.0, 2047))
        assert np.linalg.eigvalsh(materialize_dense(op))[0] > 0.0
        _, report = pcg_solve(op, np.ones(op.M), None)
        assert report.converged

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

    def test_a_returned_array_cannot_change_a_later_result(self):
        p = params_for(0.8, 1.7)
        d = np.linspace(0.01, 1.0, 50)
        first = tail_profile(d, p)
        expected = first.copy()
        with contextlib.suppress(ValueError):
            first[:] = 0.0
        np.testing.assert_array_equal(tail_profile(d, p), expected)
        # Changing the distances in place after a call is not a repeat of it.
        d[0] = 0.5
        assert tail_profile(d, p)[0] == pytest.approx(tail_at(0.5, p), rel=1e-14)

    def test_each_call_sweeps_and_a_level_keeps_one_profile(self, monkeypatch):
        # tail_profile keeps nothing between calls; the level cache keeps one
        # read-only profile per (params, grid).
        sweeps = []
        real = tails._evaluate

        def counting(*args):
            sweeps.append(args)
            return real(*args)

        monkeypatch.setattr(tails, "_evaluate", counting)
        p = params_for(0.8, 1.7)
        d = np.linspace(0.01, 1.0, 50)
        tail_profile(d, p)
        tail_profile(d.copy(), p)
        assert len(sweeps) == 2
        assembly.level_tails.cache_clear()
        T = assembly.level_tails(p, Grid(0.0, 1.0, 63))
        assert assembly.level_tails(p, Grid(0.0, 1.0, 63)) is T
        assert len(sweeps) == 3
        assert not T.flags.writeable
        np.testing.assert_array_equal(T, tail_profile(Grid(0.0, 1.0, 63).interior, p))

    @pytest.mark.parametrize("M", [127, 128, 129, 4095])
    @pytest.mark.parametrize("beta, lam, s", [(0.6, 2.5, (0, 0)), (1.4, 0.5, (1, 1))])
    def test_row_blocks_match_one_shot_sums(self, monkeypatch, M, beta, lam, s):
        # Both callers of row_block_quadrature: the problem-1 source (two
        # grids, one weight vector) and the exterior loads (one kernel grid,
        # a weight vector per side).
        p = SchemeParams(beta=beta, lam=lam, s=s[0], s1=s[1])
        grid = Grid(0.0, 1.0, M)
        boundary = BoundarySpec(exterior_g=problems.example2_exterior,
                                support=problems.EXAMPLE2_SUPPORT)

        def sums():
            return example1_f(p, grid), *assembly._exterior_loads(boundary, p, grid)

        blocked = sums()
        monkeypatch.setattr(quadrature, "BLOCK_BYTES", 1 << 30)  # one block for all rows
        for got, want in zip(blocked, sums()):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("M", [7, 127, 128, 4095])
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 1.0)])
    @pytest.mark.parametrize("beta, lam", [(0.5, 0.0), (1.0, 2.0), (0.6, 2.5), (1.4, 0.5)])
    def test_mirrored_distances_give_the_reversed_profile(self, M, interval, beta, lam):
        # Each entry's exponential integral depends only on that entry, not on
        # where the sweep puts it, so a fresh sweep over reversed distances is
        # the reversed profile bit for bit.
        p = params_for(beta, lam)
        d = Grid(*interval, M).interior - interval[0]
        T = tail_profile(d, p)
        np.testing.assert_array_equal(tail_profile(d[::-1], p), T[::-1])

    def test_a_problem_2_level_sweeps_twice(self, monkeypatch):
        # Both sweeps are the source's: the level's tails at x, which the
        # operator's diagonal reuses with its right tails their reverse, and
        # one more at x + 1/2, whose reverse is 3/2 - x; at beta = 1 each
        # sweep is one exponential integral, and the source's moments need
        # no other.
        sweeps, expints = [], []

        def counting(calls, fn):
            def wrapped(*args):
                calls.append(args)
                return fn(*args)
            return wrapped

        assembly.level_tails.cache_clear()
        monkeypatch.setattr(tails, "_evaluate", counting(sweeps, tails._evaluate))
        monkeypatch.setattr(tails, "expint", counting(expints, tails.expint))
        levels = (5, 6, 7)
        run_convergence_study(ExperimentConfig(example=2, params=params_for(1.0, 3.0),
                                               levels=levels))
        assert len(sweeps) == len(expints) == 2 * len(levels)
        for J, (at_x, at_shift) in zip(levels, zip(sweeps[::2], sweeps[1::2])):
            x = Grid(0.0, 1.0, 2 ** J).interior  # problem 2 takes M = 2^J
            np.testing.assert_array_equal(at_x[0], x)
            np.testing.assert_array_equal(at_shift[0], x + 0.5)

    def test_scipy_loads_only_where_needed(self):
        # Gauss-Jacobi rules and exponential integrals need numpy only, so
        # studies of problems 1 and 2 (beta = 1 rows included) and a
        # problem-3, lam = 0 circulant study load no scipy module.  The
        # banded preconditioner runs on numpy's bundled OpenBLAS, and imports
        # scipy.linalg only where numpy ships none.
        from templap.solvers import _numpy_openblas

        prologue = ("import sys, templap\n"
                    "from templap import ExperimentConfig, SchemeParams, run_convergence_study\n"
                    "def loaded():\n"
                    "    names = {m for m in sys.modules if m.split('.')[0] == 'scipy'}\n"
                    "    return sorted(names & {'scipy.linalg', 'scipy.special'}) if names else 'none'\n"
                    "print(loaded())\n")
        rule_and_studies = (
            "from templap.quadrature import jacobi_gauss_rule\n"
            "jacobi_gauss_rule(8, 0.0, -0.5)\n"
            "print(loaded())\n"
            "for example, beta, lam, s, s1 in ((1, 0.5, 0.5, 0, 0), (2, 0.5, 0.0, 0, 0),\n"
            "        (3, 1.5, 0.0, 1, 1), (1, 1.0, 3.0, 1, 1), (2, 1.0, 3.0, 0, 1),\n"
            "        (2, 1.0, 3.0, 1, 1)):\n"
            "    run_convergence_study(ExperimentConfig(example=example, levels=(5,),\n"
            "        solver='pcg-tchan', params=SchemeParams(beta=beta, lam=lam, s=s, s1=s1)))\n"
            "    print(loaded())\n"
            "templap.tail_profile(0.5, SchemeParams(beta=1.0, lam=2.0, s=1, s1=1))\n"
            "print(loaded())\n")
        banded = ("op = templap.assemble_operator(SchemeParams(beta=1.5, lam=0.0, s=1, s1=1),\n"
                  "                              templap.Grid(-1.0, 1.0, 31))\n"
                  "print(loaded())\n"
                  "templap.build_band_compensated_ichol(op, k=3)\n"
                  "print(loaded())\n"
                  "run_convergence_study(ExperimentConfig(example=3, levels=(5,), solver='pcg-ichol',\n"
                  "    params=SchemeParams(beta=1.5, lam=0.0, s=1, s1=1)))\n"
                  "print(loaded())\n")
        without_openblas = "templap.preconditioners._numpy_openblas = lambda: None\n"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

        def stages(code):
            out = subprocess.run([sys.executable, "-c", prologue + code], env=env,
                                 capture_output=True, text=True, check=True).stdout
            return out.splitlines()

        assert stages(rule_and_studies) == [
            "none",               # import templap
            "none",               # Gauss-Jacobi rule
            "none",               # problem 1, beta = 0.5, lam = 0.5
            "none",               # problem 2, beta = 0.5, lam = 0
            "none",               # problem 3, lam = 0, circulant preconditioner
            "none",               # problem 1, beta = 1, lam = 3
            "none",               # problem 2, beta = 1, lam = 3, (s, s1) = (0, 1)
            "none",               # problem 2, beta = 1, lam = 3, (s, s1) = (1, 1)
            "none",               # beta = 1 tail
        ]
        has_dpbtrf = getattr(_numpy_openblas(), "scipy_dpbtrf_64_", None) is not None
        banded_loads = "none" if has_dpbtrf else "['scipy.linalg']"
        # operator, banded preconditioner, problem-3 banded study
        assert stages(banded) == ["none", "none", banded_loads, banded_loads]
        fallback = ["none", "none", "['scipy.linalg']", "['scipy.linalg']"]
        assert stages(without_openblas + banded) == fallback

    def test_domain_errors(self):
        p = params_for(0.5, 1.0)
        with pytest.raises(ValueError):
            tail_profile(np.array([0.5, -0.1]), p)
        with pytest.raises(ValueError):
            tail_profile(np.array([np.nan, 0.5]), p)
