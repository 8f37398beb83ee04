"""Error norms, rates, study runner, report text."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from templap import (
    ConvergenceReport,
    ExperimentConfig,
    SchemeParams,
    compute_rates,
    error_norms,
    format_report,
    run_convergence_study,
)
from templap import assembly, problems, tails
from templap.convergence import LevelResult, restrict_to_coarse

SRC = Path(__file__).resolve().parents[1] / "src"


class TestErrorNorms:
    def test_identical_vectors(self):
        v = np.linspace(0.0, 1.0, 9)
        assert error_norms(v, v, 0.1) == (0.0, 0.0)

    def test_all_ones_difference(self):
        M = 15
        h = 1.0 / (M + 1)
        l2, linf = error_norms(np.ones(M), np.zeros(M), h)
        assert l2 == pytest.approx(math.sqrt(M / (M + 1.0)), rel=1e-14)
        assert linf == 1.0

    @pytest.mark.parametrize("solver", ["pcg-tchan", "pcg-ichol"])
    def test_level_does_not_depend_on_blas_threads(self, solver):
        # OpenBLAS splits ddot over its pool above 10000 entries.  At
        # M = 16383 this level's L2 error differed in the last bit between
        # one and two threads until error_norms ran on one thread.  The
        # banded Cholesky factor is computed by numpy's OpenBLAS as well,
        # outside the one-thread solve.
        code = ("import dataclasses, json, templap\n"
                f"cfg = templap.ExperimentConfig(example=3, levels=(14,), solver={solver!r},\n"
                "    params=templap.SchemeParams(beta=1.5, lam=0.0, s=1, s1=1))\n"
                "level = dataclasses.asdict(templap.run_convergence_study(cfg).levels[0])\n"
                "level.pop('seconds')\n"
                "print(json.dumps(level))\n")
        levels = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True).stdout
            levels.append(json.loads(out))
        assert levels[0]["M"] == 16383
        assert levels[0] == levels[1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_norms(np.ones(4), np.ones(5), 0.1)


class TestRestriction:
    def test_nested_indexing(self):
        J = 4
        m_coarse = 2 ** J - 1
        m_fine = 2 ** (J + 1) - 1
        x_fine = np.linspace(0.0, 1.0, m_fine + 2)[1:-1]
        x_coarse = np.linspace(0.0, 1.0, m_coarse + 2)[1:-1]
        np.testing.assert_allclose(restrict_to_coarse(x_fine, m_coarse), x_coarse,
                                   rtol=1e-14)

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            restrict_to_coarse(np.zeros(16), 7)


class TestRates:
    def test_plain_halving(self):
        rates = compute_rates([4e-2, 1e-2], [0.1, 0.05])
        assert rates[0] == pytest.approx(2.0, rel=1e-12)

    def test_log_corrected_equal_errors(self):
        rates = compute_rates([1.0, 1.0], [0.5, 0.25], log_corrected=True)
        want = math.log(math.log(0.25) / math.log(0.5)) / math.log(2.0)
        assert rates[0] == pytest.approx(want, rel=1e-12)
        assert rates[0] == pytest.approx(1.0, rel=1e-12)

    def test_log_corrected_across_unit_mesh_width(self):
        # |ln h| vanishes at h = 1 and changes sign across it: no rate at
        # h = 1, and the weight |ln h2| / |ln h1| on either side of it.
        assert compute_rates([1.0, 0.5], [1.0, 0.5], log_corrected=True) == [None]
        assert compute_rates([1.0, 0.5, 0.2], [2.0, 1.0, 0.5], log_corrected=True) == [None, None]
        rate = compute_rates([1.0, 0.5], [1.5, 0.75], log_corrected=True)[0]
        want = math.log(2.0 * abs(math.log(0.75)) / math.log(1.5)) / math.log(2.0)
        assert rate == pytest.approx(want, rel=1e-12)

    def test_zero_error_yields_absent_rate(self):
        assert compute_rates([1e-3, 0.0], [0.1, 0.05]) == [None]

    def test_length_contract(self):
        with pytest.raises(ValueError):
            compute_rates([1.0, 0.5], [0.1])


class TestStudyRunner:
    def test_manufactured_orders_midrange_beta(self):
        # Orders away from the tabulated beta values: 2 - beta for the plain
        # scheme, and second order for the shifted pair below one.
        cfg = ExperimentConfig(example=1,
                               params=SchemeParams(beta=0.7, lam=1.0, s=0, s1=0),
                               levels=(7, 8, 9), solver="pcg-tchan")
        report = run_convergence_study(cfg)
        for lv in report.levels[1:]:
            assert abs(lv.l2_rate - 1.3) <= 0.1
        cfg2 = ExperimentConfig(example=1,
                                params=SchemeParams(beta=1.3, lam=1.0, s=1, s1=1),
                                levels=(7, 8, 9), solver="pcg-tchan")
        report2 = run_convergence_study(cfg2)
        assert abs(report2.levels[-1].l2_rate - 1.7) <= 0.1

    def test_log_corrected_flag_set_automatically(self):
        cfg = ExperimentConfig(example=1,
                               params=SchemeParams(beta=1.0, lam=0.5, s=1, s1=1),
                               levels=(7, 8), solver="dense")
        assert run_convergence_study(cfg).log_corrected
        cfg2 = ExperimentConfig(example=1,
                                params=SchemeParams(beta=1.0, lam=0.5, s=0, s1=1),
                                levels=(7, 8), solver="dense")
        assert not run_convergence_study(cfg2).log_corrected

    def test_successive_refinement_study(self):
        cfg = ExperimentConfig(example=3,
                               params=SchemeParams(beta=0.5, lam=3.0, s=1, s1=1),
                               levels=(7, 8, 9), solver="pcg-tchan")
        report = run_convergence_study(cfg)
        errs = [lv.l2_err for lv in report.levels]
        assert all(e is not None and e > 0.0 for e in errs)
        assert errs == sorted(errs, reverse=True)  # monotone decay
        assert report.levels[-1].l2_rate is not None

    def test_successive_refinement_needs_contiguous_levels(self):
        cfg = ExperimentConfig(example=3,
                               params=SchemeParams(beta=0.5, lam=3.0, s=1, s1=1),
                               levels=(7, 9), solver="pcg-tchan")
        with pytest.raises(ValueError):
            run_convergence_study(cfg)

    def test_dense_solver_route(self):
        cfg = ExperimentConfig(example=3,
                               params=SchemeParams(beta=1.5, lam=0.0, s=1, s1=1),
                               levels=(6, 7), solver="dense")
        report = run_convergence_study(cfg)
        assert report.all_converged
        assert report.levels[0].iterations == 0

    def test_config_validation(self):
        p = SchemeParams(beta=0.5, s=0, s1=0)
        with pytest.raises(ValueError):
            ExperimentConfig(example=4, params=p, levels=(7,))
        with pytest.raises(ValueError):
            ExperimentConfig(example=1, params=p, levels=(8, 7))
        with pytest.raises(ValueError):
            ExperimentConfig(example=1, params=p, levels=(7,), solver="gmres")
        for bad in (dict(tolerance=0.0), dict(tolerance=math.nan), dict(tolerance=math.inf),
                    dict(tolerance=1.0), dict(max_iter=0)):
            with pytest.raises(ValueError):
                ExperimentConfig(example=1, params=p, levels=(7,), **bad)

    def test_problem1_evaluates_each_tail_once_per_level(self, monkeypatch):
        # The source and the diagonal need the same two tail profiles,
        # T(x) and T(1 - x).  On the uniform grid 1 - x is x reversed, so
        # one tail sweep per level serves all four.
        sweeps = []
        real = tails._evaluate

        def counting(*args):
            sweeps.append(args)
            return real(*args)

        assembly.level_tails.cache_clear()
        monkeypatch.setattr(tails, "_evaluate", counting)
        cfg = ExperimentConfig(example=1, params=SchemeParams(beta=0.65, lam=1.3, s=0, s1=0),
                               levels=(5, 6, 7))
        run_convergence_study(cfg)
        assert len(sweeps) == len(cfg.levels)

    def test_problem1_unit_order_takes_one_special_function_sweep_per_level(self, monkeypatch):
        # beta = 1: the tail is E_2(lam d) / d and the source needs E_1 at x
        # and at 1 - x; each is evaluated once per level, on x.
        calls = {1: 0, 2: 0}
        real = tails.expint

        def counted(p, x):
            calls[p] += 1
            return real(p, x)

        for module in (tails, problems):
            monkeypatch.setattr(module, "expint", counted)
        cfg = ExperimentConfig(example=1, params=SchemeParams(beta=1.0, lam=3.0, s=1, s1=1),
                               levels=(5, 6, 7))
        run_convergence_study(cfg)
        assert calls == {1: len(cfg.levels), 2: len(cfg.levels)}


class TestReportEmission:
    def _report(self, n_levels):
        cfg = ExperimentConfig(example=1, params=SchemeParams(beta=0.5, s=0, s1=0),
                               levels=tuple(range(7, 7 + max(n_levels, 1))))
        rep = ConvergenceReport(config=cfg)
        rows = [
            LevelResult(J=7, M=127, l2_err=2.41728e-4, linf_err=3.9e-4, l2_rate=None,
                        linf_rate=None, iterations=9, seconds=0.0123),
            LevelResult(J=8, M=255, l2_err=8.5e-5, linf_err=1.4e-4, l2_rate=1.508,
                        linf_rate=1.497, iterations=9, seconds=0.025),
        ]
        rep.levels = rows[:n_levels]
        return rep

    def test_empty_report_is_header_only(self):
        lines = format_report(self._report(0), "csv").splitlines()
        assert lines == ["J,M,L2_err,L2_rate,Linf_err,Linf_rate,iters,seconds"]

    def test_single_level_has_absent_rate_marker(self):
        text = format_report(self._report(1), "csv")
        row = text.splitlines()[1].split(",")
        assert row[3] == "--" and row[5] == "--"

    def test_csv_round_trip_at_printed_precision(self):
        report = self._report(2)
        first = format_report(report, "csv")
        # Re-parse into a report and re-emit: identical text.
        parsed = ConvergenceReport(config=report.config)
        for line in first.splitlines()[1:]:
            J, M, l2, r2, li, ri, it, sec = line.split(",")
            parsed.levels.append(LevelResult(
                J=int(J), M=int(M), l2_err=float(l2),
                l2_rate=None if r2 == "--" else float(r2),
                linf_err=float(li), linf_rate=None if ri == "--" else float(ri),
                iterations=int(it), seconds=float(sec)))
        assert format_report(parsed, "csv") == first

    def test_exact_text(self):
        report = self._report(2)
        assert format_report(report, "csv") == (
            "J,M,L2_err,L2_rate,Linf_err,Linf_rate,iters,seconds\n"
            "7,127,2.4173e-04,--,3.9000e-04,--,9,1.2300e-02\n"
            "8,255,8.5000e-05,1.51,1.4000e-04,1.50,9,2.5000e-02\n")
        assert format_report(report, "markdown") == (
            "| J | M | L2_err | L2_rate | Linf_err | Linf_rate | iters | seconds |\n"
            "|---|---|---|---|---|---|---|---|\n"
            "| 7 | 127 | 2.4173e-04 | -- | 3.9000e-04 | -- | 9 | 1.2300e-02 |\n"
            "| 8 | 255 | 8.5000e-05 | 1.51 | 1.4000e-04 | 1.50 | 9 | 2.5000e-02 |\n")

    def test_markdown_shape(self):
        text = format_report(self._report(2), "markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| J | M |")
        assert set(lines[1].replace("|", "")) == {"-"}
        assert len(lines) == 4

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            format_report(self._report(1), "tsv")
