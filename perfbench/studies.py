"""The benchmark's workloads and the golden-value check of their results.

A workload is a fixed set of convergence studies.  One pass runs every study
once, closed loop (the next study starts when the previous one returns) in
one process; the seed only permutes the order within a pass.

Import this module only after ``perfbench.pin_threads()``: importing it
imports templap from the checkout's ``src/`` (SetupError when there is none).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from perfbench import SetupError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Golden tolerances, set from a measurement: switching OpenBLAS from two
# threads to one (reduction order only) moved errors by up to 2.5e-5
# relative and iteration counts by 1 on 4 of 54 levels.  A changed
# discretization moves errors by far more than 1e-4 (see the self-tests).
ERR_RTOL = 1e-4
RATE_ATOL = 1e-3
ITER_ATOL = 1


def load_templap():
    """Import templap from this checkout's ``src/`` and from nowhere else."""
    if not (SRC / "templap" / "__init__.py").is_file():
        raise SetupError(f"no templap sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import templap

    if Path(templap.__file__).resolve().parent != SRC / "templap":
        raise SetupError(f"imported templap from {templap.__file__}, not from {SRC}")
    return templap


load_templap()

from templap import ExperimentConfig, SchemeParams  # noqa: E402

# (beta, s, s1): each beta with its two admissible selector pairs.
PAPER_ROWS = ((0.5, 0, 0), (0.5, 1, 1), (1.0, 0, 1), (1.0, 1, 1), (1.5, 0, 1), (1.5, 1, 1))
EXIT_ROWS = ((0.5, 0, 0), (1.0, 1, 1), (1.5, 1, 1))


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[ExperimentConfig, ...]


def _p1_tables():
    return tuple(ExperimentConfig(example=1, params=SchemeParams(beta, lam, s, s1),
                                  levels=(12, 13, 14), solver="pcg-tchan")
                 for lam in (0.5, 3.0) for beta, s, s1 in PAPER_ROWS)


def _p2_exterior():
    return tuple(ExperimentConfig(example=2, params=SchemeParams(beta, lam, s, s1),
                                  levels=(8, 9, 10), solver="pcg-tchan")
                 for lam in (0.0, 3.0) for beta, s, s1 in PAPER_ROWS)


def _p3_exit_solve():
    return tuple(ExperimentConfig(example=3, params=SchemeParams(beta, 0.0, s, s1),
                                  levels=(13, 14, 15), solver=solver, band=10, radius=1.0)
                 for beta, s, s1 in EXIT_ROWS for solver in ("pcg-tchan", "pcg-ichol"))


# Why each workload: see BENCHMARK.json at the root and README.md here.
WORKLOADS = {w.name: w for w in (
    Workload("p1-tables", _p1_tables()),
    Workload("p2-exterior", _p2_exterior()),
    Workload("p3-exit-solve", _p3_exit_solve()),
)}


def study_id(cfg: ExperimentConfig) -> str:
    p = cfg.params
    return (f"ex{cfg.example}/beta={p.beta}/lam={p.lam}/s={p.s}{p.s1}"
            f"/{cfg.solver}/J={cfg.levels[0]}..{cfg.levels[-1]}")


def describe(workload: Workload) -> dict:
    """Parameters and M values of every study, for the run's output."""
    return {
        "name": workload.name,
        "studies": [{
            "id": study_id(cfg), "example": cfg.example, "beta": cfg.params.beta,
            "lam": cfg.params.lam, "s": cfg.params.s, "s1": cfg.params.s1,
            "solver": cfg.solver, "band": cfg.band if cfg.solver == "pcg-ichol" else None,
            "tolerance": cfg.tolerance, "levels": list(cfg.levels),
            "M": [cfg.grid_for(J).M for J in cfg.levels],
        } for cfg in workload.configs],
    }


def summarize(report) -> list[dict]:
    """The checked quantities of a ConvergenceReport, one dict per level."""
    return [{"J": lv.J, "M": lv.M, "l2_err": lv.l2_err, "linf_err": lv.linf_err,
             "l2_rate": lv.l2_rate, "linf_rate": lv.linf_rate,
             "iterations": lv.iterations, "converged": lv.converged}
            for lv in report.levels]


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["studies"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read golden values from {path}: {exc}") from exc


def _close(got, want, rtol: float = 0.0, atol: float = 0.0) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


def check_study(levels: list[dict], golden: list[dict] | None) -> list[str]:
    """Mismatches of one study's per-level results against its golden values."""
    if golden is None:
        return ["no golden values for this study"]
    if [lv["J"] for lv in levels] != [g["J"] for g in golden]:
        return [f"levels {[lv['J'] for lv in levels]} != {[g['J'] for g in golden]}"]
    problems = []
    for lv, g in zip(levels, golden):
        J = lv["J"]
        if not lv["converged"]:
            problems.append(f"J={J}: PCG did not converge")
        for key in ("l2_err", "linf_err"):
            if not _close(lv[key], g[key], rtol=ERR_RTOL):
                problems.append(f"J={J}: {key} {lv[key]!r} != {g[key]!r}")
        for key in ("l2_rate", "linf_rate"):
            if not _close(lv[key], g[key], atol=RATE_ATOL):
                problems.append(f"J={J}: {key} {lv[key]!r} != {g[key]!r}")
        if abs(lv["iterations"] - g["iterations"]) > ITER_ATOL:
            problems.append(f"J={J}: iterations {lv['iterations']} != {g['iterations']}")
    return problems
