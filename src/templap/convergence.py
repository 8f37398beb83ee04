"""Convergence studies: error norms, rates, the study runner, report text."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import BoundarySpec, assemble_operator, assemble_rhs, materialize_dense
from .core import Grid, SchemeParams
from .preconditioners import build_band_compensated_ichol, build_tchan_precond
from .problems import example1_exact, example1_f, example2_setup, example3_setup
from .solvers import SolveReport, _one_blas_thread, check_stopping_rule, pcg_solve

SOLVERS = ("cg", "pcg-ichol", "pcg-tchan", "dense")
RATE_ABSENT = "--"


@_one_blas_thread()
def error_norms(u_ref: np.ndarray, u_h: np.ndarray, h: float) -> tuple[float, float]:
    """Discrete L2 norm sqrt(h sum d_i^2) and max norm of the difference.

    Held to one BLAS thread like pcg_solve: OpenBLAS splits ``d @ d`` over
    its pool above 10000 entries, which changes the last bit of the L2 norm
    with the pool size.
    """
    u_ref = np.asarray(u_ref, dtype=float)
    u_h = np.asarray(u_h, dtype=float)
    if u_ref.shape != u_h.shape:
        raise ValueError(f"length mismatch: {u_ref.shape} vs {u_h.shape}")
    d = u_ref - u_h
    return float(math.sqrt(h * float(d @ d))), float(np.max(np.abs(d)))


def restrict_to_coarse(u_fine: np.ndarray, m_coarse: int) -> np.ndarray:
    """Values of a fine-grid vector at the coarse nodes of a nested refinement.

    With m_coarse = 2^J - 1 and m_fine = 2^{J+1} - 1, coarse node i sits at
    fine node 2i, i.e. the odd 0-based indices.
    """
    u_fine = np.asarray(u_fine)
    if u_fine.size != 2 * m_coarse + 1:
        raise ValueError(
            f"grids are not nested: fine size {u_fine.size}, coarse size {m_coarse}"
        )
    return u_fine[1::2]


def compute_rates(errors, hs, log_corrected: bool = False):
    """Observed orders from errors on successively refined grids.

    Plain: ln(e1/e2) / ln(h1/h2) per adjacent pair.  The log-corrected
    variant weights the error ratio by |ln h2| / |ln h1|, matching schemes
    whose truncation error carries a |ln h| factor; a mesh width of 1, where
    that factor vanishes, leaves it undefined.  A zero error leaves the rate
    undefined (None).
    """
    errors = list(errors)
    hs = list(hs)
    if len(errors) != len(hs):
        raise ValueError("need one mesh size per error")
    rates = []
    for (e1_, h1), (e2_, h2) in zip(zip(errors, hs), zip(errors[1:], hs[1:])):
        if e1_ == 0.0 or e2_ == 0.0 or (log_corrected and 1.0 in (h1, h2)):
            rates.append(None)
            continue
        ratio = e1_ / e2_
        if log_corrected:
            ratio *= abs(math.log(h2)) / abs(math.log(h1))
        rates.append(math.log(ratio) / math.log(h1 / h2))
    return rates


@dataclass(frozen=True)
class ExperimentConfig:
    """One convergence study: problem id, parameters, refinement levels, solver.

    Levels are exponents J with M = 2^J - 1 interior nodes (problems 1 and
    3, so refinements nest) or M = 2^J (problem 2).  The domain is (0, 1)
    for problems 1-2 and (-radius, radius) for problem 3.  The PCG
    tolerance must lie in (0, 1) and ``max_iter`` be None or at least 1.
    """

    example: int
    params: SchemeParams
    levels: tuple[int, ...]
    solver: str = "pcg-tchan"
    tolerance: float = 1e-9
    band: int = 10
    radius: float = 1.0
    max_iter: int | None = None

    def __post_init__(self):
        if self.example not in (1, 2, 3):
            raise ValueError(f"unknown example id {self.example}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; pick one of {SOLVERS}")
        check_stopping_rule(self.tolerance, self.max_iter)
        lv = tuple(self.levels)
        if len(lv) == 0 or list(lv) != sorted(set(lv)):
            raise ValueError("levels must be strictly ascending and nonempty")
        object.__setattr__(self, "levels", lv)

    def grid_for(self, J: int) -> Grid:
        if self.example == 2:
            M = 2 ** J
        else:
            M = 2 ** J - 1
        if self.example == 3:
            return Grid(-self.radius, self.radius, M)
        return Grid(0.0, 1.0, M)


@dataclass
class LevelResult:
    J: int
    M: int
    l2_err: float
    linf_err: float
    l2_rate: float | None
    linf_rate: float | None
    iterations: int
    seconds: float
    converged: bool = True


@dataclass
class ConvergenceReport:
    config: ExperimentConfig
    levels: list[LevelResult] = field(default_factory=list)
    log_corrected: bool = False

    @property
    def all_converged(self) -> bool:
        return all(lv.converged for lv in self.levels)


def _solve_level(config: ExperimentConfig, grid: Grid, F: np.ndarray):
    op = assemble_operator(config.params, grid)
    if config.solver == "dense":
        start = time.perf_counter()
        U = np.linalg.solve(materialize_dense(op), F)
        return U, SolveReport(0, np.empty(0), time.perf_counter() - start, "converged")
    if config.solver == "cg":
        precond = None
    elif config.solver == "pcg-ichol":
        precond = build_band_compensated_ichol(op, k=config.band)
    else:
        precond = build_tchan_precond(op)
    return pcg_solve(op, F, precond, tol=config.tolerance, max_iter=config.max_iter)


def _level_system(config: ExperimentConfig, grid: Grid):
    """Right-hand side and exact interior values (None for problem 3, lam > 0)."""
    params = config.params
    if config.example == 1:
        f = example1_f(params, grid)
        boundary = BoundarySpec()
        exact = example1_exact(grid.interior)
    elif config.example == 2:
        f, boundary, exact = example2_setup(params, grid)
    else:
        f, boundary, exact = example3_setup(params, grid)
    F = assemble_rhs(f, boundary, params, grid)
    return F, exact


def run_convergence_study(config: ExperimentConfig) -> ConvergenceReport:
    """Assemble, solve, and measure errors at every refinement level.

    Problems with known solutions compare against exact nodal values; for
    problem 3 with lam > 0 the error at level J is the norm of
    U_{J+1} - U_J restricted to the coarse nodes, so one extra level is
    solved beyond the last requested.
    """
    params = config.params
    log_corrected = params.is_log_case and params.s == 1 and params.s1 == 1
    successive = config.example == 3 and params.lam > 0.0
    solve_levels = list(config.levels)
    if successive:
        if any(b - a != 1 for a, b in zip(solve_levels, solve_levels[1:])):
            raise ValueError("successive-refinement errors need contiguous levels")
        solve_levels.append(config.levels[-1] + 1)

    solved = {}  # J -> (grid, exact values or None, solution, solve report)
    for J in solve_levels:
        grid = config.grid_for(J)
        F, exact = _level_system(config, grid)
        solved[J] = (grid, exact, *_solve_level(config, grid, F))

    report = ConvergenceReport(config=config, log_corrected=log_corrected)
    for J in config.levels:
        grid, exact, U, rep = solved[J]
        ref = restrict_to_coarse(solved[J + 1][2], grid.M) if successive else exact
        l2, linf = error_norms(ref, U, grid.h)
        report.levels.append(LevelResult(
            J=J, M=grid.M, l2_err=l2, linf_err=linf, l2_rate=None, linf_rate=None,
            iterations=rep.iterations, seconds=rep.wall_time, converged=rep.converged,
        ))

    hs = [solved[J][0].h for J in config.levels]
    l2_rates = compute_rates([lv.l2_err for lv in report.levels], hs, log_corrected)
    linf_rates = compute_rates([lv.linf_err for lv in report.levels], hs, log_corrected)
    for lv, r2, ri in zip(report.levels[1:], l2_rates, linf_rates):
        lv.l2_rate, lv.linf_rate = r2, ri
    return report


# -- report text --------------------------------------------------------------

_COLUMNS = ("J", "M", "L2_err", "L2_rate", "Linf_err", "Linf_rate", "iters", "seconds")


def _rate(rate: float | None) -> str:
    return RATE_ABSENT if rate is None else f"{rate:.2f}"


def _rows(report: ConvergenceReport):
    for lv in report.levels:  # errors and seconds to 5 significant digits
        yield (
            str(lv.J), str(lv.M),
            f"{lv.l2_err:.4e}", _rate(lv.l2_rate),
            f"{lv.linf_err:.4e}", _rate(lv.linf_rate),
            str(lv.iterations), f"{lv.seconds:.4e}",
        )


def format_report(report: ConvergenceReport, fmt: str = "markdown") -> str:
    if fmt == "csv":
        lines = [",".join(_COLUMNS)]
        lines += [",".join(row) for row in _rows(report)]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join(_COLUMNS) + " |",
                 "|" + "|".join("---" for _ in _COLUMNS) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in _rows(report)]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'markdown'")
