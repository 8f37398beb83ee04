"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS`` line (visible with pytest -s)
after its assertions; reference error magnitudes and iteration counts are
the published benchmark values for these discretizations, frozen below,
except for two Table 1 rows whose published values belong to a variant of
the scheme (see TABLE1_ERRORS).
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
import scipy.integrate

from templap import (
    BoundarySpec,
    ExperimentConfig,
    Grid,
    SchemeParams,
    assemble_operator,
    assemble_rhs,
    build_band_compensated_ichol,
    build_tchan_precond,
    compute_rates,
    error_norms,
    example1_exact,
    example1_f,
    materialize_dense,
    offdiag_row_sums,
    pcg_solve,
    run_convergence_study,
    tail_profile,
)
from templap.coefficients import (
    boundary_left_profile,
    coeff_near_diag,
    pair_sum_profile,
    singular_cell_weight,
)
from templap.problems import example2_exterior
from coefficient_oracle import coeff_quadrature_oracle

# ---------------------------------------------------------------------------
# Benchmark reference data (problem 1 on (0,1), M = 2^J - 1).
#
# Scheme rows are keyed by (beta, s, s1); the published tables label the
# first-order variants for beta >= 1 with the selectors transposed, but only
# (s, s1) = (0, 1) is admissible there (s1 = 0 breaks the singular-cell
# weight), so that pairing is what the rows mean.

THEORY_ORDER = {
    (0.5, 0, 0): 1.5, (0.5, 1, 1): 2.0,
    (1.0, 0, 1): 1.0, (1.0, 1, 1): 2.0,   # (1,1) rate uses the log correction
    (1.5, 0, 1): 0.5, (1.5, 1, 1): 1.5,
}

# errors[(beta, s, s1, lam)][J] = (L2, Linf)
#
# Ten rows are the published values.  The two first-order beta = 1 rows,
# (1.0, 0, 1, 0.5) and (1.0, 0, 1, 3.0), hold the errors of the scheme
# assembled here instead; their published values are kept, and checked, in
# TABLE1_UNTEMPERED_ENDPOINT_ERRORS below.  Those published values come
# from a variant whose endpoint weights in rows i >= 2 lack the tempering
# factor e^{-lam i h}: that variant reproduces all twelve of them to 2.4e-5
# relative (print precision) with the same CG and circulant-PCG iteration
# counts, so the counts do not tell the two systems apart.  The same change
# moves the other ten rows off their published values by 1.3% to 9300x, and
# the program matches those ten to 5e-4 at J = 12 and 1.1% at J = 14.  The
# tempered weight is the interpolated factor (u(x_i) - u(y)) e^{-lam|x_i-y|}
# / |x_i-y|^s of the defining integrand taken at the node y = a; criterion
# 8's brute-force M = 7 assembly accepts it at (beta, lam, s, s1) =
# (1, 3, 0, 1) and rejects the variant.  The two rows below were measured
# with the assembled scheme (circulant PCG, tol 1e-9); the published values
# are 3.3-3.7x larger at lam = 3 and 1.5-1.6x larger at lam = 0.5.
TABLE1_ERRORS = {
    (0.5, 0, 0, 0.5): {12: (2.4068e-06, 3.7160e-06), 13: (8.5343e-07, 1.3177e-06),
                       14: (3.0234e-07, 4.6680e-07)},
    (0.5, 1, 1, 0.5): {12: (2.6157e-09, 4.1651e-09), 13: (6.5490e-10, 1.0428e-09),
                       14: (1.6391e-10, 2.6096e-10)},
    (1.0, 0, 1, 0.5): {12: (8.4364e-06, 1.2811e-05), 13: (4.2271e-06, 6.4191e-06),
                       14: (2.1159e-06, 3.2131e-06)},
    (1.0, 1, 1, 0.5): {12: (1.0989e-08, 1.6835e-08), 13: (2.9312e-09, 4.4886e-09),
                       14: (7.7258e-10, 1.1850e-09)},
    (1.5, 0, 1, 0.5): {12: (1.2882e-04, 1.9477e-04), 13: (9.1256e-05, 1.3797e-04),
                       14: (6.4593e-05, 9.7660e-05)},
    (1.5, 1, 1, 0.5): {12: (2.4683e-07, 3.7330e-07), 13: (8.7460e-08, 1.3226e-07),
                       14: (3.0694e-08, 4.6482e-08)},
    (0.5, 0, 0, 3.0): {12: (7.0941e-06, 1.0474e-05), 13: (2.5222e-06, 3.7238e-06),
                       14: (8.9518e-07, 1.3216e-06)},
    (0.5, 1, 1, 3.0): {12: (2.7141e-08, 3.9151e-08), 13: (6.8022e-09, 9.8127e-09),
                       14: (1.7036e-09, 2.4577e-09)},
    (1.0, 0, 1, 3.0): {12: (1.7382e-05, 2.5873e-05), 13: (8.7629e-06, 1.3043e-05),
                       14: (4.4011e-06, 6.5510e-06)},
    (1.0, 1, 1, 3.0): {12: (1.2222e-07, 1.8135e-07), 13: (3.2845e-08, 4.8751e-08),
                       14: (8.7695e-09, 1.3024e-08)},
    (1.5, 0, 1, 3.0): {12: (1.8667e-04, 2.8056e-04), 13: (1.3314e-04, 2.0010e-04),
                       14: (9.4560e-05, 1.4212e-04)},
    (1.5, 1, 1, 3.0): {12: (2.1634e-06, 3.2512e-06), 13: (7.6763e-07, 1.1536e-06),
                       14: (2.7217e-07, 4.0906e-07)},
}

# Published Table 1 values of the two first-order beta = 1 rows; criterion 2
# asserts them to 1e-3 relative against the untempered-endpoint system they
# come from (see TABLE1_ERRORS).
TABLE1_UNTEMPERED_ENDPOINT_ERRORS = {
    (1.0, 0, 1, 0.5): {12: (1.3524e-05, 1.9526e-05), 13: (6.7700e-06, 9.7756e-06),
                       14: (3.3872e-06, 4.8911e-06)},
    (1.0, 0, 1, 3.0): {12: (6.3501e-05, 8.6565e-05), 13: (3.1824e-05, 4.3391e-05),
                       14: (1.5932e-05, 2.1725e-05)},
}

# iterations[(beta, s, s1, lam)][solver][J]
TABLE23_ITERS = {
    (0.5, 0, 0, 0.5): {"cg": {12: 97, 13: 115, 14: 138}, "ichol": {12: 40, 13: 44, 14: 49},
                       "tchan": {12: 11, 13: 11, 14: 11}},
    (0.5, 1, 1, 0.5): {"cg": {12: 74, 13: 88, 14: 105}, "ichol": {12: 39, 13: 43, 14: 49},
                       "tchan": {12: 10, 13: 11, 14: 11}},
    (1.0, 0, 1, 0.5): {"cg": {12: 329, 13: 468, 14: 664}, "ichol": {12: 47, 13: 58, 14: 71},
                       "tchan": {12: 15, 13: 16, 14: 17}},
    (1.0, 1, 1, 0.5): {"cg": {12: 337, 13: 479, 14: 680}, "ichol": {12: 47, 13: 58, 14: 71},
                       "tchan": {12: 15, 13: 16, 14: 17}},
    (1.5, 0, 1, 0.5): {"cg": {12: 1363, 13: 2300, 14: 3880}, "ichol": {12: 30, 13: 35, 14: 42},
                       "tchan": {12: 29, 13: 34, 14: 41}},
    (1.5, 1, 1, 0.5): {"cg": {12: 1383, 13: 2333, 14: 3935}, "ichol": {12: 30, 13: 35, 14: 42},
                       "tchan": {12: 29, 13: 33, 14: 39}},
    (0.5, 0, 0, 3.0): {"cg": {12: 127, 13: 152, 14: 182}, "ichol": {12: 70, 13: 88, 14: 108},
                       "tchan": {12: 12, 13: 12, 14: 12}},
    (0.5, 1, 1, 3.0): {"cg": {12: 97, 13: 116, 14: 139}, "ichol": {12: 70, 13: 88, 14: 107},
                       "tchan": {12: 11, 13: 12, 14: 12}},
    (1.0, 0, 1, 3.0): {"cg": {12: 376, 13: 534, 14: 758}, "ichol": {12: 57, 13: 74, 14: 95},
                       "tchan": {12: 17, 13: 17, 14: 19}},
    (1.0, 1, 1, 3.0): {"cg": {12: 385, 13: 547, 14: 776}, "ichol": {12: 57, 13: 75, 14: 95},
                       "tchan": {12: 17, 13: 17, 14: 19}},
    (1.5, 0, 1, 3.0): {"cg": {12: 1423, 13: 2400, 14: 4047}, "ichol": {12: 29, 13: 35, 14: 42},
                       "tchan": {12: 30, 13: 37, 14: 42}},
    (1.5, 1, 1, 3.0): {"cg": {12: 1444, 13: 2435, 14: 4104}, "ichol": {12: 29, 13: 36, 14: 42},
                       "tchan": {12: 30, 13: 37, 14: 42}},
}

# Problem 2 (M = 2^J): published rates at J = 12, 13 per norm; the rate at
# J = 11 (computed here from a J = 10 run) is held to the same target.  The
# beta = 1, (1,1) rows are log-corrected; its lam = 0 cell is only required
# to reach second order.
TABLE4_RATES = {
    (0.5, 0, 0, 0.0): {"l2": 1.50, "linf": 1.50},
    (0.5, 0, 0, 3.0): {"l2": 1.49, "linf": 1.49},
    (0.5, 1, 1, 0.0): {"l2": 2.00, "linf": 2.01},
    (0.5, 1, 1, 3.0): {"l2": 2.00, "linf": 2.00},
    (1.0, 0, 1, 0.0): {"l2": 1.00, "linf": 1.00},
    (1.0, 0, 1, 3.0): {"l2": 1.00, "linf": 1.00},
    (1.0, 1, 1, 0.0): {"l2": None, "linf": None},  # at least 2.0, checked separately
    (1.0, 1, 1, 3.0): {"l2": 2.02, "linf": 2.02},
    (1.5, 0, 1, 0.0): {"l2": 0.50, "linf": 0.50},
    (1.5, 0, 1, 3.0): {"l2": 0.49, "linf": 0.49},
    (1.5, 1, 1, 0.0): {"l2": 2.01, "linf": 2.01},
    (1.5, 1, 1, 3.0): {"l2": 1.50, "linf": 1.50},
}

# Problem 3 with lam = 0, r = 1 (M = 2^J - 1): rates at J = 12, 13.
TABLE5_RATES = {
    (0.5, 0, 0): {"plain": {"l2": (0.75, 0.75), "linf": (0.25, 0.25)}},
    (1.0, 1, 1): {"plain": {"l2": (0.94, 0.94), "linf": (0.50, 0.50)},
                  "log": {"l2": (1.08, 1.07), "linf": (0.64, 0.63)}},
    (1.5, 1, 1): {"plain": {"l2": (0.99, 1.00), "linf": (0.75, 0.75)}},
}

# Problem 3 with lam = 3 has no closed form; the published
# successive-refinement error magnitudes at J = 11..13 pin down the
# tempered-branch normalization constant (f = 1 is fixed, so the solution
# scale is 1/c).  Reproduced here to five digits.
TABLE5_TEMPERED_ERRORS = {
    (0.5, 0, 0): {"l2": (3.3886e-02, 1.6834e-02, 8.5734e-03),
                  "linf": (2.2117e-01, 1.8113e-01, 1.4951e-01)},
    (1.5, 1, 1): {"l2": (1.8108e-04, 1.1576e-04, 6.9126e-05),
                  "linf": (5.7640e-04, 3.4404e-04, 2.0489e-04)},
}

EX1_COMBOS = list(THEORY_ORDER)
LAMS = (0.5, 3.0)
TOL = 1e-9
# Criterion 2 compares converged errors: at TOL the (0.5, 1, 1, 0.5) row's
# J = 14 Linf error reads 1.0% off its published value after 11 iterations,
# and 1.6e-4 off at 1e-12.  Criterion 5 keeps TOL, which pins the paper's
# iteration counts.
CONVERGED_TOL = 1e-12


def _report(num, detail):
    print(f"[criterion {num}] PASS: {detail}")


def _params(beta, s, s1, lam):
    return SchemeParams(beta=beta, lam=lam, s=s, s1=s1)


@pytest.fixture(scope="module")
def ex1():
    """Problem-1 systems and circulant-PCG solutions for J = 10..14."""
    data = {}
    for (beta, s, s1) in EX1_COMBOS:
        for lam in LAMS:
            params = _params(beta, s, s1, lam)
            per_level = {}
            for J in range(10, 15):
                grid = Grid(0.0, 1.0, 2 ** J - 1)
                op = assemble_operator(params, grid)
                F = example1_f(params, grid)
                U, rep = pcg_solve(op, F, build_tchan_precond(op), tol=TOL)
                assert rep.converged
                l2, linf = error_norms(example1_exact(grid.interior), U, grid.h)
                per_level[J] = {"op": op, "F": F, "grid": grid,
                                "errors": (l2, linf), "tchan_iters": rep.iterations}
            data[(beta, s, s1, lam)] = per_level
    return data


def test_criterion_1_problem1_convergence_orders(ex1):
    worst = 0.0
    for (beta, s, s1) in EX1_COMBOS:
        log_corrected = beta == 1.0 and s == 1 and s1 == 1
        theory = THEORY_ORDER[(beta, s, s1)]
        for lam in LAMS:
            levels = ex1[(beta, s, s1, lam)]
            hs = [levels[J]["grid"].h for J in range(10, 14)]
            for which in (0, 1):
                errs = [levels[J]["errors"][which] for J in range(10, 15)]
                assert errs == sorted(errs, reverse=True), \
                    ("errors must decay monotonically", beta, s, s1, lam)
                rates = compute_rates(errs[:4], hs, log_corrected=log_corrected)
                for rate in rates:
                    assert abs(rate - theory) <= 0.1, \
                        (beta, s, s1, lam, which, rate, theory)
                    worst = max(worst, abs(rate - theory))
    _report(1, f"12 parameter sets x 2 norms x 3 rate pairs within 0.1 of "
               f"theory (worst deviation {worst:.3f})")


def _untempered_endpoint_operator(op):
    """op with e^{-lam i h} removed from the endpoint weights of rows i >= 2.

    Problem 1 has zero exterior data, so those weights reach the system only
    through the diagonal (the row-sum identity); the variant adds
    cbeta * (1 - e^{-lam i h}) * boundary_left(i) / i^s for each endpoint.
    """
    params, grid = op.params, op.grid
    i = np.arange(2, grid.M + 1)
    left = np.zeros(grid.M)
    left[1:] = (boundary_left_profile(i, params, grid) / i.astype(float) ** params.s
                * -np.expm1(-params.lam * i * grid.h))
    return dataclasses.replace(op, diag=op.diag + params.cbeta * (left + left[::-1]))


def _converged_errors(op, F, grid):
    U, rep = pcg_solve(op, F, build_tchan_precond(op), tol=CONVERGED_TOL)
    assert rep.converged
    return error_norms(example1_exact(grid.interior), U, grid.h)


def test_criterion_2_problem1_error_magnitudes(ex1):
    # The published first-order beta = 1 rows are checked against the
    # untempered-endpoint system that produces them (see TABLE1_ERRORS).
    # On the second-order row (1.0, 1, 1, 3.0) our L2 errors exceed the
    # published ones by +3.1e-11, +3.2e-11 and +2.8e-11 at J = 12..14.  An
    # extended-precision diagonal moves ours by at most 1.6e-12 and our
    # rates stay smooth to J = 14, so the offset is not our rounding: it
    # fits an absolute floor of about 3e-11 in the published values.  It
    # is 0.3% of the J = 14 error, well inside the factor-2 band.
    worst = 1.0
    out_of_band = []
    for key, per_level in sorted(TABLE1_ERRORS.items()):
        for J, targets in sorted(per_level.items()):
            level = ex1[key][J]
            got_pair = _converged_errors(level["op"], level["F"], level["grid"])
            for norm, got, want in (("L2", got_pair[0], targets[0]),
                                    ("Linf", got_pair[1], targets[1])):
                ratio = got / want
                worst = max(worst, ratio, 1.0 / ratio)
                if not 0.5 <= ratio <= 2.0:
                    out_of_band.append(f"{key} J={J} {norm}: got {got:.4e}, "
                                       f"reference {want:.4e} (ratio {ratio:.3f})")
    worst_variant = 0.0
    for key, per_level in sorted(TABLE1_UNTEMPERED_ENDPOINT_ERRORS.items()):
        for J, targets in sorted(per_level.items()):
            level = ex1[key][J]
            got_pair = _converged_errors(_untempered_endpoint_operator(level["op"]),
                                         level["F"], level["grid"])
            for norm, got, want in (("L2", got_pair[0], targets[0]),
                                    ("Linf", got_pair[1], targets[1])):
                rel = abs(got / want - 1.0)
                worst_variant = max(worst_variant, rel)
                if rel > 1e-3:
                    out_of_band.append(f"{key} J={J} {norm} untempered endpoints: "
                                       f"got {got:.4e}, published {want:.4e} "
                                       f"(relative {rel:.1e})")
    if out_of_band:
        print(f"[criterion 2] FAIL: {len(out_of_band)} error magnitudes off "
              "their reference:")
        for line in out_of_band:
            print("    " + line)
    else:
        _report(2, f"72 error magnitudes within a factor of 2 of the reference "
                   f"values (worst factor {worst:.2f}); the 12 published "
                   f"untempered-endpoint values reproduced to {worst_variant:.1e}")
    assert not out_of_band, "\n".join(out_of_band)


def test_criterion_3_problem2_rates():
    checked = 0
    for (beta, s, s1, lam), targets in TABLE4_RATES.items():
        params = _params(beta, s, s1, lam)
        cfg = ExperimentConfig(example=2, params=params, levels=(10, 11, 12, 13),
                               solver="pcg-tchan", tolerance=TOL)
        report = run_convergence_study(cfg)
        errs = [lv.l2_err for lv in report.levels]
        assert errs == sorted(errs, reverse=True), \
            (beta, s, s1, lam, "monotone decay")
        for lv in report.levels[1:]:
            if targets["l2"] is None:
                assert lv.l2_rate >= 2.0 and lv.linf_rate >= 2.0, (beta, lam, lv.J)
            else:
                assert abs(lv.l2_rate - targets["l2"]) <= 0.1, \
                    (beta, s, s1, lam, lv.J, lv.l2_rate)
                assert abs(lv.linf_rate - targets["linf"]) <= 0.1, \
                    (beta, s, s1, lam, lv.J, lv.linf_rate)
            checked += 1
    _report(3, f"problem-2 rates at J=11..13 match the reference table "
               f"({checked} level checks across 12 parameter sets)")


def test_criterion_4_problem3_exact_solution_rates():
    for (beta, s, s1), tables in TABLE5_RATES.items():
        params = _params(beta, s, s1, 0.0)
        cfg = ExperimentConfig(example=3, params=params, levels=(11, 12, 13),
                               solver="pcg-tchan", tolerance=TOL, radius=1.0)
        report = run_convergence_study(cfg)
        errs_l2 = [lv.l2_err for lv in report.levels]
        errs_li = [lv.linf_err for lv in report.levels]
        hs = [cfg.grid_for(lv.J).h for lv in report.levels]
        for label, want_by_norm in tables.items():
            log = label == "log"
            got_l2 = compute_rates(errs_l2, hs, log_corrected=log)
            got_li = compute_rates(errs_li, hs, log_corrected=log)
            for got, want in zip(got_l2, want_by_norm["l2"]):
                assert abs(got - want) <= 0.05, (beta, label, "l2", got, want)
            for got, want in zip(got_li, want_by_norm["linf"]):
                assert abs(got - want) <= 0.05, (beta, label, "linf", got, want)
    _report(4, "problem-3 exit-time rates within 0.05 of the reference table "
               "(normalization constant validated end to end)")


def test_criterion_5_preconditioner_effectiveness(ex1):
    for key, table in TABLE23_ITERS.items():
        beta = key[0]
        levels = ex1[key]
        tchan_counts = {}
        for J in (12, 13, 14):
            op, F = levels[J]["op"], levels[J]["F"]
            tchan_iters = levels[J]["tchan_iters"]
            _, rep_ic = pcg_solve(op, F, build_band_compensated_ichol(op, k=10), tol=TOL)
            _, rep_cg = pcg_solve(op, F, None, tol=TOL, max_iter=20000)
            assert rep_ic.converged and rep_cg.converged
            for got, want in ((tchan_iters, table["tchan"][J]),
                              (rep_ic.iterations, table["ichol"][J])):
                assert abs(got - want) <= 0.5 * want, (key, J, got, want)
            assert tchan_iters < rep_cg.iterations, (key, J)
            assert rep_ic.iterations < rep_cg.iterations, (key, J)
            tchan_counts[J] = tchan_iters
        if beta <= 1.0:
            assert tchan_counts[13] - tchan_counts[12] <= 2, key
            assert tchan_counts[14] - tchan_counts[13] <= 2, key
    _report(5, "circulant and banded PCG counts within 50% of the reference "
               "tables, growth <= 2/level for beta <= 1, both beat plain CG")


def test_criterion_6_fast_path_exactness():
    rng = np.random.default_rng(2024)
    for M in (64, 256, 1024):
        grid = Grid(0.0, 1.0, M)
        op = assemble_operator(_params(1.5, 1, 1, 0.5), grid)
        dense = materialize_dense(op)
        for _ in range(50):
            v = rng.standard_normal(M)
            got, want = op.matvec(v), dense @ v
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    grid = Grid(0.0, 1.0, 255)
    op = assemble_operator(_params(0.5, 0, 0, 0.5), grid)
    F = example1_f(op.params, grid)
    U_pcg, rep = pcg_solve(op, F, build_tchan_precond(op), tol=TOL)
    U_gauss = np.linalg.solve(materialize_dense(op), F)
    rel = np.linalg.norm(U_pcg - U_gauss) / np.linalg.norm(U_gauss)
    assert rep.converged and rel <= 1e-7
    _report(6, f"FFT matvec within 1e-12 of dense at M=64/256/1024; "
               f"PCG vs direct solve at M=255: {rel:.1e} <= 1e-7")


def _random_admissible(rng):
    beta = float(rng.uniform(0.3, 1.9))
    if abs(beta - 1.0) < 5e-3:
        beta = 1.0
    lam = float(rng.uniform(0.0, 4.0))
    if beta < 1.0:
        s, s1 = (0, 0) if rng.integers(2) else (1, 1)
    else:
        s, s1 = (0, 1) if rng.integers(2) else (1, 1)
    return SchemeParams(beta=beta, lam=lam, s=s, s1=s1)


def test_criterion_7_structural_properties():
    rng = np.random.default_rng(77)
    worst_slope_err = 0.0
    for _ in range(20):
        params = _random_admissible(rng)
        for M in (15, 63, 255):
            op = assemble_operator(params, Grid(0.0, 1.0, M))
            assert np.all(op.toeplitz_col[1:] < 0.0)
            assert np.all(op.diag > 0.0)
            row_sums = offdiag_row_sums(op.toeplitz_col)
            surplus = op.diag + row_sums - op.tails
            assert np.all(surplus > 0.0)
            floors = op.diag + row_sums
            assert np.all(floors > np.min(op.tails))
        lmaxs, hs = [], []
        for M in (127, 255, 511, 1023):
            grid = Grid(0.0, 1.0, M)
            lmax = np.linalg.eigvalsh(materialize_dense(assemble_operator(params, grid)))[-1]
            lmaxs.append(lmax)
            hs.append(grid.h)
        slope = -np.polyfit(np.log(hs), np.log(lmaxs), 1)[0]
        assert abs(slope - params.beta) <= 0.1, (params, slope)
        worst_slope_err = max(worst_slope_err, abs(slope - params.beta))
    _report(7, f"20 random draws: M-matrix sign pattern, strict dominance, "
               f"tail floor, and spectral growth h^-beta "
               f"(worst slope error {worst_slope_err:.3f})")


def test_criterion_8_oracle_suite():
    rng = np.random.default_rng(88)
    # closed-form coefficients vs direct quadrature of the defining integrals
    grids = {}
    for _ in range(200):
        params = _random_admissible(rng)
        h = float(10.0 ** rng.uniform(-3.0, 0.0))
        kind = rng.integers(3)
        if kind == 0:
            m = int(rng.integers(2, 1000))
            M = m + 2
            grid = grids.setdefault((M, h), Grid(0.0, h * (M + 1), M))
            oracle = (coeff_quadrature_oracle(m + 1, 2, "A1", params, grid)
                      + coeff_quadrature_oracle(m + 1, 1, "A2", params, grid))
            got = float(pair_sum_profile(np.array([m]), params, grid)[0])
            assert got == pytest.approx(oracle, rel=1e-9)
        elif kind == 1:
            M = 9
            grid = grids.setdefault((M, h), Grid(0.0, h * (M + 1), M))
            oracle = (singular_cell_weight(params, grid)
                      + coeff_quadrature_oracle(5, 4, "A2", params, grid)
                      * math.exp(-params.lam * grid.h))
            assert coeff_near_diag(params, grid) == pytest.approx(oracle, rel=1e-9)
        else:
            M = 31
            grid = grids.setdefault((M, h), Grid(0.0, h * (M + 1), M))
            i = int(rng.integers(2, M + 1))
            oracle = coeff_quadrature_oracle(i, 1, "A1", params, grid)
            got = float(boundary_left_profile(np.array([i]), params, grid)[0])
            assert got == pytest.approx(oracle, rel=1e-9)

    # tail integrals vs adaptive quadrature of the definition
    def tail_oracle(d, beta, lam):
        return scipy.integrate.quad(
            lambda t: math.exp(-lam * t) * t ** (-1.0 - beta), d, np.inf,
            epsabs=1e-14, epsrel=1e-13, limit=400)[0]

    for beta in (0.4, 0.9, 1.0, 1.3, 1.8):
        for lam in (0.0, 0.7, 3.0):
            s, s1 = (0, 0) if beta < 1 else (1, 1)
            params = SchemeParams(beta=beta, lam=lam, s=s, s1=s1)
            for d in (0.03, 0.4, 1.1, 1.9):
                got = float(tail_profile(d, params)[0])
                assert got == pytest.approx(tail_oracle(d, beta, lam), rel=1e-9)

    # full small-grid system vs brute-force assembly with exterior data
    for params in (SchemeParams(beta=0.5, lam=1.3, s=0, s1=0),
                   SchemeParams(beta=1.0, lam=2.0, s=1, s1=1),
                   SchemeParams(beta=1.0, lam=3.0, s=0, s1=1),
                   SchemeParams(beta=1.5, lam=0.7, s=0, s1=1)):
        _brute_force_small_system_check(params)
    _report(8, "200 coefficient draws at 1e-9, tail integrals at 1e-9, "
               "and the M=7 system at 1e-8")


def _brute_force_small_system_check(params):
    grid = Grid(0.0, 1.0, 7)
    M, h, xg = grid.M, grid.h, grid.nodes
    beta, lam, s, s1 = params.beta, params.lam, params.s, params.s1

    def q(f, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return scipy.integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-13,
                                        limit=300)[0]

    def A(kind, i, k):
        x_i, y0, y1 = xg[i], xg[k - 1], xg[k]
        f = {
            1: lambda y: (y1 - y) * (x_i - y) ** (s - 1 - beta),
            2: lambda y: (y - y0) * (x_i - y) ** (s - 1 - beta),
            3: lambda y: (y1 - y) * (y - x_i) ** (s - 1 - beta),
            4: lambda y: (y - y0) * (y - x_i) ** (s - 1 - beta),
        }[kind]
        return q(f, y0, y1) / h ** (s + 1)

    w_sing = h ** (-beta) * math.exp(-lam * h) / (s1 + 1 - beta)
    eps = lambda m: math.exp(-lam * m * h) / float(m) ** s

    def brute(i, j):
        if j == i:
            x_i = xg[i]
            tails = (q(lambda t: math.exp(-lam * t) * t ** (-1 - beta), x_i, np.inf)
                     + q(lambda t: math.exp(-lam * t) * t ** (-1 - beta), 1 - x_i, np.inf))
            acc = tails + 2.0 * w_sing
            for k in range(1, i):
                acc += A(1, i, k) * eps(i - k + 1) + A(2, i, k) * eps(i - k)
            for k in range(i + 2, M + 2):
                acc += A(3, i, k) * eps(k - 1 - i) + A(4, i, k) * eps(k - i)
            return acc
        if j == i - 1:
            return -(w_sing + A(2, i, i - 1) * math.exp(-lam * h))
        if j == i + 1:
            return -(w_sing + A(3, i, i + 2) * math.exp(-lam * h))
        if j < i:
            return -(A(1, i, j + 1) + A(2, i, j)) * eps(i - j)
        return -(A(3, i, j + 1) + A(4, i, j)) * eps(j - i)

    op = assemble_operator(params, grid)
    dense = materialize_dense(op) / params.cbeta
    for i in range(1, M + 1):
        for j in range(1, M + 1):
            assert dense[i - 1, j - 1] == pytest.approx(brute(i, j), rel=1e-8), (i, j)

    # load vector with exterior data, endpoint lift, and a smooth source
    boundary = BoundarySpec(exterior_g=example2_exterior, u_a=0.25, u_b=-0.5,
                            support=(-0.5, 1.5))
    f_phys = np.sin(1.0 + xg[1:-1])
    F = assemble_rhs(f_phys, boundary, params, grid)

    def brute_load(i):
        x_i = xg[i]
        d1 = q(lambda y: (-2.0 * y) * math.exp(-lam * (x_i - y)) * (x_i - y) ** (-1 - beta),
               -0.5, 0.0)
        d2 = q(lambda y: (2.0 * y - 2.0) * math.exp(-lam * (y - x_i)) * (y - x_i) ** (-1 - beta),
               1.0, 1.5)
        if i == 1:
            lift = w_sing * 0.25 + A(4, 1, M + 1) * eps(M) * (-0.5)
        elif i == M:
            lift = w_sing * (-0.5) + A(1, M, 1) * eps(M) * 0.25
        else:
            lift = (A(1, i, 1) * eps(i) * 0.25
                    + A(4, i, M + 1) * eps(M + 1 - i) * (-0.5))
        return f_phys[i - 1] + params.cbeta * (d1 + d2 + lift)

    for i in range(1, M + 1):
        assert F[i - 1] == pytest.approx(brute_load(i), rel=1e-8), i


def test_supplementary_tempered_exit_time_magnitudes():
    # Not a numbered criterion: the lam = 3 successive-refinement errors
    # reproduce the published values to print precision, validating the
    # tempered normalization branch end to end.
    for (beta, s, s1), targets in TABLE5_TEMPERED_ERRORS.items():
        cfg = ExperimentConfig(example=3, params=_params(beta, s, s1, 3.0),
                               levels=(11, 12, 13), solver="pcg-tchan",
                               tolerance=TOL, radius=1.0)
        report = run_convergence_study(cfg)
        for lv, want_l2, want_li in zip(report.levels, targets["l2"], targets["linf"]):
            assert lv.l2_err == pytest.approx(want_l2, rel=1e-2), (beta, lv.J)
            assert lv.linf_err == pytest.approx(want_li, rel=1e-2), (beta, lv.J)
    _report("supplementary", "tempered exit-time error magnitudes match the "
                             "reference table within 1%")


def test_asymptotic_cost_of_pcg():
    # Not a table criterion: doubling M may grow the solve time by at most
    # 2.6x (the M log M scaling plus slack).  The circulant solve takes the
    # same number of iterations at both levels (11), so its ratio is the
    # cost of one iteration; the banded solve takes more at J = 14 than at
    # J = 13 (48 against 43), and its ratio includes that growth.  Both
    # preconditioners' counts are in the report and the assertion message.
    # The two levels are timed in alternation, one solve at a time, and the
    # fastest of 50 solves is kept per level and preconditioner.  Timing all
    # of one level before the other let a change of load on a shared host
    # between the two phases enter the ratio.
    params = _params(0.5, 0, 0, 0.5)
    systems = {}
    for J in (13, 14):
        grid = Grid(0.0, 1.0, 2 ** J - 1)
        op = assemble_operator(params, grid)
        systems[J] = (op, example1_f(params, grid),
                      {"tchan": build_tchan_precond(op),
                       "ichol": build_band_compensated_ichol(op, k=10)})
        for precond in systems[J][2].values():
            pcg_solve(op, systems[J][1], precond, tol=TOL)  # warm caches and FFT plans
    times = {(name, J): math.inf for name in ("tchan", "ichol") for J in systems}
    iters = {}
    for _ in range(50):
        for name, J in times:
            op, F, preconds = systems[J]
            start = time.perf_counter()
            _, rep = pcg_solve(op, F, preconds[name], tol=TOL)
            times[name, J] = min(times[name, J], time.perf_counter() - start)
            iters[name, J] = rep.iterations
    ratios = {name: times[name, 14] / times[name, 13] for name in ("tchan", "ichol")}
    counts = ", ".join(f"{name} {iters[name, 13]} -> {iters[name, 14]}"
                       for name in ("tchan", "ichol"))
    assert all(r <= 2.6 for r in ratios.values()), (times, f"iterations {counts}")
    _report("timing", "PCG wall time grows {tchan:.2f}x (circulant) / "
                      "{ichol:.2f}x (banded) when M doubles; iterations ".format(**ratios)
            + counts)
