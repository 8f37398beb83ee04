"""The public names of the package and the call sites the benchmark tracer wraps."""

import pathlib
import sys

import pytest

import templap

ROOT = pathlib.Path(__file__).resolve().parents[1]

PUBLIC = {
    "BandedCholPrecond", "BoundarySpec", "CirculantPrecond", "ConvergenceReport",
    "ExperimentConfig", "Grid", "OperatorMatrix", "SchemeParams", "SolveReport",
    "assemble_operator", "assemble_rhs", "build_band_compensated_ichol",
    "build_tchan_precond", "compute_rates", "error_norms", "example1_exact",
    "example1_f", "example2_setup", "example3_exact", "example3_setup", "format_report",
    "materialize_dense", "offdiag_row_sums", "pcg_solve", "read_system_dump",
    "reference_apply_operator", "run_convergence_study", "tail_profile",
    "write_system_dump",
}


def test_all_is_the_public_set():
    assert len(templap.__all__) == len(set(templap.__all__))
    assert set(templap.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in templap.__all__:
        assert getattr(templap, name, None) is not None, name


def _tracing():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import tracing

    return tracing


def test_tracer_call_sites_exist():
    # perfbench/tracing.py swaps these attributes for timed wrappers; a
    # renamed or moved function would break the traced benchmark run.
    tracing = _tracing()
    assert tracing.CALL_SITES
    for owner, attr, _ in tracing.CALL_SITES:
        assert attr in owner.__dict__, (owner.__name__, attr)
        assert callable(owner.__dict__[attr]), (owner.__name__, attr)


@pytest.mark.parametrize("example, params, callers", [
    (1, templap.SchemeParams(beta=0.65, lam=1.3), ["problems.source"]),
    (2, templap.SchemeParams(beta=1.0, lam=3.0, s=1, s1=1),
     ["problems.source", "problems.source"]),
])
def test_traced_tail_sweeps_per_level(example, params, callers):
    # The tracer sees every tail sweep: a problem-1 level sweeps once, in its
    # source, and the diagonal reuses that sweep; a problem-2 level sweeps
    # twice in its source, at x (which the diagonal reuses) and at x + 1/2.
    tracing = _tracing()
    templap.assembly.level_tails.cache_clear()
    tracer = tracing.Tracer()
    levels = (5, 6, 7)
    with tracing.instrument(tracer):
        templap.run_convergence_study(
            templap.ExperimentConfig(example=example, params=params, levels=levels))
    names = [span[0] for span in tracer.spans]
    parents = [names[span[3]] for span in tracer.spans if span[0] == "tails.profile"]
    assert parents == callers * len(levels)
