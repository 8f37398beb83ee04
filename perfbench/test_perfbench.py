"""Self-checks of the benchmark: tracing changes no result, the spans
account for the traced time, the counters and the golden gate behave.

    python3 -m pytest perfbench

One untraced and one traced pass of every workload (about 15 s), plus one
pass of p1-tables and p3-exit-solve in a process with two BLAS threads.
"""

import json
import os
import subprocess
import sys

from perfbench import pin_threads

pin_threads()

from dataclasses import replace  # noqa: E402

import pytest  # noqa: E402

from perfbench import run, studies, tracing  # noqa: E402
from templap import SchemeParams, run_convergence_study  # noqa: E402

# Benchmark loop and golden checks between studies, against the pass time.
UNTRACED_SHARE_MAX = 0.01
# The blocking steps of PCG: products, preconditioner applies, the loop itself.
SOLVE_SPANS = ("toeplitz.matvec", "preconditioners.tchan_apply",
               "preconditioners.ichol_apply", "solvers.pcg")


@pytest.fixture(scope="module")
def golden():
    return studies.load_golden()


@pytest.fixture(scope="module", params=sorted(studies.WORKLOADS))
def passes(request, golden):
    """(workload, untraced pass, traced pass, tracer), studies in index order."""
    workload = studies.WORKLOADS[request.param]
    order = list(range(len(workload.configs)))
    plain = run.run_pass(workload.configs, order, golden, run_convergence_study)
    tracer = tracing.Tracer()
    traced = run.traced_pass(tracer, workload.configs, order, golden)
    return workload, plain, traced, tracer


def _shares(traced, tracer):
    return {name: s / traced["wall"] for name, (_, s) in tracer.self_times().items()}


def test_every_study_passes_the_golden_gate(passes):
    _, plain, traced, _ = passes
    assert plain["failures"] == [] and traced["failures"] == []


def test_tracing_changes_no_result(passes):
    _, plain, traced, _ = passes
    assert traced["results"] == plain["results"]
    assert traced["iters"] == plain["iters"]


def test_self_times_add_up_to_the_traced_pass(passes):
    _, _, traced, tracer = passes
    total = sum(s for _, s in tracer.self_times().values())
    assert abs(traced["wall"] - total) <= UNTRACED_SHARE_MAX * traced["wall"]


def test_counters_match_the_solver_reports(passes):
    _, plain, _, tracer = passes
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["solvers.pcg.iters"] == plain["iters"]
    assert metrics["solvers.pcg.unconverged"] == 0
    applies = (metrics["preconditioners.tchan_apply.calls"]
               + metrics["preconditioners.ichol_apply.calls"])
    # PCG applies the preconditioner once per iteration except the last,
    # plus once before the loop.
    assert applies == metrics["toeplitz.matvec.calls"] == plain["iters"]


def test_each_workload_stresses_its_layers(passes):
    workload, _, traced, tracer = passes
    share = _shares(traced, tracer)
    if workload.name == "p1-tables":
        assert share["tails.profile"] + share["problems.source"] >= 1 / 3
        assert sum(share.get(n, 0.0) for n in SOLVE_SPANS) >= 1 / 3
        assert tracing.layer_metrics(tracer, 1)["tails.profile.unique_ratio"] == 0.25
    elif workload.name == "p2-exterior":
        assert max(share, key=share.get) == "reference.apply"
    else:
        assert sum(share[n] for n in SOLVE_SPANS) > 0.8


def test_golden_gate_rejects_a_changed_discretization(golden):
    cfg = studies.WORKLOADS["p2-exterior"].configs[0]
    p = cfg.params
    moved = replace(cfg, params=SchemeParams(p.beta + 1e-3, p.lam, p.s, p.s1))
    levels = studies.summarize(run_convergence_study(moved))
    assert studies.check_study(levels, golden[studies.study_id(cfg)])


def test_golden_gate_passes_two_blas_threads(golden):
    """The tolerances cover a change of reduction order alone."""
    script = (
        "import json\n"
        "from perfbench import studies\n"
        "from templap import run_convergence_study\n"
        "print(json.dumps({studies.study_id(c): studies.summarize(run_convergence_study(c))\n"
        "                  for w in ('p1-tables', 'p3-exit-solve')\n"
        "                  for c in studies.WORKLOADS[w].configs}))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", script], cwd=studies.ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    results = json.loads(out.stdout)
    for sid, levels in results.items():
        assert studies.check_study(levels, golden[sid]) == [], sid
