"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 -m perfbench.run --workload p1-tables --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run measures set-up in fresh processes, warms up with
every study at its smallest level, then makes timed passes (every study of
the workload, in an order permuted by the seed) while another pass fits in
``--seconds``, and reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes for the same time and reports the
per-layer metrics, per traced pass; the spans are written to
``.perfbench_out/`` at the end.  Every timed pass checks every study against
the golden values.  ``--workload all`` runs each workload in its own process
and prints the metrics of all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from perfbench import THREAD_VARS, SetupError, pin_threads

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("p1-tables", "p2-exterior", "p3-exit-solve")

E2E_UNITS = {"study_p50_s": "s", "study_p75_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB", "pcg_iters": "count", "ok_frac": "ratio"}


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="python3 -m perfbench.run", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run_pass(configs, order, golden, study_fn) -> dict:
    """Every study once, in ``order``.

    Returns the (study index, seconds) samples, each study's per-level
    results, the PCG iterations and the failures of the pass.
    """
    from perfbench import studies

    times, results, failures, iters = [], {}, [], 0
    start = perf_counter()
    for i in order:
        cfg = configs[i]
        sid = studies.study_id(cfg)
        t0 = perf_counter()
        try:
            report = study_fn(cfg)
        except Exception as exc:  # a study that raises is a failed study
            failures.append(f"{sid}: raised {type(exc).__name__}: {exc}")
            continue
        times.append((i, perf_counter() - t0))
        levels = results[i] = studies.summarize(report)
        iters += sum(lv["iterations"] for lv in levels)
        problems = studies.check_study(levels, golden.get(sid))
        if problems:
            failures.append(f"{sid}: " + "; ".join(problems))
    return {"wall": perf_counter() - start, "times": times, "results": results, "iters": iters,
            "attempted": len(order), "failures": failures}


def traced_pass(tracer, configs, order, golden) -> dict:
    """run_pass with every layer call of templap recorded by ``tracer``."""
    from perfbench import tracing
    from templap import run_convergence_study

    tracer.begin_pass()
    with tracing.instrument(tracer):
        result = run_pass(configs, order, golden,
                          tracer.wrap(tracing.STUDY_SPAN, run_convergence_study))
    tracer.end_pass()
    return result


def measure_setup(workload: str, samples: int) -> list[float]:
    """Set-up seconds of ``samples`` fresh processes."""
    root = Path(__file__).resolve().parent.parent
    cmd = [sys.executable, "-m", "perfbench.setup_probe", workload]
    out = []
    for _ in range(samples):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def environment(args, workload, studies) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workload": studies.describe(workload),
    }


def e2e_metrics(passes, setup) -> dict:
    times = [t for p in passes for _, t in p["times"]]
    if not times:
        raise SystemExit("perfbench: no study completed; nothing to measure")
    q = statistics.quantiles(times, n=4)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {
        "study_p50_s": statistics.median(times),
        "study_p75_s": q[2],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pcg_iters": statistics.median(p["iters"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }


def run_workload(args) -> dict:
    from perfbench import studies

    workload = studies.WORKLOADS[args.workload]
    golden = studies.load_golden()
    configs = workload.configs
    print("env " + json.dumps(environment(args, workload, studies)), flush=True)

    from templap import run_convergence_study

    rng = random.Random(args.seed)

    def order():
        return rng.sample(range(len(configs)), len(configs))

    setup = measure_setup(args.workload, SETUP_SAMPLES) if args.trace == 0 else []
    for cfg in configs:  # lazy set-up (quadrature rules, FFT plans) out of the timing
        try:
            run_convergence_study(replace(cfg, levels=cfg.levels[:1]))
        except Exception:  # the timed passes record the failure
            pass
    plain, traced = [], []
    start = perf_counter()

    def another_fits(last):
        return perf_counter() + (perf_counter() - last) <= start + args.seconds

    last = start
    if args.trace == 0:
        while not plain or another_fits(last):
            last = perf_counter()
            plain.append(run_pass(configs, order(), golden, run_convergence_study))
    else:
        from perfbench import tracing

        tracer = tracing.Tracer()
        while not traced or another_fits(last):
            last = perf_counter()
            plain.append(run_pass(configs, order(), golden, run_convergence_study))
            traced.append(traced_pass(tracer, configs, order(), golden))

    timed = plain + traced
    failures = [f for p in timed for f in p["failures"]]
    for line in dict.fromkeys(failures):
        print("FAILED " + line, file=sys.stderr)
    attempted = sum(p["attempted"] for p in timed)
    failed = sum(len(p["failures"]) for p in timed)
    if args.trace == 0:
        metrics = e2e_metrics(plain, setup)
        units = E2E_UNITS
    else:
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall"] for p in traced)
            / statistics.median(p["wall"] for p in plain) - 1.0)
        units = {k: tracing.unit_of(k) for k in metrics}
        out_dir = studies.ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        import numpy as np

        np.savez_compressed(out_dir / f"trace-{args.workload}-seed{args.seed}.npz",
                            **tracer.to_arrays())
    print(f"passes {len(plain)} untraced, {len(traced)} traced; "
          f"studies {attempted} attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process (peak RSS is per process)."""
    root = Path(__file__).resolve().parent.parent
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, "-m", "perfbench.run", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(proc.returncode or 1)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if args.workload == "all":
        result = run_all(args)
    else:
        try:
            result = run_workload(args)
        except (ImportError, SetupError) as exc:
            print(f"perfbench: cannot benchmark this checkout: {exc}", file=sys.stderr)
            return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
