"""Compare two checkouts with paired benchmark runs.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload p1-tables --pairs 10 [--seconds 35] [--seed 1] [--out runs.json]

``--workload`` repeats; ``--workload all`` runs every workload that the
change's BENCHMARK.json lists.

Each pair runs ``python3 -m perfbench.run --trace 0`` once in each checkout,
with the same seed; even pairs run the parent first, odd pairs the change
first, so a slow episode of a shared machine does not always land on one
side.  For each workload and end-to-end metric it prints each side's median
and quartiles and how many pairs the change won (strictly better, in the
direction BENCHMARK.json gives) and tied, and ends with a verdict: "worse"
when the change's median is worse than the parent's by more than the
metric's BENCHMARK.json ``bound`` times the parent's median (in magnitude),
else "gain" when the change won at least nine tenths of the pairs (ties
count for neither side) and its median beats the parent's by more than the
parent's interquartile range, otherwise "no gain".  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "-m", "perfbench.run", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: {checkout} {workload} seed {seed}: "
              f"{result['failed']} of {result['attempted']} studies failed", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summarize(runs: list[dict], metrics: list[dict]) -> None:
    """One line per metric: parent and change median [q1, q3], wins, ties, verdict.

    ``metrics`` is BENCHMARK.json's ``end_to_end`` list: name, better, bound.
    """
    for m in metrics:
        name = m["name"]
        pairs = [(r["parent"][name], r["change"][name]) for r in runs]
        par, chg = [p for p, _ in pairs], [c for _, c in pairs]
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in pairs)
        ties = sum(c == p for p, c in pairs)
        pq, cq = quartiles(par), quartiles(chg)
        if sign * (cq[1] - pq[1]) > m["bound"] * abs(pq[1]):
            verdict = "worse"
        elif wins >= 0.9 * len(pairs) and sign * (pq[1] - cq[1]) > pq[2] - pq[0]:
            verdict = "gain"
        else:
            verdict = "no gain"
        print(f"  {name:14s} parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]  "
              f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]  "
              f"ratio {cq[1] / pq[1]:.3f}  wins {wins}/{len(pairs)}  ties {ties}  {verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True,
                    help="repeat for several workloads; 'all' runs every one")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--out", type=Path, help="write every run's metrics here as JSON")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = []
    for w in args.workload:
        if w not in names + ["all"]:
            ap.error(f"unknown workload {w!r}; choose from {', '.join(names)} or all")
        workloads += names if w == "all" else [w]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in runs:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, args.seconds)
            runs[workload].append(pair)
            print(f"pair {i + 1}/{args.pairs} {workload} seed {seed}: study_p75_s "
                  f"parent {pair['parent']['study_p75_s']:.4g} "
                  f"change {pair['change']['study_p75_s']:.4g}", flush=True)
            if args.out:
                args.out.write_text(json.dumps(runs, indent=1))
    for workload, pairs in runs.items():
        print(f"== {workload} ({len(pairs)} pairs)")
        summarize(pairs, spec["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
