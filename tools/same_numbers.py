"""Check that two checkouts compute the same benchmark numbers, bit for bit.

    python3 tools/same_numbers.py --parent ../parent --change .

Runs every study of every benchmark workload once per checkout, each
checkout in its own subprocess that pins BLAS to one thread before numpy is
imported, exactly as ``python3 -m perfbench.run`` does.  It compares each
study's ``perfbench.studies.summarize`` output (per level: M, both errors,
both rates, iterations, converged) with ``==`` and prints every level that
differs, with the largest relative difference over its numeric fields and
the largest share of the golden gate's tolerance that the change uses, over
every field the gate checks: |err - golden| / (ERR_RTOL |golden|) for both
errors, |rate - golden| / RATE_ATOL for both rates and |iterations -
golden| / ITER_ATOL, with ``golden.json`` and the three tolerances read
from the change checkout (a share of 1 is the benchmark gate's limit), and
the parent's share of that field beside it, and the level's signed
iteration change against golden.  The summary gives, over the differing
levels, the worst share of each gated group (errors, rates, iterations)
with its level and field, and the number of levels that reached a share of
1 or more under the change: some field at 1 or more and above the parent's
share of it, split into levels with fewer iterations than golden, with
more, and with as many.  Levels that sat at 1 or more at the parent and got
no further are counted apart.  Last come each workload's total PCG
iterations over its studies, for the parent and the change: the
benchmark's ``pcg_iters`` metric.  Exits 1 on any difference, 0 when every
level is equal.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

# Runs inside the checkout: one JSON object with the checkout's golden
# tolerances, its golden values and {workload: {study id: levels}}.
CHILD = """
import json, perfbench
perfbench.pin_threads()
from perfbench import studies
from templap import run_convergence_study
print(json.dumps({"tolerances": {"err_rtol": studies.ERR_RTOL, "rate_atol": studies.RATE_ATOL,
                                 "iter_atol": studies.ITER_ATOL},
                  "golden": studies.load_golden(),
                  "results": {name: {studies.study_id(cfg):
                                     studies.summarize(run_convergence_study(cfg))
                                     for cfg in w.configs}
                              for name, w in studies.WORKLOADS.items()}}))
"""


def run_all(checkout: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=checkout,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: running the studies exited {proc.returncode}")
    return json.loads(lines[-1])


def largest_rel_diff(a: dict, b: dict) -> float:
    """Largest |a - b| / max(|a|, |b|) over the numeric fields of two levels."""
    worst = 0.0
    for key in a.keys() | b.keys():
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        if isinstance(x, (int, float)) and isinstance(y, (int, float)):
            rel = abs(x - y) / max(abs(x), abs(y))
        else:  # None against a number, or a missing field
            rel = math.inf
        worst = math.inf if math.isnan(rel) else max(worst, rel)
    return worst


def _share(got, want, allowed: float) -> float:
    """|got - want| / allowed: 0 when equal, inf when one side is missing or not finite."""
    if got == want:
        return 0.0
    if got is None or want is None or not math.isfinite(got) or not allowed:
        return math.inf
    return abs(got - want) / allowed


# The gated fields, grouped as the summary reports them.
GROUPS = {"errors": ("l2_err", "linf_err"), "rates": ("l2_rate", "linf_rate"),
          "iterations": ("iterations",)}


def _golden_level(level: dict, golden: list | None) -> dict | None:
    return next((g for g in golden or () if g["J"] == level["J"]), None)


def gate_shares(level: dict, golden: list | None, tolerances: dict) -> dict | None:
    """Share of the golden gate's tolerance for each gated field of a level.

    None when the study has no golden value for the level.
    """
    want = _golden_level(level, golden)
    if want is None:
        return None
    allowed = {"l2_err": tolerances["err_rtol"] * abs(want["l2_err"]),
               "linf_err": tolerances["err_rtol"] * abs(want["linf_err"]),
               "l2_rate": tolerances["rate_atol"], "linf_rate": tolerances["rate_atol"],
               "iterations": tolerances["iter_atol"]}
    return {key: _share(level[key], want[key], tol) for key, tol in allowed.items()}


def iteration_change(level: dict, golden: list | None) -> int | None:
    """A level's iterations minus golden's; None without a golden value for the level."""
    want = _golden_level(level, golden)
    return None if want is None else level["iterations"] - want["iterations"]


def gate_share(level: dict, golden: list | None, tolerances: dict) -> tuple[float, str]:
    """Largest share of the golden gate's tolerance over a level's gated fields.

    Returns the share and the field it belongs to; (nan, "no golden value")
    when the study has no golden value for the level.
    """
    shares = gate_shares(level, golden, tolerances)
    if shares is None:
        return math.nan, "no golden value"
    field = max(shares, key=shares.get)
    return shares[field], field


def summary(differing: list) -> list[str]:
    """Summary lines for the differing levels.

    Each level is a (label, gate_shares, parent's gate_shares,
    iteration_change) tuple.  One line per gated group with its worst
    share, the level and the field, then the number of levels that reached
    a share of 1 or more under the change (some field at 1 or more and
    above the parent's share of it), split by the sign of their iteration
    change against golden, and the number of other levels at 1 or more,
    which the parent shares.
    """
    lines = []
    for group, fields in GROUPS.items():
        worst = max(((shares[f], label, f) for label, shares, *_ in differing
                     if shares is not None for f in fields), default=None)
        lines.append(f"worst {group} share " + ("none" if worst is None else
                     f"{worst[0]:.3f} at {worst[1]} ({worst[2]})"))
    fewer = more = same = held = 0
    for _, shares, before, change in differing:
        if shares is None or max(shares.values()) < 1.0:
            continue
        if not any(v >= 1.0 and v > before[f] for f, v in shares.items()):
            held += 1
        elif change < 0:
            fewer += 1
        elif change > 0:
            more += 1
        else:
            same += 1
    lines.append(f"{fewer + more + same} differing levels reached share >= 1 under the change "
                 f"({fewer} with fewer iterations than golden, {more} with more, {same} with "
                 f"as many), {held} more were at share >= 1 at the parent")
    return lines


def pcg_iters(results: dict) -> dict:
    """Each workload's PCG iterations summed over its studies' levels."""
    return {workload: sum(level["iterations"] for levels in by_study.values() for level in levels)
            for workload, by_study in results.items()}


def iteration_lines(parent: dict, change: dict) -> list[str]:
    """One line per workload: total PCG iterations at the parent and the change."""
    before, after = pcg_iters(parent), pcg_iters(change)
    lines = []
    for workload in sorted(before.keys() | after.keys()):
        b, a = before.get(workload), after.get(workload)
        moved = f" ({(a - b) / b:+.2%})" if b and a is not None else ""
        lines.append(f"{workload} pcg_iters: parent {b}, change {a}{moved}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)

    parent = run_all(args.parent.resolve())["results"]
    changed = run_all(args.change.resolve())
    change, golden, tolerances = changed["results"], changed["golden"], changed["tolerances"]
    studies = levels = differing = 0
    moved = []  # (label, gate shares, parent's gate shares, iteration change) per differing level
    for workload in sorted(parent.keys() | change.keys()):
        par, chg = parent.get(workload, {}), change.get(workload, {})
        for sid in sorted(par.keys() | chg.keys()):
            studies += 1
            if sid not in par or sid not in chg:
                differing += 1
                print(f"{workload} {sid}: only in the {'change' if sid in chg else 'parent'}")
                continue
            if [lv["J"] for lv in par[sid]] != [lv["J"] for lv in chg[sid]]:
                differing += 1
                print(f"{workload} {sid}: levels differ")
                continue
            for p, c in zip(par[sid], chg[sid]):
                levels += 1
                if p != c:
                    differing += 1
                    before = gate_shares(p, golden.get(sid), tolerances)
                    change_iters = iteration_change(c, golden.get(sid))
                    moved.append((f"{sid} J={p['J']}",
                                  gate_shares(c, golden.get(sid), tolerances), before,
                                  change_iters))
                    share, field = gate_share(c, golden.get(sid), tolerances)
                    print(f"{workload} {sid} J={p['J']}: largest relative difference "
                          f"{largest_rel_diff(p, c):.3e}, gate share {share:.3f} ({field}), "
                          f"parent {before[field] if before else math.nan:.3f}, iterations "
                          + ("against no golden value" if change_iters is None else
                             f"{change_iters:+d} against golden"))
    print(f"{studies} studies, {levels} levels compared, {differing} differ")
    print("\n".join(summary(moved) + iteration_lines(parent, change)))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
