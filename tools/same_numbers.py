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
with its level and field, and the verdict: the levels newly over the gate,
each with its reasons.  A level is newly over the gate when some gated
field's share is above 1 (the gate passes a share of 1) and above the
parent's share of that field, or when its solve stopped unconverged where
the parent's converged.  Levels over the gate at the parent that got no
further are counted apart.  Last come each workload's total PCG iterations
over its studies, for the parent and the change: the benchmark's
``pcg_iters`` metric.  Exits 2 when some level is newly over the gate, 1
when numbers differ within the gate, 0 when every level is equal, and 3
when a checkout's studies cannot be run or the comparison itself fails (so
that no crash reads as a difference within the gate).  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import traceback
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
        print(f"{checkout}: running the studies exited {proc.returncode}", file=sys.stderr)
        raise SystemExit(3)
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


def over_gate(shares: dict | None, before: dict | None, unconverged: bool) -> list[str]:
    """Why a level is newly over the golden gate; empty when it is not.

    ``shares`` and ``before`` are the level's gate_shares under the change
    and at the parent (None without a golden value); ``unconverged`` is true
    when the change's solve stopped unconverged and the parent's did not.
    """
    why = [f"{f} share {v:.3f}, parent {before[f]:.3f}" for f, v in (shares or {}).items()
           if v > 1.0 and v > before[f]]
    return why + ["unconverged"] * unconverged


def summary(differing: list) -> list[str]:
    """Summary lines for the differing levels.

    Each level is a (label, gate_shares, parent's gate_shares, over_gate)
    tuple.  One line per gated group with its worst share, the level and the
    field, then the number of levels newly over the gate and of those over
    it at the parent that got no further, then one line per level newly over
    the gate with its reasons.
    """
    lines = []
    for group, fields in GROUPS.items():
        worst = max(((shares[f], label, f) for label, shares, *_ in differing
                     if shares is not None for f in fields), default=None)
        lines.append(f"worst {group} share " + ("none" if worst is None else
                     f"{worst[0]:.3f} at {worst[1]} ({worst[2]})"))
    over = [(label, why) for label, _, _, why in differing if why]
    held = sum(1 for _, shares, _, why in differing
               if not why and shares is not None and max(shares.values()) > 1.0)
    lines.append(f"{len(over)} differing levels newly over the gate, "
                 f"{held} more were over it at the parent")
    return lines + [f"newly over the gate: {label} ({'; '.join(why)})" for label, why in over]


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
    moved = []  # (label, gate shares, parent's gate shares, over_gate) per differing level
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
                    shares = gate_shares(c, golden.get(sid), tolerances)
                    before = gate_shares(p, golden.get(sid), tolerances)
                    change_iters = iteration_change(c, golden.get(sid))
                    moved.append((f"{sid} J={p['J']}", shares, before,
                                  over_gate(shares, before, p["converged"] and not c["converged"])))
                    share, field = gate_share(c, golden.get(sid), tolerances)
                    print(f"{workload} {sid} J={p['J']}: largest relative difference "
                          f"{largest_rel_diff(p, c):.3e}, gate share {share:.3f} ({field}), "
                          f"parent {before[field] if before else math.nan:.3f}, iterations "
                          + ("against no golden value" if change_iters is None else
                             f"{change_iters:+d} against golden"))
    print(f"{studies} studies, {levels} levels compared, {differing} differ")
    print("\n".join(summary(moved) + iteration_lines(parent, change)))
    return 2 if any(why for *_, why in moved) else 1 if differing else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
