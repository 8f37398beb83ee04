"""The golden gate share of tools/same_numbers.py, on synthetic levels."""

import importlib.util
import math
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "same_numbers", Path(__file__).resolve().parents[1] / "tools" / "same_numbers.py")
same_numbers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_numbers)

TOLERANCES = {"err_rtol": 1e-4, "rate_atol": 1e-3, "iter_atol": 1}
GOLDEN = [{"J": 12, "M": 4095, "l2_err": 2.0e-6, "linf_err": 4.0e-6, "l2_rate": None,
           "linf_rate": None, "iterations": 30, "converged": True},
          {"J": 13, "M": 8191, "l2_err": 1.0e-6, "linf_err": 2.0e-6, "l2_rate": 1.0,
           "linf_rate": 1.0, "iterations": 30, "converged": True}]


def moved(J, **fields):
    return {**next(g for g in GOLDEN if g["J"] == J), **fields}


@pytest.mark.parametrize("level, share, field", [
    (moved(13), 0.0, "l2_err"),
    (moved(12, linf_err=4.0e-6 * (1 + 0.5e-4)), 0.5, "linf_err"),  # error only
    (moved(13, l2_rate=1.0 + 0.7e-3), 0.7, "l2_rate"),             # rate only
    (moved(12, iterations=31), 1.0, "iterations"),                 # iterations only
    (moved(13, iterations=28), 2.0, "iterations"),
    (moved(13, linf_rate=None), math.inf, "linf_rate"),
])
def test_share_covers_every_gated_field(level, share, field):
    got, where = same_numbers.gate_share(level, GOLDEN, TOLERANCES)
    assert got == pytest.approx(share, rel=1e-9)
    assert where == field


def test_a_level_without_a_golden_value_has_no_share():
    share, where = same_numbers.gate_share({**moved(12), "J": 14}, GOLDEN, TOLERANCES)
    assert math.isnan(share) and where == "no golden value"
    share, _ = same_numbers.gate_share(moved(12), None, TOLERANCES)
    assert math.isnan(share)


def test_summary_gives_each_gated_group_its_worst_share():
    def shares(level):
        return same_numbers.gate_shares(level, GOLDEN, TOLERANCES)

    moved_levels = [("a J=12", shares(moved(12, l2_err=2.0e-6 * (1 + 0.3e-4), iterations=31)),
                     shares(moved(12)), 1),
                    ("a J=13", shares(moved(13, linf_err=2.0e-6 * (1 - 0.7e-4),
                                            l2_rate=1.0 + 0.2e-3)), shares(moved(13)), 0),
                    ("b J=14", None, None, None)]  # no golden value: in no group and not counted
    lines = same_numbers.summary(moved_levels)
    assert lines == ["worst errors share 0.700 at a J=13 (linf_err)",
                     "worst rates share 0.200 at a J=13 (l2_rate)",
                     "worst iterations share 1.000 at a J=12 (iterations)",
                     "1 differing levels reached share >= 1 under the change (0 with fewer "
                     "iterations than golden, 1 with more, 0 with as many), "
                     "0 more were at share >= 1 at the parent"]


def test_summary_counts_a_level_already_at_the_limit_apart():
    # Golden 30 iterations: a parent at 31 already uses the whole tolerance,
    # so a change that moves only that level's errors, or keeps it at 31,
    # reaches nothing; one that takes it to 32, or moves another field past
    # 1, does.
    def shares(level):
        return same_numbers.gate_shares(level, GOLDEN, TOLERANCES)

    at_limit = shares(moved(12, iterations=31))
    lines = same_numbers.summary([
        ("held", shares(moved(12, iterations=31, l2_err=2.0e-6 * (1 + 0.3e-4))), at_limit, 1),
        ("further", shares(moved(12, iterations=32)), at_limit, 2),
        ("other field", shares(moved(12, iterations=31, l2_rate=1.0)), at_limit, 1),
        ("back", shares(moved(12, iterations=30)), at_limit, 0),
    ])
    assert lines[-1] == ("2 differing levels reached share >= 1 under the change (0 with fewer "
                         "iterations than golden, 2 with more, 0 with as many), "
                         "1 more were at share >= 1 at the parent")


def test_summary_splits_the_reached_levels_by_the_sign_of_their_iteration_change():
    # One iteration fewer than golden and one more use the same share; the
    # summary tells them apart, and a level that reaches 1 through another
    # field at golden's count goes to "as many".
    def shares(level):
        return same_numbers.gate_shares(level, GOLDEN, TOLERANCES)

    def entry(level):
        return (f"J={level['J']}", shares(level), shares(moved(level["J"])),
                same_numbers.iteration_change(level, GOLDEN))

    lines = same_numbers.summary([entry(moved(13, iterations=29)), entry(moved(12, iterations=29)),
                                  entry(moved(12, iterations=31)),
                                  entry(moved(13, l2_rate=1.0 + 2e-3))])
    assert lines[-1] == ("4 differing levels reached share >= 1 under the change (2 with fewer "
                         "iterations than golden, 1 with more, 1 with as many), "
                         "0 more were at share >= 1 at the parent")


def test_iteration_change_is_signed_against_golden():
    assert same_numbers.iteration_change(moved(13, iterations=28), GOLDEN) == -2
    assert same_numbers.iteration_change(moved(12, iterations=31), GOLDEN) == 1
    assert same_numbers.iteration_change(moved(12), GOLDEN) == 0
    assert same_numbers.iteration_change({**moved(12), "J": 14}, GOLDEN) is None
    assert same_numbers.iteration_change(moved(12), None) is None


def test_each_differing_level_prints_its_iteration_change(monkeypatch, capsys):
    results = {"parent": {"w": {"a": [moved(12), moved(13)]}},
               "change": {"w": {"a": [moved(12, iterations=29), moved(13, iterations=31)]}}}

    def run_all(checkout):
        return {"results": results[checkout.name], "golden": {"a": GOLDEN},
                "tolerances": TOLERANCES}

    monkeypatch.setattr(same_numbers, "run_all", run_all)
    assert same_numbers.main(["--parent", "parent", "--change", "change"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("w a J=12: ") and out[0].endswith("iterations -1 against golden")
    assert out[1].startswith("w a J=13: ") and out[1].endswith("iterations +1 against golden")
    assert ("2 differing levels reached share >= 1 under the change (1 with fewer iterations "
            "than golden, 1 with more, 0 with as many), 0 more were at share >= 1 at the parent"
            in out)


def test_summary_of_no_differing_level():
    assert same_numbers.summary([]) == ["worst errors share none", "worst rates share none",
                                        "worst iterations share none",
                                        "0 differing levels reached share >= 1 under the change "
                                        "(0 with fewer iterations than golden, 0 with more, 0 "
                                        "with as many), 0 more were at share >= 1 at the parent"]


def test_each_workload_totals_its_pcg_iterations():
    # perfbench's pcg_iters: the iterations of every level of every study.
    parent = {"w1": {"a": [{"iterations": 30}, {"iterations": 31}], "b": [{"iterations": 39}]},
              "w2": {"c": [{"iterations": 5}]}}
    change = {"w1": {"a": [{"iterations": 30}, {"iterations": 30}], "b": [{"iterations": 39}]},
              "w3": {"d": [{"iterations": 7}]}}
    assert same_numbers.pcg_iters(parent) == {"w1": 100, "w2": 5}
    assert same_numbers.iteration_lines(parent, change) == [
        "w1 pcg_iters: parent 100, change 99 (-1.00%)",
        "w2 pcg_iters: parent 5, change None",
        "w3 pcg_iters: parent None, change 7",
    ]
