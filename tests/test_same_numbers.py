"""The golden gate shares and verdict of tools/same_numbers.py, on synthetic levels."""

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


def shares(level):
    return same_numbers.gate_shares(level, GOLDEN, TOLERANCES)


def entry(label, level, parent=None, unconverged=False):
    """A differing level as main() passes it to summary()."""
    now, before = shares(level), shares(parent or moved(level["J"]))
    return (label, now, before, same_numbers.over_gate(now, before, unconverged))


def test_summary_gives_each_gated_group_its_worst_share():
    lines = same_numbers.summary([
        entry("a J=12", moved(12, l2_err=2.0e-6 * (1 + 0.3e-4), iterations=31)),
        entry("a J=13", moved(13, linf_err=2.0e-6 * (1 - 0.7e-4), l2_rate=1.0 + 0.2e-3)),
        ("b J=14", None, None, [])])  # no golden value: in no group and not counted
    assert lines == ["worst errors share 0.700 at a J=13 (linf_err)",
                     "worst rates share 0.200 at a J=13 (l2_rate)",
                     "worst iterations share 1.000 at a J=12 (iterations)",
                     "0 differing levels newly over the gate, 0 more were over it at the parent"]


def test_share_one_passes_and_above_one_is_over_the_gate():
    # Golden 30 iterations: one iteration off uses the whole tolerance and
    # passes the gate, two do not.
    assert same_numbers.over_gate(shares(moved(12, iterations=31)), shares(moved(12)), False) == []
    assert same_numbers.over_gate(shares(moved(12, iterations=29)), shares(moved(12)), False) == []
    assert same_numbers.over_gate(shares(moved(12, iterations=32)), shares(moved(12)), False) == [
        "iterations share 2.000, parent 0.000"]
    assert same_numbers.over_gate(shares(moved(13, l2_rate=1.0 + 2e-3, iterations=28)),
                                  shares(moved(13)), False) == [
        "l2_rate share 2.000, parent 0.000", "iterations share 2.000, parent 0.000"]


def test_an_unconverged_solve_is_over_the_gate():
    assert same_numbers.over_gate(shares(moved(12)), shares(moved(12)), True) == ["unconverged"]
    assert same_numbers.over_gate(None, None, True) == ["unconverged"]  # no golden value


def test_summary_counts_a_level_already_over_the_gate_apart():
    # Golden 30 iterations: a parent at 32 is already over the gate, so a
    # change that moves only that level's errors, or keeps it at 32, is not
    # newly over it; one that takes it to 33, or moves another field past
    # 1, is.
    at_parent = moved(12, iterations=32)
    lines = same_numbers.summary([
        entry("held", moved(12, iterations=32, l2_err=2.0e-6 * (1 + 0.3e-4)), at_parent),
        entry("further", moved(12, iterations=33), at_parent),
        entry("other field", moved(12, iterations=32, l2_rate=1.0), at_parent),
        entry("back", moved(12, iterations=30), at_parent),
    ])
    assert lines[3:] == ["2 differing levels newly over the gate, 1 more were over it at the parent",
                         "newly over the gate: further (iterations share 3.000, parent 2.000)",
                         "newly over the gate: other field (l2_rate share inf, parent 0.000)"]


def test_iteration_change_is_signed_against_golden():
    assert same_numbers.iteration_change(moved(13, iterations=28), GOLDEN) == -2
    assert same_numbers.iteration_change(moved(12, iterations=31), GOLDEN) == 1
    assert same_numbers.iteration_change(moved(12), GOLDEN) == 0
    assert same_numbers.iteration_change({**moved(12), "J": 14}, GOLDEN) is None
    assert same_numbers.iteration_change(moved(12), None) is None


def run_main(monkeypatch, parent_levels, change_levels):
    results = {"parent": {"w": {"a": parent_levels}}, "change": {"w": {"a": change_levels}}}

    def run_all(checkout):
        return {"results": results[checkout.name], "golden": {"a": GOLDEN},
                "tolerances": TOLERANCES}

    monkeypatch.setattr(same_numbers, "run_all", run_all)
    return same_numbers.main(["--parent", "parent", "--change", "change"])


def test_exits_0_when_every_level_is_equal(monkeypatch, capsys):
    assert run_main(monkeypatch, [moved(12), moved(13)], [moved(12), moved(13)]) == 0
    assert "2 levels compared, 0 differ" in capsys.readouterr().out


def test_exits_1_within_the_gate_and_prints_each_iteration_change(monkeypatch, capsys):
    assert run_main(monkeypatch, [moved(12), moved(13)],
                    [moved(12, iterations=29), moved(13, iterations=31)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("w a J=12: ") and out[0].endswith("iterations -1 against golden")
    assert out[1].startswith("w a J=13: ") and out[1].endswith("iterations +1 against golden")
    assert "0 differing levels newly over the gate, 0 more were over it at the parent" in out


@pytest.mark.parametrize("level", [moved(13, iterations=32), moved(13, converged=False)],
                         ids=["share", "unconverged"])
def test_exits_2_when_a_level_is_newly_over_the_gate(monkeypatch, capsys, level):
    assert run_main(monkeypatch, [moved(12), moved(13)], [moved(12), level]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "1 differing levels newly over the gate, 0 more were over it at the parent" in out
    assert out[-2].startswith("newly over the gate: a J=13 (")


def test_exits_3_when_a_checkout_cannot_run_its_studies(tmp_path, capsys):
    # Not 1: a crash must not read as numbers that differ within the gate.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "__init__.py").write_text("raise ImportError('broken checkout')\n")
    with pytest.raises(SystemExit) as exc:
        same_numbers.run_all(tmp_path)
    assert exc.value.code == 3
    assert "running the studies exited 1" in capsys.readouterr().err


def test_summary_of_no_differing_level():
    assert same_numbers.summary([]) == ["worst errors share none", "worst rates share none",
                                        "worst iterations share none",
                                        "0 differing levels newly over the gate, 0 more were "
                                        "over it at the parent"]


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
