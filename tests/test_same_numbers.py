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
    shares = [("a J=12", same_numbers.gate_shares(
                  moved(12, l2_err=2.0e-6 * (1 + 0.3e-4), iterations=31), GOLDEN, TOLERANCES)),
              ("a J=13", same_numbers.gate_shares(
                  moved(13, linf_err=2.0e-6 * (1 - 0.7e-4), l2_rate=1.0 + 0.2e-3),
                  GOLDEN, TOLERANCES)),
              ("b J=14", None)]  # no golden value: in no group and not counted
    lines = same_numbers.summary(shares)
    assert lines == ["worst errors share 0.700 at a J=13 (linf_err)",
                     "worst rates share 0.200 at a J=13 (l2_rate)",
                     "worst iterations share 1.000 at a J=12 (iterations)",
                     "1 differing levels at share >= 1"]


def test_summary_of_no_differing_level():
    assert same_numbers.summary([]) == ["worst errors share none", "worst rates share none",
                                        "worst iterations share none",
                                        "0 differing levels at share >= 1"]
