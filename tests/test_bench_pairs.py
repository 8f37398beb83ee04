"""The regression verdict of tools/bench_pairs.py, on synthetic runs."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},    # better in every pair
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},  # 5% worse: inside the bound
    {"name": "ok_frac", "better": "higher", "bound": 0.01},    # 10% worse: beyond it
]


def test_summarize_marks_only_a_regression_beyond_its_bound(capsys):
    runs = [{"parent": {"setup_s": 0.30 + 0.01 * i, "peak_rss_mb": 60.0 + 0.1 * i, "ok_frac": 1.0},
             "change": {"setup_s": 0.10 + 0.01 * i, "peak_rss_mb": 63.0 + 0.1 * i, "ok_frac": 0.9}}
            for i in range(10)]
    bench_pairs.summarize(runs, METRICS)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["setup_s", "peak_rss_mb", "ok_frac"]
    assert lines[0].endswith("wins 10/10  ties 0  gain")
    assert lines[1].endswith("wins 0/10  ties 0  no gain")
    assert lines[2].endswith("wins 0/10  ties 0  worse")
