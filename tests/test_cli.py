"""Command-line interface: exit codes, config files, output files."""

import csv

import pytest

from templap.cli import main


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "templap" in capsys.readouterr().out


def test_missing_required_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert main(["--example", "1"]) == 1


def test_unknown_flag_is_usage_error():
    assert main(["--bogus"]) == 1


def test_bad_scheme_string_is_usage_error():
    code = main(["--example", "1", "--beta", "0.5", "--levels", "7..8",
                 "--scheme", "nonsense"])
    assert code == 1


def test_inadmissible_scheme_is_usage_error():
    code = main(["--example", "1", "--beta", "1.5", "--levels", "7..8",
                 "--scheme", "0,0"])
    assert code == 1


def test_small_run_prints_markdown(capsys):
    code = main(["--example", "1", "--beta", "0.5", "--lambda", "0.5",
                 "--scheme", "0,0", "--levels", "7..8", "--solver", "pcg-tchan"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("| J | M |")
    assert "| 8 | 255 |" in out


def test_iteration_starved_run_exits_two(capsys):
    code = main(["--example", "1", "--beta", "0.5", "--lambda", "0.5",
                 "--scheme", "0,0", "--levels", "7", "--solver", "cg",
                 "--max-iter", "2"])
    assert code == 2


def test_csv_output_file(tmp_path):
    out = tmp_path / "study.csv"
    code = main(["--example", "3", "--beta", "1.5", "--lambda", "0",
                 "--scheme", "1,1", "--levels", "7..8", "--out", str(out),
                 "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2
    assert rows[1]["M"] == "255"
    assert rows[1]["Linf_rate"] != "--"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reproduction study\n"
        "example = 1\n"
        "beta = 0.5\n"
        "lambda = 0.5\n"
        "scheme = 1,1\n"
        "levels = 7..8\n"
        "solver = pcg-ichol\n"
        "band = 6\n"
    )
    code = main(["--config", str(cfg), "--levels", "7"])  # flag overrides file
    out = capsys.readouterr().out
    assert code == 0
    assert "| 7 | 127 |" in out
    assert "| 8 |" not in out


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("exampel = 1\n")
    assert main(["--config", str(cfg)]) == 1


def test_no_cbeta_flag_runs(tmp_path):
    out = tmp_path / "raw.csv"
    code = main(["--example", "1", "--beta", "0.5", "--lambda", "3",
                 "--scheme", "0,0", "--levels", "7", "--no-cbeta",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_radius_flag_reaches_domain(tmp_path):
    out = tmp_path / "r2.csv"
    code = main(["--example", "3", "--beta", "0.5", "--lambda", "0",
                 "--scheme", "0,0", "--levels", "7", "--radius", "2.0",
                 "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["M"] == "127"


EXIT_TIME = ["--example", "3", "--beta", "1.5", "--lambda", "0", "--scheme", "1,1",
             "--levels", "7..8"]


def _csv_rows(tmp_path, argv, config=None):
    """Every CSV column but the timing, from a run with an optional config file."""
    out = tmp_path / "rows.csv"
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = ["--config", str(cfg)] + argv
    assert main(argv + ["--out", str(out)]) == 0
    return [{k: v for k, v in row.items() if k != "seconds"}
            for row in csv.DictReader(out.open())]


def test_no_cbeta_config_key_matches_flag(tmp_path):
    # Problem 3's unit source is not scaled with the operator, so dropping
    # the normalization changes its errors.
    flag = _csv_rows(tmp_path, EXIT_TIME + ["--no-cbeta"])
    assert flag != _csv_rows(tmp_path, EXIT_TIME)
    for value in ("true", "1", "yes"):
        assert _csv_rows(tmp_path, EXIT_TIME, f"no-cbeta = {value}\n") == flag


def test_false_no_cbeta_config_key_is_the_default(tmp_path):
    assert _csv_rows(tmp_path, EXIT_TIME, "no-cbeta = false\n") \
        == _csv_rows(tmp_path, EXIT_TIME)


@pytest.mark.parametrize("text", ["example 1\n", "ex = 1\n", "config = other.cfg\n",
                                  "help = yes\n", "lam = 0.5\n"])
def test_config_line_must_be_an_exact_flag_name(tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg)] + EXIT_TIME) == 1


def test_every_flag_and_prefix_still_parses(tmp_path):
    out = tmp_path / "all.md"
    assert main(["--example", "3", "--beta", "1.5", "--lambda", "0", "--scheme", "1,1",
                 "--levels", "7", "--solver", "pcg-ichol", "--tol", "1e-10",
                 "--band", "6", "--no-cbeta", "--radius", "2.0", "--max-iter", "500",
                 "--out", str(out), "--format", "markdown"]) == 0
    assert out.read_text().startswith("| J | M |")
    assert main(["--ex", "3", "--be", "1.5", "--lam", "0", "--sch", "1,1", "--lev", "7",
                 "--sol", "cg", "--max", "500", "--rad=2.0", "--out", str(out)]) == 0
    assert out.read_text().startswith("J,M,")
