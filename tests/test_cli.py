"""Command-line interface: exit codes, config files, output files."""

import csv
import re
from pathlib import Path

import pytest

from templap import cli
from templap.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "templap" in capsys.readouterr().out


def test_every_flag_is_documented(capsys):
    main(["--help"])
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert len(flags) == 13
    usage = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
    for doc in (usage, cli.__doc__):
        assert flags <= set(re.findall(r"--[a-z][a-z-]*", doc))


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


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_nonfinite_lambda_is_usage_error(lam, capsys):
    code = main(["--example", "3", "--beta", "0.5", "--lambda", lam,
                 "--scheme", "0,0", "--levels", "4..5"])
    assert code == 1
    assert "lam must be finite" in capsys.readouterr().err


def test_infinite_radius_is_usage_error(capsys):
    code = main(["--example", "3", "--beta", "0.5", "--scheme", "0,0",
                 "--levels", "3..4", "--radius", "inf"])
    assert code == 1
    assert "need a finite interval" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tol=0", "--tol=-1", "--tol=nan", "--tol=inf",
                                  "--max-iter=0", "--max-iter=-3"])
def test_unusable_stopping_rule_is_usage_error(flag, capsys):
    code = main(["--example", "3", "--beta", "0.5", "--scheme", "0,0",
                 "--levels", "4..5", flag])
    assert code == 1
    assert "must be" in capsys.readouterr().err


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


def test_normalization_cannot_be_switched_off(tmp_path):
    assert main(EXIT_TIME + ["--no-cbeta"]) == 1
    cfg = tmp_path / "raw.cfg"
    cfg.write_text("no-cbeta = true\n")
    assert main(["--config", str(cfg)] + EXIT_TIME) == 1


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
                 "--band", "6", "--radius", "2.0", "--max-iter", "500",
                 "--out", str(out), "--format", "markdown"]) == 0
    assert out.read_text().startswith("| J | M |")
    assert main(["--ex", "3", "--be", "1.5", "--lam", "0", "--sch", "1,1", "--lev", "7",
                 "--sol", "cg", "--max", "500", "--rad=2.0", "--out", str(out)]) == 0
    assert out.read_text().startswith("J,M,")
