"""Command-line reproduction tool.

    templap --example {1|2|3} --beta B --lambda L --scheme S,S1
            --levels J1..J2 --solver {cg|pcg-ichol|pcg-tchan|dense}
            [--tol 1e-9] [--band 10] [--radius R] [--max-iter N]
            [--out PATH --format {csv|markdown}] [--config FILE]

The operator always carries its normalization constant c_beta.  A config
file holds the same keys as plain ``key = value`` lines, read as
``--key=value`` flags placed ahead of the command line, so explicit flags
override it.
Exit codes: 0 success, 2 non-converged solve, 1 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .convergence import SOLVERS, ExperimentConfig, format_report, run_convergence_study
from .core import SchemeParams

USAGE_ERROR, NONCONVERGED = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_levels(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        j1, j2 = int(lo), int(hi)
        if j2 < j1:
            raise argparse.ArgumentTypeError(f"empty level range {text!r}")
        return tuple(range(j1, j2 + 1))
    return (int(text),)


def _parse_scheme(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"scheme must be 'S,S1', got {text!r}")
    return int(parts[0]), int(parts[1])


def _config_tokens(path, parser: argparse.ArgumentParser) -> list[str]:
    """Command-line tokens for the ``key = value`` lines of a config file.

    A key must name a flag exactly (no prefix); each line becomes
    ``--key=value``.
    """
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if "--" + key not in parser._option_string_actions or key in ("config", "help"):
                raise ValueError(f"unknown config key {key!r}")
            tokens.append(f"--{key}={value}")
    return tokens


def _build_parsers() -> tuple[_Parser, _Parser]:
    """The ``--config`` pre-parser, and the full parser that inherits it."""
    pre = _Parser(prog="templap", add_help=False)
    pre.add_argument("--config", metavar="FILE", help="key = value file with the same keys")
    p = _Parser(prog="templap", parents=[pre],
                description="Convergence studies for the tempered fractional "
                            "Laplacian finite-difference solver.")
    p.add_argument("--example", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--scheme", metavar="S,S1", type=_parse_scheme, default=(0, 0))
    p.add_argument("--levels", metavar="J1..J2", type=_parse_levels, required=True)
    p.add_argument("--solver", choices=SOLVERS, default="pcg-tchan")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--band", type=int, default=10)
    p.add_argument("--radius", type=float, default=1.0,
                   help="half-width of the domain for example 3")
    p.add_argument("--max-iter", type=int)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    return pre, p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pre, parser = _build_parsers()
    try:
        config_file = pre.parse_known_args(argv)[0].config
        if config_file:
            argv = _config_tokens(config_file, parser) + argv  # flags come later and win
        args = parser.parse_args(argv)
        params = SchemeParams(beta=args.beta, lam=args.lam, s=args.scheme[0],
                              s1=args.scheme[1])
        config = ExperimentConfig(example=args.example, params=params, levels=args.levels,
                                  solver=args.solver, tolerance=args.tol, band=args.band,
                                  radius=args.radius, max_iter=args.max_iter)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    except (ValueError, OSError) as exc:
        print(f"templap: error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        report = run_convergence_study(config)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(format_report(report, args.format))
        else:
            print(format_report(report, "markdown"), end="")
    except (ValueError, OSError) as exc:
        print(f"templap: error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    return 0 if report.all_converged else NONCONVERGED


if __name__ == "__main__":
    raise SystemExit(main())
