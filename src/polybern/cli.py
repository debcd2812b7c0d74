"""Command-line front end.

Four verbs: ``series`` prints the exact coefficients of one named series,
``numbers`` prints a family's value table, ``stirling`` prints a Stirling
triangle, and ``verify`` runs one identity check (or a whole sweep with
``--all``).  Output is JSON by default; CSV is available for the flat
tables only (numbers, stirling).  The POLYBERN_FORMAT environment variable
changes the default format.

All rational-valued flags take "p/q" or "p".  Truncation defaults (order
16, m-truncation 32) are echoed into every output so results are
self-describing.

Exit codes: 0 success or verification pass (diagnostic runs count as
success once they complete), 1 verification fail, 2 usage or environment
error (including an unwritable ``--output``), 3 internal error (a
valuation guard tripping means a bug in the math, not in the invocation;
any other unexpected exception is reported the same way).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

# most of these are reached only by name, through the tables further down
from .families import (
    carlitz_degenerate,
    degenerate_multi_poly_bernoulli,
    multi_poly_bernoulli,
    poly_bernoulli,
    type2_poly_bernoulli,
)
from .rationals import format_rational, parse_rational
from .special import (
    degenerate_exp,
    log1p_series,
    multi_polylog,
    one_minus_exp_neg,
    polyexp,
    stirling_table,
)
from .verify import (
    verify_addition,
    verify_chain_stirling,
    verify_deriv_recurrences,
    verify_difference,
    verify_li_ones,
    verify_polynomial_expansion,
    verify_resummation,
)

DEFAULT_ORDER = 16
DEFAULT_M_TRUNCATION = 32

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Bad invocation (missing or inconsistent flags)."""


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ks_flag(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"ks must be comma-separated integers, got {text!r}") from None
    if not parts:
        raise argparse.ArgumentTypeError("ks must be non-empty")
    return parts


# One table per kind: CLI name -> (name of the function in this module, the
# parameters it takes besides ``order``, each read from the flag of that
# name).  The function is looked up at call time, so anything that replaces
# the module attribute (a test seam, a tracer) sees every call.
SERIES = {
    "multi-polylog": ("multi_polylog", ("ks",)),
    "polyexp": ("polyexp", ("k",)),
    "one-minus-exp-neg": ("one_minus_exp_neg", ()),
    "log1p": ("log1p_series", ()),
    "degenerate-exp": ("degenerate_exp", ("x", "lam")),
}
FAMILIES = {
    "degen-multi-poly": ("degenerate_multi_poly_bernoulli", ("ks", "lam", "x")),
    "multi-poly": ("multi_poly_bernoulli", ("ks", "x")),
    "poly": ("poly_bernoulli", ("k", "x")),
    "type2-poly": ("type2_poly_bernoulli", ("k", "x")),
    "carlitz": ("carlitz_degenerate", ("r", "lam", "x")),
}
IDENTITIES = {
    "expansion": ("verify_polynomial_expansion", ("ks", "lam", "x")),
    "li-ones": ("verify_li_ones", ("r",)),
    "deriv": ("verify_deriv_recurrences", ("ks",)),
    "chain-stirling": ("verify_chain_stirling", ("ks", "lam", "x")),
    "resummation": ("verify_resummation", ("ks", "lam", "x", "m_truncation")),
    "difference": ("verify_difference", ("ks", "lam", "x", "m_truncation")),
    "addition": ("verify_addition", ("ks", "lam", "x", "y")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybern",
        description="Exact Bernoulli-type sequence tables and identity verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="output format (default from POLYBERN_FORMAT, else json)")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    p_series = sub.add_parser("series", help="coefficients of one named series")
    p_series.add_argument("--name", required=True, choices=tuple(SERIES))
    p_series.add_argument("--ks", type=_ks_flag, default=None)
    p_series.add_argument("--k", type=int, default=None)
    p_series.add_argument("--x", type=_rational_flag, default=None)
    p_series.add_argument("--lambda", dest="lam", type=_rational_flag, default=None)
    p_series.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_series.set_defaults(run=_cmd_series)
    common(p_series)

    p_numbers = sub.add_parser("numbers", help="value table of one family")
    p_numbers.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p_numbers.add_argument("--ks", type=_ks_flag, default=None)
    p_numbers.add_argument("--k", type=int, default=None)
    p_numbers.add_argument("--r", type=int, default=None)
    p_numbers.add_argument("--lambda", dest="lam", type=_rational_flag, default=None)
    p_numbers.add_argument("--x", type=_rational_flag, default=Fraction(0))
    p_numbers.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_numbers.set_defaults(run=_cmd_numbers)
    common(p_numbers)

    p_stirling = sub.add_parser("stirling", help="Stirling triangle")
    p_stirling.add_argument("--kind", required=True,
                            choices=("second", "first-unsigned", "first-signed"))
    p_stirling.add_argument("--max-n", type=int, required=True)
    p_stirling.set_defaults(run=_cmd_stirling)
    common(p_stirling)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--identity", choices=tuple(IDENTITIES))
    p_verify.add_argument("--all", action="store_true", help="run the default sweep")
    p_verify.add_argument("--ks", type=_ks_flag, default=None)
    p_verify.add_argument("--r", type=int, default=None)
    p_verify.add_argument("--lambda", dest="lam", type=_rational_flag, default=None)
    p_verify.add_argument("--x", type=_rational_flag, default=None)
    p_verify.add_argument("--y", type=_rational_flag, default=None)
    p_verify.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_verify.add_argument("--truncate", dest="m_truncation", metavar="TRUNCATE", type=int,
                          default=DEFAULT_M_TRUNCATION,
                          help="m-sum truncation for the diagnostic identities")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="parallel workers for --all (results stay deterministic)")
    p_verify.set_defaults(run=_cmd_verify)
    common(p_verify)

    return parser


def _require(condition: bool, message: str):
    if not condition:
        raise UsageError(message)


def _flag(param: str) -> str:
    return "lambda" if param == "lam" else param


def _call(table: dict, name: str, kwargs: dict):
    return globals()[table[name][0]](**kwargs)


def _call_from_flags(table: dict, name: str, args):
    """Check the flags ``name`` needs, then call its function with them."""
    _require(args.order >= 0, "order must be non-negative")
    params = table[name][1]
    missing = [p for p in params if getattr(args, p) is None]
    _require(not missing, f"{name} needs " + " and ".join(f"--{_flag(p)}" for p in missing))
    return _call(table, name, {p: getattr(args, p) for p in params} | {"order": args.order})


def _cmd_series(args) -> tuple[dict, str | None, int]:
    series = _call_from_flags(SERIES, args.name, args)
    params: dict = {"order": args.order}
    for p in SERIES[args.name][1]:
        value = getattr(args, p)
        params[_flag(p)] = format_rational(value) if isinstance(value, Fraction) else value
    return {"series": args.name, "params": params} | series.to_json_dict(), None, EXIT_OK


def _cmd_numbers(args) -> tuple[dict, str | None, int]:
    result = _call_from_flags(FAMILIES, args.family, args)
    return result.to_json_dict(), result.to_csv(), EXIT_OK


def _cmd_stirling(args) -> tuple[dict, str | None, int]:
    table = stirling_table(args.kind.replace("-", "_"), args.max_n)
    return table.to_json_dict(), table.to_csv(), EXIT_OK


def _sweep_tasks(order: int, m_truncation: int) -> list[tuple[str, dict]]:
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    tasks: list[tuple[str, dict]] = []
    for r in (1, 2, 3, 4):
        tasks.append(("li-ones", {"r": r, "order": order}))
    for ks in ((1, 2), (2, 1), (1, 1, 1)):
        tasks.append(("expansion", {"ks": ks, "lam": third, "x": Fraction(2, 3), "order": order}))
    for ks in ((2,), (2, 1), (3, 2)):
        tasks.append(("deriv", {"ks": ks, "order": order}))
    for ks in ((1, 1), (2, 1)):
        tasks.append(("chain-stirling", {"ks": ks, "lam": half, "x": Fraction(0), "order": min(order, 10)}))
    tasks.append(("resummation", {"ks": (2, 1), "lam": third, "x": Fraction(0),
                                  "order": min(order, 6), "m_truncation": m_truncation}))
    tasks.append(("resummation", {"ks": (1, -2), "lam": third, "x": Fraction(0),
                                  "order": min(order, 8), "m_truncation": m_truncation}))
    tasks.append(("difference", {"ks": (1, 1), "lam": half, "x": Fraction(0),
                                 "order": min(order, 6), "m_truncation": m_truncation}))
    tasks.append(("difference", {"ks": (1, -1), "lam": Fraction(1, 4), "x": Fraction(0),
                                 "order": min(order, 8), "m_truncation": m_truncation}))
    tasks.append(("addition", {"ks": (2, 1), "lam": third, "x": half, "y": third, "order": order}))
    return tasks


def _sweep_worker(task: tuple[str, dict]) -> dict:
    return _call(IDENTITIES, *task).to_json_dict()


def _worker_count(requested: int, tasks: int) -> int:
    """Sweep pool size: never more processes than tasks or CPUs."""
    return max(1, min(requested, tasks, os.cpu_count() or 1))


def _cmd_verify(args) -> tuple[object, str | None, int]:
    if args.all:
        _require(args.identity is None, "--all and --identity are mutually exclusive")
        tasks = _sweep_tasks(args.order, args.m_truncation)
        jobs = _worker_count(args.jobs, len(tasks))
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                reports = list(pool.map(_sweep_worker, tasks))
        else:
            reports = [_sweep_worker(t) for t in tasks]
        reports.sort(key=lambda rep: (rep["identity"], json.dumps(rep["params"], sort_keys=True)))
        code = EXIT_VERIFY_FAIL if any(rep["status"] == "fail" for rep in reports) else EXIT_OK
        return reports, None, code

    _require(args.identity is not None, "verify needs --identity or --all")
    report = _call_from_flags(IDENTITIES, args.identity, args)
    code = EXIT_VERIFY_FAIL if report.status == "fail" else EXIT_OK
    return report.to_json_dict(), None, code


def _emit(payload, csv_text: str | None, fmt: str, output: str | None):
    if fmt == "csv":
        if csv_text is None:
            raise UsageError("CSV output is only available for flat tables (numbers, stirling)")
        text = csv_text
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 for --help; pass both through
        return int(exc.code or 0)

    env_format = os.environ.get("POLYBERN_FORMAT")
    try:
        fmt = args.format
        if fmt is None:
            if env_format is not None and env_format not in ("json", "csv"):
                raise UsageError(f"POLYBERN_FORMAT must be json or csv, got {env_format!r}")
            fmt = env_format or "json"
        payload, csv_text, code = args.run(args)
        _emit(payload, csv_text, fmt, args.output)
        return code
    except (UsageError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a valuation guard tripping, or any other broken invariant
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
