"""Command-line front end.

Four verbs: ``series`` prints the exact coefficients of one named series,
``numbers`` prints a family's value table, ``stirling`` prints a Stirling
triangle, and ``verify`` runs one identity check (or a whole sweep with
``--all``, which takes none of the per-identity flags).  Output is JSON by
default; CSV is available for the flat tables only (numbers, stirling).
Each verb's parser lists the formats it writes, so the argv alone decides
the output and argparse refuses any other format before any work.
This module alone turns a result into output: :func:`_json_value` and
:func:`_csv_text` read the fields of the library's result types, which
carry data only.
Each series, family and identity is one ``Entry`` of a table, from which
its verb's parameter flags (typed by ``FLAG_TYPES``), its flag checks and
``--all`` points are derived; the size refusals of the m-series
identities follow from their ``m_truncation`` parameter.
``verify --all --jobs N`` runs the sweep on a process pool; the pool's
modules (``concurrent.futures``, ``multiprocessing``) load only when one
starts, as ``ProcessPoolExecutor`` is imported on its first access.

All rational-valued flags take "p/q" or "p", with |p| and q at most
``MAX_RATIONAL_TERM``.  Truncation defaults (order 16, m-truncation 32)
are echoed into every output so results are self-describing.

The CLI refuses a call past one of its caps (``MAX_ORDER`` and the rest
below) or with flags its entry does not take; the library refuses a value
outside its domain (an order, depth, truncation or ``max_n`` below its
least value) with ``ArgumentError``, where the value enters and before any
work.  ``verify --all`` checks no domain ahead of its points: the first
point that refuses ends the sweep with that refusal, from a pool worker as
from a serial run.

Exit codes: 0 success or verification pass (diagnostic runs count as
success once they complete), 1 verification fail, 2 usage or environment
error (a refusal by the CLI or an ``ArgumentError`` from the library, or
an unwritable ``--output``; a regular file is replaced atomically, so a
failed write leaves its old content), 3 internal error (a valuation guard
tripping means a bug in the math, not in the invocation; any other
unexpected exception, a plain ValueError included, is reported the same
way).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import os
import re
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .families import SequenceResult
from .rationals import ArgumentError, format_rational, parse_rational
from .special import STIRLING_KINDS, StirlingTable, stirling_table
from .verify import DEFAULT_M_TRUNCATION, VerificationReport

DEFAULT_ORDER = 16
# The flags verify --all takes besides --order: parsed with default None so a
# call that does not take one can refuse it, and given its value where taken
FLAG_DEFAULTS = {"m_truncation": DEFAULT_M_TRUNCATION, "jobs": 1}

# The largest accepted --order, --truncate and --max-n.  A larger value is a
# usage error, refused before any work; README.md gives the time and memory
# of the costliest call these admit.
MAX_ORDER = 128
MAX_M_TRUNCATION = 160
MAX_STIRLING_N = 256
# Identity calls the caps above leave unbounded, refused the same way.  The
# m-series identities carry n_r^-(k_r+m) for every m they sum, and the
# digits of their exact values grow with the order times the largest such
# exponent, max(-k_r, k_r + truncate).
MAX_M_SERIES_SIZE = 48 * 128
# Every verb: the depth (length of --ks, or --r) and the weight of the
# indices (|k_1| + ... + |k_r|, or |k|).  A positive index k brings about
# lcm(1..order)^k into the denominators, so the digits of the exact values
# grow with the weight; the work grows with the depth.  The m-series
# identities bound their last index k_r by the rules above instead.
MAX_DEPTH = 16
MAX_INDEX_WEIGHT = 32
# |numerator| and denominator of --lambda, --x and --y: the values carry
# powers of lam, x, x + y and x + 1, whose digits grow with these sizes.
MAX_RATIONAL_TERM = 2**8

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first access and kept as a module
    global (PEP 562): ``concurrent.futures`` and ``multiprocessing`` load
    only when a ``verify --all --jobs`` call starts a pool, while the name
    stays the seam that tests and tracers replace."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ArgumentError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ks_flag(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"ks must be comma-separated integers, got {text!r}") from None


# The flag type of each parameter an entry may name besides those of
# FLAG_DEFAULTS, in the order the parsers declare them: series, numbers and
# verify each take the flag of every parameter an entry of their table names
FLAG_TYPES = {"ks": _ks_flag, "k": int, "r": int, "lam": _rational_flag, "x": _rational_flag, "y": _rational_flag}


class Entry(NamedTuple):
    """One CLI name: its function as ``"module.function"``, looked up in
    that module at call time so that a seam or tracer replacing it there
    sees every call; the parameters besides ``order``, in signature order,
    each read from its flag (an ``m_truncation`` among them makes the entry
    an m-series identity, which :func:`_check_identity_size` bounds and
    whose k_r the weight bound leaves free); and the ``verify --all``
    points: (largest order, all but m_truncation)."""

    function: str
    params: tuple[str, ...]
    sweep: tuple[tuple[int, dict], ...] = ()


SERIES = {
    "multi-polylog": Entry("special.multi_polylog", ("ks",)),
    "polyexp": Entry("special.polyexp", ("k",)),
    "one-minus-exp-neg": Entry("special.one_minus_exp_neg", ()),
    "log1p": Entry("special.log1p_series", ()),
    "degenerate-exp": Entry("special.degenerate_exp", ("x", "lam")),
}
FAMILIES = {
    "degen-multi-poly": Entry("families.degenerate_multi_poly_bernoulli", ("ks", "lam", "x")),
    "multi-poly": Entry("families.multi_poly_bernoulli", ("ks", "x")),
    "poly": Entry("families.poly_bernoulli", ("k", "x")),
    "type2-poly": Entry("families.type2_poly_bernoulli", ("k", "x")),
    "carlitz": Entry("families.carlitz_degenerate", ("r", "lam", "x")),
}
_HALF, _THIRD, _ZERO = Fraction(1, 2), Fraction(1, 3), Fraction(0)
IDENTITIES = {
    "expansion": Entry("verify.verify_polynomial_expansion", ("ks", "lam", "x"), sweep=tuple(
        (MAX_ORDER, {"ks": ks, "lam": _THIRD, "x": Fraction(2, 3)}) for ks in ((1, 2), (2, 1), (1, 1, 1)))),
    "li-ones": Entry("verify.verify_li_ones", ("r",),
                     sweep=tuple((MAX_ORDER, {"r": r}) for r in (1, 2, 3, 4))),
    "deriv": Entry("verify.verify_deriv_recurrences", ("ks",),
                   sweep=tuple((MAX_ORDER, {"ks": ks}) for ks in ((2,), (2, 1), (3, 2)))),
    "chain-stirling": Entry("verify.verify_chain_stirling", ("ks", "lam", "x"), sweep=tuple(
        (10, {"ks": ks, "lam": _HALF, "x": _ZERO}) for ks in ((1, 1), (2, 1)))),
    "resummation": Entry("verify.verify_resummation", ("ks", "lam", "x", "m_truncation"),
                         sweep=((6, {"ks": (2, 1), "lam": _THIRD, "x": _ZERO}),
                                (8, {"ks": (1, -2), "lam": _THIRD, "x": _ZERO}))),
    "difference": Entry("verify.verify_difference", ("ks", "lam", "x", "m_truncation"),
                        sweep=((6, {"ks": (1, 1), "lam": _HALF, "x": _ZERO}),
                               (8, {"ks": (1, -1), "lam": Fraction(1, 4), "x": _ZERO}))),
    "addition": Entry("verify.verify_addition", ("ks", "lam", "x", "y"),
                      sweep=((MAX_ORDER, {"ks": (2, 1), "lam": _THIRD, "x": _HALF, "y": _THIRD}),)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``polybern`` parser, built on the first call and shared by every
    later ``main`` call in the process.  Parsing leaves it unchanged: each
    call gets a new namespace, and the verb runs ``_cmd_<verb>``, looked up
    at call time like the functions of the tables above."""
    parser = argparse.ArgumentParser(
        prog="polybern",
        description="Exact Bernoulli-type sequence tables and identity verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, formats=("json",)):
        p.add_argument("--format", choices=formats, default="json", help="output format (default json)")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    def params(p, table):
        taken = {param for entry in table.values() for param in entry.params}
        for param, kind in FLAG_TYPES.items():
            if param in taken:
                p.add_argument(f"--{_flag(param)}", dest=param, type=kind, default=None)
        p.add_argument("--order", type=int, default=DEFAULT_ORDER)

    p_series = sub.add_parser("series", help="coefficients of one named series")
    p_series.add_argument("--name", required=True, choices=tuple(SERIES))
    params(p_series, SERIES)
    common(p_series)

    p_numbers = sub.add_parser("numbers", help="value table of one family")
    p_numbers.add_argument("--family", required=True, choices=tuple(FAMILIES))
    params(p_numbers, FAMILIES)
    p_numbers.set_defaults(x=Fraction(0))
    common(p_numbers, ("json", "csv"))

    p_stirling = sub.add_parser("stirling", help="Stirling triangle")
    p_stirling.add_argument("--kind", required=True,
                            choices=tuple(kind.replace("_", "-") for kind in STIRLING_KINDS))
    p_stirling.add_argument("--max-n", type=int, required=True)
    common(p_stirling, ("json", "csv"))

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--identity", choices=tuple(IDENTITIES))
    p_verify.add_argument("--all", action="store_true", help="run the default sweep")
    params(p_verify, IDENTITIES)
    p_verify.add_argument("--truncate", dest="m_truncation", metavar="TRUNCATE", type=int, default=None,
                          help="m-sum truncation for the diagnostic identities")
    p_verify.add_argument("--jobs", type=int, default=None,
                          help="parallel workers for --all (results stay deterministic)")
    common(p_verify)

    return parser


def _require(condition: bool, message: str):
    if not condition:
        raise ArgumentError(message)


def _flag(param: str) -> str:
    return {"lam": "lambda", "m_truncation": "truncate"}.get(param, param)


def _value(args, param: str):
    """The flag's value, or its ``FLAG_DEFAULTS`` value when not given."""
    value = getattr(args, param, None)
    return FLAG_DEFAULTS.get(param) if value is None else value


def _refuse_flags(table: dict, taken, args, who: str):
    """Refuse each given flag not in ``taken``: any parameter of ``table`` or ``FLAG_DEFAULTS``."""
    flags = dict.fromkeys(p for entry in table.values() for p in entry.params) | FLAG_DEFAULTS
    ignored = [f"--{_flag(p)}" for p in flags if p not in taken and getattr(args, p, None) is not None]
    _require(not ignored, f"{who} takes no " + " or ".join(ignored))


def _function(entry: Entry):
    """The function ``entry`` names, looked up in its module at each call."""
    module, name = entry.function.split(".")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


def _check_order(order: int):
    _require(order <= MAX_ORDER, f"order must be at most {MAX_ORDER}")


def _call_from_flags(table: dict, name: str, args):
    """Check the flags ``name`` takes and needs, refuse a call past any cap or bound, and make it."""
    entry = table[name]
    _check_order(args.order)
    _refuse_flags(table, entry.params, args, name)
    kwargs = {p: _value(args, p) for p in entry.params}
    missing = [p for p, value in kwargs.items() if value is None]
    _require(not missing, f"{name} needs " + " and ".join(f"--{_flag(p)}" for p in missing))
    for p, value in kwargs.items():
        if isinstance(value, Fraction):
            _require(max(abs(value.numerator), value.denominator) <= MAX_RATIONAL_TERM,
                     f"--{_flag(p)} needs |numerator| and denominator at most {MAX_RATIONAL_TERM}")
    kwargs["order"] = args.order
    _check_identity_size(entry, kwargs, name)
    _check_indices(entry, kwargs)
    return _function(entry)(**kwargs)


def _check_indices(entry: Entry, kwargs: dict):
    """Refuse an index vector past ``MAX_DEPTH`` or ``MAX_INDEX_WEIGHT``."""
    ks = kwargs.get("ks", ())
    _require(kwargs.get("r", len(ks)) <= MAX_DEPTH, f"depth (--ks length or --r) must be at most {MAX_DEPTH}")
    if "m_truncation" in entry.params:
        ks = ks[:-1]
    _require(sum(map(abs, ks)) + abs(kwargs.get("k", 0)) <= MAX_INDEX_WEIGHT,
             f"index weight (sum of |k_i| or |k|) must be at most {MAX_INDEX_WEIGHT}")


def _check_identity_size(entry: Entry, kwargs: dict, identity: str):
    """Refuse the m-series calls whose cost the order and truncation caps
    alone do not bound (see ``MAX_M_SERIES_SIZE``); pass any other call."""
    if "m_truncation" not in entry.params:
        return
    k_r = kwargs["ks"][-1]
    _require(-k_r <= MAX_M_TRUNCATION,
             f"{identity} with k_r <= 0 sums -k_r + 1 terms; -k_r must be at most {MAX_M_TRUNCATION}")
    exponent = -k_r if k_r <= 0 else k_r + kwargs["m_truncation"]
    _require(kwargs["order"] * exponent <= MAX_M_SERIES_SIZE,
             f"{identity} needs order * max(-k_r, k_r + truncate) at most {MAX_M_SERIES_SIZE}")


def _cmd_series(args) -> tuple[dict, int]:
    series = _call_from_flags(SERIES, args.name, args)
    params: dict = {"order": args.order}
    for p in SERIES[args.name].params:
        value = getattr(args, p)
        params[_flag(p)] = format_rational(value) if isinstance(value, Fraction) else value
    coeffs = [format_rational(c) for c in series]
    return {"series": args.name, "params": params, "order": series.order, "coeffs": coeffs}, EXIT_OK


def _cmd_numbers(args) -> tuple[SequenceResult, int]:
    return _call_from_flags(FAMILIES, args.family, args), EXIT_OK


def _cmd_stirling(args) -> tuple[StirlingTable, int]:
    _require(args.max_n <= MAX_STIRLING_N, f"max-n must be at most {MAX_STIRLING_N}")
    return stirling_table(args.kind.replace("-", "_"), args.max_n), EXIT_OK


def _sweep_tasks(order: int, m_truncation: int) -> list[tuple[str, dict]]:
    """The ``verify --all`` calls: every sweep point of ``IDENTITIES``."""
    return [(identity, {p: point.get(p, m_truncation) for p in entry.params} | {"order": min(order, top)})
            for identity, entry in IDENTITIES.items() for top, point in entry.sweep]


def _sweep_worker(task: tuple[str, dict]) -> dict:
    identity, kwargs = task
    return _json_value(_function(IDENTITIES[identity])(**kwargs))


def _worker_count(requested: int, tasks: int) -> int:
    """Sweep pool size: never more processes than tasks or than CPUs this
    process may run on (its affinity mask, where ``os`` can read one)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(requested, tasks, cpus))


def _cmd_verify(args) -> tuple[dict | list[dict], int]:
    """The JSON value of one report, or the sorted list of the sweep's, and
    the exit code of both: a verification failure when any report fails."""
    m_truncation = _value(args, "m_truncation")
    _require(m_truncation <= MAX_M_TRUNCATION, f"truncate must be at most {MAX_M_TRUNCATION}")
    _require(_value(args, "jobs") >= 1, "jobs must be at least 1")
    if args.all:
        _require(args.identity is None, "--all and --identity are mutually exclusive")
        _refuse_flags(IDENTITIES, FLAG_DEFAULTS, args, "--all runs its own points and")
        _check_order(args.order)
        tasks = _sweep_tasks(args.order, m_truncation)
        jobs = _worker_count(_value(args, "jobs"), len(tasks))
        if jobs > 1:
            with sys.modules[__name__].ProcessPoolExecutor(max_workers=jobs) as pool:
                reports = list(pool.map(_sweep_worker, tasks))
        else:
            reports = [_sweep_worker(t) for t in tasks]
        result = sorted(reports, key=lambda rep: (rep["identity"], json.dumps(rep["params"], sort_keys=True)))
    else:
        _require(args.identity is not None, "verify needs --identity or --all")
        result = _json_value(_call_from_flags(IDENTITIES, args.identity, args))
        reports = [result]
    return result, EXIT_VERIFY_FAIL if any(rep["status"] == "fail" for rep in reports) else EXIT_OK


class _Rows(NamedTuple):
    """A JSON list of objects that share one key order, given as the keys
    and each object's scalar values: the form :func:`_json_text` templates."""

    keys: tuple[str, ...]
    values: list[tuple]


# the keys of a report's row and residual objects, in output order
ROW_KEYS = ("check", "n", "lhs", "rhs", "equal")
RESIDUAL_KEYS = ("n", "M", "residual_decimal")


def _json_value(result):
    """The JSON value of a verb's result, built from its fields: a report
    with its rows and residuals each as a ``_Rows`` of value tuples, so that
    no row becomes a dict; a family table with its query's params; a
    Stirling table with its rows as they are; anything else (the series
    head of ``_cmd_series``, the report values of ``_cmd_verify``) as it is."""
    if isinstance(result, VerificationReport):
        rows = [(r.check, r.n, format_rational(r.lhs), format_rational(r.rhs), r.equal) for r in result.rows]
        residuals = result.residuals.values() if result.residuals else []
        return {"identity": result.identity, "params": result.params, "status": result.status,
                "rows": _Rows(ROW_KEYS, rows), "residuals": _Rows(RESIDUAL_KEYS, residuals)}
    if isinstance(result, SequenceResult):
        values = [format_rational(v) for v in result.values]
        return {"family": result.family, **result.query.to_params_dict(), "values": values}
    if isinstance(result, StirlingTable):
        return {"kind": result.kind, "max_n": result.max_n, "rows": result.rows}
    return result


def _csv_text(result: SequenceResult | StirlingTable) -> str:
    """The CSV of a flat table: a family's ``n,value`` rows, or a Stirling
    triangle as a rectangle, rows n and columns k, zero padded."""
    if isinstance(result, SequenceResult):
        lines = ["n,value", *(f"{n},{format_rational(v)}" for n, v in enumerate(result.values))]
    else:
        width = result.max_n + 1
        lines = [",".join(map(str, ("n", *range(width))))]
        lines += [",".join(map(str, (n, *row, *[0] * (width - len(row))))) for n, row in enumerate(result.rows)]
    return "\n".join(lines) + "\n"


# the JSON text of each scalar type the CLI emits
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _scalars(values) -> list[str] | None:
    """The JSON text of each value, by one encoder when they share a type;
    None when any value is not a scalar."""
    kinds = set(map(type, values))
    if not kinds.issubset(_SCALARS):
        return None
    encode = _SCALARS[kinds.pop()] if len(kinds) == 1 else lambda v: _SCALARS[type(v)](v)
    return list(map(encode, values))


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for dicts with str
    keys, lists, tuples and ``_Rows`` of str, int, bool and None; TypeError
    for any other type.  The text is one join of the pieces
    :func:`_append_json` collects, so no level is copied into its parent."""
    out: list[str] = []
    _append_json(value, "\n", out)
    return "".join(out)


def _append_json(value, indent: str, out: list[str]):
    """Append the pieces of ``value``'s text at ``indent`` to ``out``.  Two
    cases skip the item-by-item walk: a list of scalars is one join, and a
    ``_Rows`` is one %-template per object, built from its keys."""
    inner = indent + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for key, item in value.items():
            out += sep, encode_basestring_ascii(key), ": "
            _append_json(item, inner, out)
            sep = "," + inner
        out.append(indent + "}" if value else "{}")
        return
    if type(value) is _Rows:
        columns = [_scalars(column) for column in zip(*value.values)]
        if None in columns:
            raise TypeError("_Rows values must be JSON scalars")
        names = [encode_basestring_ascii(k).replace("%", "%%") for k in value.keys]
        if not names:  # each row is the empty object
            texts = ["{}"] * len(value.values)
        else:
            template = "{" + ",".join(f"{inner}  {name}: %s" for name in names) + inner + "}"
            texts = [template % row for row in zip(*columns)]
    elif isinstance(value, (list, tuple)):
        texts = _scalars(value)
    else:
        texts = _scalars((value,))
        if texts is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        out += texts
        return
    if texts is None:
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _append_json(item, inner, out)
            sep = "," + inner
        out.append(indent + "]" if value else "[]")
    else:
        out += ("[" + inner, ("," + inner).join(texts), indent + "]") if texts else ("[]",)


def _emit(result, fmt: str, output: str | None):
    """Write ``result`` to ``output`` (stdout when None) in ``fmt`` alone.

    A flat table (``numbers``, ``stirling``) is rendered only in the format
    asked for: :func:`_csv_text` for CSV, its JSON value for JSON.  No other
    verb's parser takes CSV.  Every JSON output is :func:`_json_value`
    written by :func:`_json_text`.
    """
    text = _csv_text(result) if fmt == "csv" else _json_text(_json_value(result)) + "\n"
    if output:
        _write_output(output, text)
    else:
        sys.stdout.write(text)


def _write_output(path: str, text: str):
    """Write ``text`` to ``path``, replacing a regular file atomically.

    A missing or regular target (symlinks followed) is replaced through
    :func:`_replace_file`, so it holds either its old content or all of the
    new.  Anything else (``/dev/null``, ``/dev/stdout``, a FIFO) is written
    in place, and so is a file in a directory that takes no new file or
    whose owner a new file cannot take.
    """
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    if old is None or stat.S_ISREG(old.st_mode):
        if _replace_file(os.path.realpath(path), old, text):
            return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _replace_file(target: str, old: os.stat_result | None, text: str) -> bool:
    """Write ``text`` to a temporary file next to ``target``, give it the
    owner, group and mode of ``old`` (umask-default mode when there is no
    old file, as ``open`` would give), flush it to disk and rename it over
    ``target``.  False, with nothing changed, when the temporary file may
    not be made or may not take the owner; it is removed if anything
    fails."""
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except PermissionError:
        return False
    replaced = False
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            if old is not None:
                try:
                    os.fchown(fd, old.st_uid, old.st_gid)
                except PermissionError:
                    return False
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            handle.write(text)
            handle.flush()
            os.fsync(fd)
        os.replace(temp, target)
        replaced = True
    finally:
        if not replaced:
            with contextlib.suppress(OSError):
                os.unlink(temp)
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """Spell ``--flag -1/3`` as ``--flag=-1/3``.

    argparse takes a word that starts with ``-`` for a flag unless it reads
    as a plain negative number, so ``--lambda -1/3`` or ``--ks -1,2`` would
    lose their value.  No flag starts with ``-`` and a digit, so such a word
    after a ``--flag`` can only be that flag's value.
    """
    words: list[str] = []
    for word in argv:
        prev = words[-1] if words else ""
        if prev.startswith("--") and "=" not in prev and re.match(r"-[0-9]", word):
            words[-1] = f"{prev}={word}"
        else:
            words.append(word)
    return words


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 for --help; pass both through
        return int(exc.code or 0)

    try:
        result, code = globals()[f"_cmd_{args.verb}"](args)
        _emit(result, args.format, args.output)
        return code
    except ArgumentError as exc:
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
