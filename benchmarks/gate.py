"""Output gate: every call must exit with its expected code, match the
reference SHA-256 where one is committed, and satisfy invariants that are
checked along routes independent of the call that produced the output.

The invariants hold for any seed:

- ``degen-multi-poly``: beta_0 = r! * prod_i i^(-k_i); an all-ones index
  vector reproduces the Carlitz table (built by series inversion, with no
  polylog composition in it);
- ``type2-poly`` and ``carlitz``: beta_0 = 1;
- ``verify``: exact identities report ``pass``; the m-series identities
  with k_r >= 1 report ``diagnostic`` with a full residual table;
- ``stirling``: row sums are Bell numbers (second kind), n! (first kind,
  unsigned) or 0 for n >= 2 (first kind, signed);
- ``series``: closed-form coefficients (polyexp, degenerate-exp) or the
  leading chain term (multi-polylog).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial, prod

EXPECTED_EXIT_CODE = 0
SWEEP_STATUSES = ("pass", "diagnostic")


class GateError(Exception):
    """An output that fails the gate."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flags(argv) -> dict[str, str]:
    out = {}
    for arg in argv[1:]:
        name, _, value = arg[2:].partition("=")
        out[name] = value if value else "true"
    return out


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _rats(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _require(condition: bool, message: str):
    if not condition:
        raise GateError(message)


def _chain_head(ks) -> Fraction:
    """prod_{i=1..r} i^(-k_i): the shortest chain 1 < 2 < ... < r."""
    return prod((Fraction(i) ** -k for i, k in enumerate(ks, start=1)), start=Fraction(1))


def _bell(n_max: int) -> list[int]:
    """Bell numbers by the Bell triangle (no Stirling numbers involved)."""
    bells, row = [1], [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bells.append(row[0])
    return bells


def _check_numbers(flags, data):
    family = flags["family"]
    order = int(flags["order"])
    _require(data["family"] == family and data["order"] == order, "parameters not echoed")
    values = _rats(data["values"])
    _require(len(values) == order + 1, "wrong number of values")
    if family == "degen-multi-poly":
        ks = _ints(flags["ks"])
        _require(values[0] == factorial(len(ks)) * _chain_head(ks), "beta_0 != r! * prod i^-k_i")
        if set(ks) == {1}:
            from polybern.families import carlitz_degenerate

            carlitz = carlitz_degenerate(len(ks), Fraction(flags["lambda"]), Fraction(flags["x"]), order)
            _require(tuple(values) == carlitz.values, "all-ones values differ from the Carlitz table")
    else:
        _require(values[0] == 1, "beta_0 != 1")


def _check_verify(flags, data):
    if "all" in flags:
        _require(all(rep["status"] in SWEEP_STATUSES for rep in data), "sweep has a failing report")
        return
    identity = flags["identity"]
    _require(data["identity"] == identity, "identity not echoed")
    series_identity = identity in ("resummation", "difference")
    if series_identity and _ints(flags["ks"])[-1] >= 1:
        order, m = int(flags["order"]), int(flags["truncate"])
        rows = (order + 1) if identity == "resummation" else order
        _require(data["status"] == "diagnostic", f"expected diagnostic, got {data['status']}")
        _require(len(data["residuals"]) == rows * (m + 1), "incomplete residual table")
    else:
        _require(data["status"] == "pass", f"expected pass, got {data['status']}")


def _check_stirling(flags, data):
    max_n = int(flags["max-n"])
    rows = data["rows"]
    _require(len(rows) == max_n + 1, "wrong number of rows")
    sums = [sum(row) for row in rows]
    kind = flags["kind"]
    if kind == "second":
        expected = _bell(max_n)
    elif kind == "first-unsigned":
        expected = [factorial(n) for n in range(max_n + 1)]
    else:
        expected = [1, 1] + [0] * (max_n - 1)
    _require(sums == expected[: max_n + 1], "row sums disagree")


def _check_series(flags, data):
    order = int(flags["order"])
    coeffs = _rats(data["coeffs"])
    _require(data["order"] == order and len(coeffs) == order + 1, "wrong number of coefficients")
    name = flags["name"]
    if name == "multi-polylog":
        ks = _ints(flags["ks"])
        r = len(ks)
        _require(all(c == 0 for c in coeffs[:r]), "nonzero coefficient below the depth")
        _require(coeffs[r] == _chain_head(ks), "leading coefficient != prod i^-k_i")
    elif name == "polyexp":
        k = int(flags["k"])
        expected = [Fraction(0)] + [Fraction(1, factorial(n - 1)) * Fraction(n) ** -k for n in range(1, order + 1)]
        _require(coeffs == expected, "polyexp coefficients disagree with 1/((n-1)! n^k)")
    else:
        x, lam = Fraction(flags["x"]), Fraction(flags["lambda"])
        expected = [prod((x - j * lam for j in range(n)), start=Fraction(1)) / factorial(n) for n in range(order + 1)]
        _require(coeffs == expected, "degenerate-exp coefficients disagree with the falling products")


_CHECKS = {
    "numbers": _check_numbers,
    "verify": _check_verify,
    "stirling": _check_stirling,
    "series": _check_series,
}


def check(argv, code: int, output: bytes, reference: str | None) -> str | None:
    """None if the call passes the gate, else the reason it does not."""
    if code != EXPECTED_EXIT_CODE:
        return f"exit code {code}, expected {EXPECTED_EXIT_CODE}"
    if reference is not None and sha256(output) != reference:
        return "SHA-256 differs from the reference"
    try:
        _CHECKS[argv[0]](_flags(argv), json.loads(output))
    except GateError as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"
    return None
