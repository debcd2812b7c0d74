"""Seeded op lists for the three benchmark workloads.

An op is one ``polybern`` command line (the argv after the program name).
A workload is a fixed *pass* shape repeated ``n_passes`` times; only the
parameter values inside a pass come from the seeded generator.  The pass
count follows from ``--seconds`` and the workload's nominal pass time, so
the op list (and with it the number of samples behind every percentile)
is fixed by (workload, seed, seconds) and never by how fast the program
happens to run.

Every valued flag is written ``--flag=value``.  argparse reads
``--lambda -1/3`` or ``--ks -1,2`` as a flag with a missing value and
exits 2, because the value starts with ``-`` and is not a plain negative
number; the ``=`` form is the only spelling that passes such values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

TABLE_ORDERS = (48, 64, 80)
DIAG_TRUNCATIONS = (96, 128, 160)
DIAG_ORDER = 6
MAX_JOBS = 2


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _flags(**flags) -> tuple[str, ...]:
    return tuple(f"--{name.replace('_', '-')}={value}" for name, value in flags.items())


def _ks(values) -> str:
    return ",".join(str(k) for k in values)


def _rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class _Draw:
    """Seeded parameter source.

    Index values, depths and the like come from shuffled bags that hold
    every allowed value equally often, so each run sees nearly the same
    multiset of costly and cheap parameters and only their arrangement
    changes with the seed.  (lam, x) pairs never repeat within one op
    list, so no two calls share a lam-dependent factor with the same x.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[tuple[Fraction, Fraction]] = set()
        self._bags: dict[tuple, list] = {}

    def pick(self, values: tuple, tag=None):
        """The next value from the bag of ``values`` kept under ``tag``."""
        bag = self._bags.setdefault((tag, values), [])
        if not bag:
            bag.extend(values)
            self.rng.shuffle(bag)
        return bag.pop()

    def rational(self, nonzero: bool) -> Fraction:
        q = self.rng.randint(2, 9)
        while True:
            p = self.rng.randint(-(q - 1), q - 1)
            if p or not nonzero:
                return Fraction(p, q)

    def lam_x(self) -> tuple[Fraction, Fraction]:
        while True:
            pair = (self.rational(nonzero=True), self.rational(nonzero=False))
            if pair not in self.seen:
                self.seen.add(pair)
                return pair

    def x(self) -> Fraction:
        """An x for a family without lam; keyed as lam = 0, which lam_x
        never draws."""
        while True:
            pair = (Fraction(0), self.rational(nonzero=False))
            if pair not in self.seen:
                self.seen.add(pair)
                return pair[1]

    def ks(self, depth: int, tag=None) -> tuple[int, ...]:
        return tuple(self.pick(INDICES, tag) for _ in range(depth))


INDICES = (-1, 0, 1, 2, 3)


def _table_deep(draw: _Draw, passes: int) -> list[Op]:
    """Per pass and order: one degen-multi-poly and one type2-poly table;
    one carlitz table per pass, at a rotating order.

    The degen depth falls as the order rises (3 at N=48, 2 at 64, 1 at 80),
    so the calls at one order cost about the same, and one degen op per pass
    (at a rotating order) has the all-ones index vector, so the Carlitz
    reduction is checked every pass.  Carlitz tables cost a few hundredths
    of the others, so their count decides where the median call falls: one
    per pass puts it among the order-64 type-2 tables, clear of the gaps to
    the order-48 and order-80 groups.  With three passes (21 calls) the
    call with 10 calls beyond it is that median call.
    """
    ops = []
    for index in range(passes):
        for i, order in enumerate(TABLE_ORDERS):
            depth = len(TABLE_ORDERS) - i
            ks = (1,) * depth if i == index % 3 else draw.ks(depth, order)
            lam, x = draw.lam_x()
            ops.append(Op(("numbers",) + _flags(family="degen-multi-poly", ks=_ks(ks), **{"lambda": _rat(lam)},
                                                x=_rat(x), order=order)))
            ops.append(Op(("numbers",) + _flags(family="type2-poly", k=draw.pick(INDICES, ("k", order)),
                                                x=_rat(draw.x()), order=order)))
            if i == (index + 1) % 3:
                lam, x = draw.lam_x()
                ops.append(Op(("numbers",) + _flags(family="carlitz", r=draw.pick((1, 2, 3)),
                                                    **{"lambda": _rat(lam)}, x=_rat(x), order=order)))
    return ops


def _diag_long_m(draw: _Draw, passes: int) -> list[Op]:
    """Per pass: resummation and difference diagnostics (k_r >= 1) at each M."""
    ops = []
    for _ in range(passes):
        for m in DIAG_TRUNCATIONS:
            for identity in ("resummation", "difference"):
                tag = (m, identity)
                ks = draw.ks(draw.pick((1, 2), tag), tag) + (draw.pick((1, 2), tag + ("k_r",)),)
                lam, x = draw.lam_x()
                ops.append(Op(("verify",) + _flags(identity=identity, ks=_ks(ks), **{"lambda": _rat(lam)},
                                                   x=_rat(x), order=DIAG_ORDER, truncate=m)))
    return ops


def _sweep_small(draw: _Draw, kind: str) -> Op:
    rng = draw.rng
    if kind == "li-ones":
        return Op(("verify",) + _flags(identity="li-ones", r=draw.pick((2, 3, 4, 5)), order=rng.randint(16, 40)))
    if kind == "deriv":
        return Op(("verify",) + _flags(identity="deriv", ks=_ks(draw.ks(draw.pick((1, 2, 3)))),
                                       order=rng.randint(16, 32)))
    if kind in ("expansion", "addition", "chain-stirling"):
        depth = 2 if kind == "chain-stirling" else draw.pick((1, 2))
        lam, x = draw.lam_x()
        flags = {"identity": kind, "ks": _ks(draw.ks(depth)), "lambda": _rat(lam), "x": _rat(x)}
        if kind == "addition":
            flags["y"] = _rat(draw.rational(nonzero=False))
        flags["order"] = rng.randint(6, 8) if kind == "chain-stirling" else rng.randint(8, 12)
        return Op(("verify",) + _flags(**flags))
    if kind == "carlitz":
        lam, x = draw.lam_x()
        return Op(("numbers",) + _flags(family="carlitz", r=draw.pick((1, 2, 3)), **{"lambda": _rat(lam)},
                                        x=_rat(x), order=rng.randint(24, 48)))
    if kind == "stirling":
        return Op(("stirling",) + _flags(kind=draw.pick(("second", "first-unsigned", "first-signed")),
                                         max_n=rng.randint(40, 120)))
    name = draw.pick(("multi-polylog", "polyexp", "degenerate-exp"))
    order = rng.randint(64, 96)
    if name == "multi-polylog":
        return Op(("series",) + _flags(name=name, ks=_ks(draw.ks(draw.pick((1, 2, 3)))), order=order))
    if name == "polyexp":
        return Op(("series",) + _flags(name=name, k=draw.pick(INDICES), order=order))
    lam, x = draw.lam_x()
    return Op(("series",) + _flags(name=name, x=_rat(x), **{"lambda": _rat(lam)}, order=order))


SWEEP_KINDS = ("li-ones", "deriv", "expansion", "addition", "chain-stirling", "carlitz", "stirling", "series")
SWEEP_SMALL_PER_KIND = 5


def _sweep_wide(draw: _Draw, passes: int) -> list[Op]:
    """Per pass: a serial ``verify --all`` and five short calls of each kind;
    one ``verify --all`` on a two-worker pool per run; all in seeded order.

    Repeating the identical serial sweep puts the tail call (10 calls
    beyond it) inside a group of equal calls instead of among the rarest
    short calls, where one host stall would decide it.
    """
    ops = [Op(("verify", "--all", f"--jobs={MAX_JOBS}"))]
    for _ in range(passes):
        ops.append(Op(("verify", "--all")))
        ops.extend(_sweep_small(draw, kind) for kind in SWEEP_KINDS for _ in range(SWEEP_SMALL_PER_KIND))
    draw.rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (draw, passes) -> list[Op]
    pass_seconds: float  # nominal seconds per pass on the machine of BASELINE.json

    def n_passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table-deep", _table_deep, 9.0),
        Workload("diag-long-m", _diag_long_m, 3.7),
        Workload("sweep-wide", _sweep_wide, 1.4),
    )
}


def op_list(workload: str, seed: int, seconds: float) -> list[Op]:
    """The whole op list of one run; a pure function of its arguments."""
    spec = WORKLOADS[workload]
    return spec.make(_Draw(random.Random(f"{workload}/{seed}")), spec.n_passes(seconds))
