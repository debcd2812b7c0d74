"""Layer-boundary spans, installed on the ``polybern`` modules from outside.

A span covers one call from one package module (or from the benchmark)
into another module's function or method.  A call from inside the same
module is not a new span: the wrapper looks at its caller's module and
passes straight through.  So ``TruncatedSeries.compose`` called from
``families`` is one ``series.compose`` span that includes the products it
runs inside itself, while a product called from ``families`` is its own
``series.mul`` span.

Spans (name, start, end, parent) are kept in flat arrays and written out
once at the end.  A layer's self time is the sum over its spans of the
duration minus the children's durations; children of one span never
overlap because the program is single threaded in this process.

What is wrapped, per layer module: every function defined there (public
names where the module itself exposes them, any name where another package
module imported it), and the public methods, classmethods and arithmetic
operators of its classes.  Properties and item/iteration/comparison
dunders are field reads cheaper than a span and are left alone.  The
``ProcessPoolExecutor`` that ``cli`` starts for ``--jobs`` is replaced by a
subclass whose lifetime is the ``cli.pool_wait`` span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from fractions import Fraction

LAYERS = ("cli", "verify", "families", "series", "special", "rationals")
POOL_SPAN = "cli.pool_wait"
_OPERATORS = {
    "__init__": "init",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
}


class Tracer:
    """In-memory span store.  ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.max_coeff_bits = 0
        self.family_keys: set = set()
        self.family_calls = 0

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int):
        self.ends[index] = self.clock()
        self._stack.pop()

    def note_series(self, series):
        """Largest numerator plus denominator bit length seen so far."""
        bits = max(c.numerator.bit_length() + c.denominator.bit_length() for c in series.coeffs)
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    def note_family(self, lam, r: int, order: int):
        self.family_calls += 1
        self.family_keys.add((Fraction(lam), r, order))

    def write(self, path):
        """One CSV line per span: name,start_s,end_s,parent_index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name,start_s,end_s,parent\n")
            names = self.names
            for nid, start, end, parent in zip(self.name_ids, self.starts, self.ends, self.parents):
                handle.write(f"{names[nid]},{start:.9f},{end:.9f},{parent}\n")


def self_times(parents, starts, ends) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    return own


def _bucket(name: str) -> str:
    return "pool" if name == POOL_SPAN else name.split(".", 1)[0]


def summarize(tracer: Tracer) -> dict:
    """Inclusive seconds and call counts per span name, self seconds per
    layer (with the pool wait as its own bucket), and the root total."""
    names = tracer.names
    own = self_times(tracer.parents, tracer.starts, tracer.ends)
    inclusive = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    layer_self = dict.fromkeys(LAYERS + ("pool",), 0.0)
    root_s = 0.0
    for index, nid in enumerate(tracer.name_ids):
        name = names[nid]
        duration = tracer.ends[index] - tracer.starts[index]
        inclusive[name] += duration
        calls[name] += 1
        layer_self[_bucket(name)] += own[index]
        if tracer.parents[index] < 0:
            root_s += duration
    return {"inclusive_s": inclusive, "calls": calls, "self_s": layer_self, "root_s": root_s}


def _family_key(signature: inspect.Signature):
    params = signature.parameters
    if "order" not in params or not ({"ks", "k", "r"} & set(params)):
        return None

    def key(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        if "ks" in bound:
            r = len(tuple(bound["ks"]))
        else:
            r = bound.get("r", 1)
        return bound.get("lam", 0), r, bound["order"]

    return key


def _wrap(tracer: Tracer, fn, name: str, module_name: str, series_type, family_key=None):
    open_span, close_span, getframe = tracer.open, tracer.close, sys._getframe

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if getframe(1).f_globals.get("__name__") == module_name:
            return fn(*args, **kwargs)
        if family_key is not None:
            lam, r, order = family_key(args, kwargs)
            if r:
                tracer.note_family(lam, r, order)
        index = open_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(index)
        if type(result) is series_type:
            tracer.note_series(result)
        return result

    return wrapper


def _defined_in(fn, module) -> bool:
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def install(tracer: Tracer, package) -> callable:
    """Wrap the layer boundaries of ``package`` (the imported ``polybern``);
    return a function that restores every replaced attribute."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    series_type = modules["series"].TruncatedSeries
    undo: list[tuple[object, str, object]] = []

    def replace(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    wrappers: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and _defined_in(obj, module):
                key = _family_key(inspect.signature(obj)) if layer == "families" else None
                wrappers[id(obj)] = _wrap(tracer, obj, f"{layer}.{obj.__name__.lstrip('_')}",
                                          module.__name__, series_type, key)
                if not attr.startswith("_"):
                    replace(module, attr, wrappers[id(obj)])
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for method_name, member in list(vars(obj).items()):
                    public = not method_name.startswith("_") or method_name in _OPERATORS
                    label = f"{layer}.{_OPERATORS.get(method_name, method_name)}"
                    if isinstance(member, classmethod) and public:
                        replace(obj, method_name, classmethod(
                            _wrap(tracer, member.__func__, label, module.__name__, series_type)))
                    elif inspect.isfunction(member) and public and _defined_in(member, module):
                        replace(obj, method_name, _wrap(tracer, member, label, module.__name__, series_type))

    # names another module imported: the boundary calls
    for module in list(modules.values()) + [package]:
        for attr, obj in list(vars(module).items()):
            wrapped = wrappers.get(id(obj))
            if wrapped is not None and not _defined_in(obj, module):
                replace(module, attr, wrapped)

    cli = modules["cli"]
    base_pool = cli.ProcessPoolExecutor

    class TracedPool(base_pool):
        def __init__(self, *args, **kwargs):
            self._span = tracer.open(POOL_SPAN)
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    replace(cli, "ProcessPoolExecutor", TracedPool)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
