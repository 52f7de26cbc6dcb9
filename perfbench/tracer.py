"""Spans around the public functions of oddsphere, installed from outside.

`Tracer.install` replaces every public function of the layer modules with a
timing wrapper, in the module that defines it and in every layer module (and
the package) that imported the name, so calls by global name inside a module
(`rref` from `kernel_basis`) and through aliases (`cli.run_catalog`) are
traced too.  `uninstall` puts every original back.  Calls, self time and errors are
summed per function as spans close and folded into per-kind totals when the
operation ends (`finish_op`), its self times scaled to the run's machine
speed; the spans themselves are kept in memory while `keep_spans` is set,
for the run to write out when it ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "serialize", "complexes", "recognizer", "gale", "oracle", "linalg", "catalog")

WRAPPED_MARK = "__perfbench_original__"


class Span:
    __slots__ = ("op", "id", "parent", "name", "start", "end", "child", "error")

    def __init__(self, op, span_id, parent, name, start):
        self.op, self.id, self.parent, self.name, self.start = op, span_id, parent, name, start
        self.end = start
        self.child = 0.0  # time covered by direct children
        self.error = False

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child

    def as_row(self) -> list:
        return [self.op, self.id, self.parent, self.name, self.start, self.end, self.error]


def _coord_bits(points) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for p in points.points for x in p),
        default=0,
    )


def _hull_counts(counters, args, kwargs, result) -> None:
    pc = args[0] if args else kwargs["pc"]
    counters["oracle.hull_facets.subsets"] += math.comb(pc.n, pc.dim)
    counters["oracle.hull_facets.facets"] += len(result)


def _reconstruct_counts(counters, args, kwargs, result) -> None:
    counters["max_coord_bits"] = max(counters["max_coord_bits"], _coord_bits(result))


# Counts taken from a function's arguments and result, where the work happens.
HOOKS = {
    "oracle.hull_facets": _hull_counts,
    "gale.reconstruct_points": _reconstruct_counts,
}


def public_functions(module):
    """(name, function) for the functions a module defines without a leading underscore."""
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


class Tracer:
    def __init__(self, modules: dict, package):
        self.modules = modules  # layer name -> module object
        self.package = package
        self.spans: list[Span] = []
        self.keep_spans = True
        # function -> [calls, self seconds, errors] of the operation under way
        self.pending: defaultdict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        # (operation kind, function) -> [calls, scaled self seconds, errors]
        self.totals: defaultdict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0])
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(tracer.op, next(tracer._ids), parent.id if parent else None, name, perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                row = tracer.pending[name]
                row[0] += 1
                row[1] += span.self_s
                row[2] += span.error
                if tracer.keep_spans:
                    tracer.spans.append(span)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        setattr(traced, WRAPPED_MARK, fn)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, module in self.modules.items():
            for name, fn in public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in (*self.modules.values(), self.package):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and getattr(wrapper, WRAPPED_MARK) is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def finish_op(self, kind: str, speed_factor: float) -> None:
        """Add the operation's sums to its kind, self times times speed_factor."""
        for name, (calls, self_s, errors) in self.pending.items():
            row = self.totals[kind, name]
            row[0] += calls
            row[1] += self_s * speed_factor
            row[2] += errors
        self.pending.clear()

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def installed_wrappers(modules: dict, package) -> list[str]:
    """Module attributes that still hold a tracing wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in (*modules.values(), package)
        for attr, value in vars(module).items()
        if hasattr(value, WRAPPED_MARK)
    ]


def aggregate(totals, kinds=None) -> dict[str, list]:
    """function -> [calls, self seconds, errors], summed over the given operation kinds."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
    for (kind, name), row in totals.items():
        if kinds is None or kind in kinds:
            for i, value in enumerate(row):
                out[name][i] += value
    return out
