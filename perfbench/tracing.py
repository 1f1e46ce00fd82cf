"""Span tracer for the traced benchmark run.

The tracer patches solvrigid from outside: it replaces the public functions
and methods of each layer module with wrappers, so the package carries no
tracing code and the untraced run pays nothing. A wrapper records a span at
the layer boundary and nests it under the span that called it. Spans are
aggregated as they close, by name and by call path, so memory is bounded by
the number of distinct names and paths, not by the number of calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

LAYERS = (
    "spectral",
    "quasimetric",
    "solvgroup",
    "mapalg",
    "funcexpr",
    "nilpotent",
    "conformal",
    "tukia",
    "cli",
)

# FuncExpr nodes evaluate one another recursively, hundreds of thousands of
# times for one long word; a span per node would dominate the traced run, so
# node evaluations are counted, not timed.
COUNTED_MODULE = "funcexpr"

_BINS_PER_OCTAVE = 32  # duration histogram resolution: about 2% per bin
_MIN_DURATION = 1e-9


class CallStats:
    """Calls, self time and a log-binned histogram of span durations."""

    __slots__ = ("calls", "self_s", "hist")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hist: Counter = Counter()

    def add(self, duration: float, own: float) -> None:
        self.calls += 1
        self.self_s += own
        self.hist[int(math.floor(math.log2(max(duration, _MIN_DURATION)) * _BINS_PER_OCTAVE))] += 1

    def percentile(self, q: float) -> float:
        """Duration in seconds below which a share q of the calls fall."""
        if not self.calls:
            return 0.0
        rank = q * self.calls
        seen = 0
        for b in sorted(self.hist):
            seen += self.hist[b]
            if seen >= rank:
                break
        return 2.0 ** ((b + 0.5) / _BINS_PER_OCTAVE)


class Tracer:
    """Collects nested spans; ``clock`` is injectable so tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, CallStats] = {}
        self.counts: Counter = Counter()
        # call-path tree: node 0 is the root; node i > 0 is (parent, name)
        self._node_ids: dict[tuple[int, str], int] = {}
        self.node_parent = [0]
        self.node_name = [""]
        self.node_calls = [0]
        self.node_self_s = [0.0]
        self._stack: list[list] = []  # open spans: [node, time covered by children]

    def _node(self, parent: int, name: str) -> int:
        node = self._node_ids.get((parent, name))
        if node is None:
            node = len(self.node_name)
            self._node_ids[(parent, name)] = node
            self.node_parent.append(parent)
            self.node_name.append(name)
            self.node_calls.append(0)
            self.node_self_s.append(0.0)
        return node

    def calls(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.calls if stats else 0

    def span(self, name: str, fn):
        """Wrap fn so each call records a span named ``name``."""
        stats = self.stats.setdefault(name, CallStats())
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node = self._node(stack[-1][0] if stack else 0, name)
            frame = [node, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                stats.add(duration, own)
                self.node_calls[node] += 1
                self.node_self_s[node] += own

        return traced

    def counter(self, names: tuple[str, ...], fn):
        """Wrap fn so each call increments every counter in ``names``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for name in names:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def path(self, node: int) -> str:
        """The call path to a node, with recursion written as ``name xN``."""
        names = []
        while node:
            names.append(self.node_name[node])
            node = self.node_parent[node]
        parts: list[list] = []
        for name in reversed(names):
            if parts and parts[-1][0] == name:
                parts[-1][1] += 1
            else:
                parts.append([name, 1])
        return " > ".join(name if n == 1 else f"{name} x{n}" for name, n in parts)

    def top_paths(self, limit: int) -> list[dict]:
        """Call paths with the most self time, for the run's log."""
        order = sorted(range(1, len(self.node_name)), key=lambda n: -self.node_self_s[n])
        return [
            {"path": self.path(n), "calls": self.node_calls[n], "self_s": self.node_self_s[n]}
            for n in order[:limit]
        ]


def _rebind(original, replacement) -> None:
    """Point every solvrigid module attribute that holds ``original`` at the replacement.

    Module-level dicts count as re-exports too: the CLI dispatches its
    suites through one.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "solvrigid" or name.startswith("solvrigid.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and (attr != "__call__" or layer == COUNTED_MODULE):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(tracer.span(name, value.__func__)))
        elif isinstance(value, classmethod):
            setattr(cls, attr, classmethod(tracer.span(name, value.__func__)))
        elif inspect.isfunction(value):
            setattr(cls, attr, tracer.span(name, value))


def _count_nodes(tracer: Tracer, module) -> None:
    base = getattr(module, "FuncExpr", None)
    for cls in list(vars(module).values()):
        if not (inspect.isclass(cls) and base is not None and issubclass(cls, base)):
            continue
        call = vars(cls).get("__call__")
        if call is not None:
            names = ("funcexpr.evals", f"funcexpr.{cls.__name__}.evals")
            cls.__call__ = tracer.counter(names, call)


def _observe_circumcenter(tracer: Tracer, module) -> None:
    """Record inner ddist calls, input size and max_iters exits per circumcenter call."""
    fn = getattr(module, "circumcenter", None)
    if fn is None:
        return
    params = inspect.signature(fn).parameters
    default_iters = params["max_iters"].default if "max_iters" in params else None
    counts = tracer.counts

    @functools.wraps(fn)
    def observed(classes, *args, **kwargs):
        before = tracer.calls("conformal.ddist")
        out = fn(classes, *args, **kwargs)
        inner = tracer.calls("conformal.ddist") - before
        size = len(classes)
        counts["conformal.circumcenter.inner_ddist"] += inner
        counts["conformal.circumcenter.input_size"] += size
        max_iters = kwargs.get("max_iters", args[1] if len(args) > 1 else default_iters)
        # the loop evaluates every input once up front and once per iteration
        if max_iters is not None and size > 1 and inner >= size * (max_iters + 1):
            counts["conformal.circumcenter.maxed"] += 1
        return out

    _rebind(fn, observed)


def instrument(tracer: Tracer) -> None:
    """Patch the public callables of every layer module, and their re-exports."""
    for layer in LAYERS:
        module = importlib.import_module(f"solvrigid.{layer}")
        if layer == COUNTED_MODULE:
            _count_nodes(tracer, module)
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                _wrap_class(tracer, layer, value)
            elif inspect.isfunction(value):
                _rebind(value, tracer.span(f"{layer}.{attr}", value))
    _observe_circumcenter(tracer, importlib.import_module("solvrigid.conformal"))


def parse_importtime(text: str) -> dict[str, tuple[float, float]]:
    """Self and cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) != 3 or not parts[0].isdigit():
            continue  # the header line
        out[parts[2]] = (int(parts[0]) / 1e6, int(parts[1]) / 1e6)
    return out
