"""Per-layer tracing of zetaval from outside the package.

``Tracer.install`` replaces every public function and public method of each
traced module by a wrapper, in every namespace that holds it: the module
itself, the package, and each ``from ... import`` copy in a sibling module.
Otherwise calls between modules would bypass the wrapper.

Two layers (``rounding`` and ``interval``) are entered 10^5 to 10^6 times per
evaluation, so their wrappers only keep running counters: calls, self time,
and calls per direct caller.  The other layers also record one span per call
with a link to its parent span.  Self time is a call's duration minus the
time spent in the wrapped calls it made.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass

COUNTER_LAYERS = ("rounding", "interval")
SPAN_LAYERS = ("functions", "zeta", "dirichlet", "characters", "dedekind", "exact", "kernels",
               "elliptic")
LAYERS = COUNTER_LAYERS + SPAN_LAYERS


@dataclass
class Span:
    sid: int
    parent: int  # sid of the enclosing span, 0 at the top
    eval_id: int
    name: str
    start: float
    end: float = 0.0
    self_s: float = 0.0
    note: tuple = ()


def _note_zeta_em(args, kwargs) -> tuple:
    params = kwargs.get("params", args[1] if len(args) > 1 else None)
    return (params.N,)


def _note_point_count(args, kwargs) -> tuple:
    primes = [int(p) for p in args[1]]
    return (len(primes), sum(primes))


# arguments worth keeping on a span, by function
NOTES = {"zeta.zeta_em": _note_zeta_em, "kernels.count_points_batch": _note_point_count}


def _public_callables(module):
    """(owner, attribute, function) for the module's own public API."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj
        elif inspect.isclass(obj):
            for mname, mobj in vars(obj).items():
                if not mname.startswith("_") and inspect.isfunction(mobj):
                    yield obj, mname, mobj


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = ["<root>"]
        self.calls: list[int] = [0]
        self.self_s: list[float] = [0.0]
        self.spans: list[Span] = []
        self.eval_id = 0
        self._direct: dict[tuple[int, int], int] = {}
        self._stack: list[list] = [[0, 0.0, 0]]  # [function index, child time, span id]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for owner, attr, fn in _public_callables(module):
                # PrecisionContext methods are the interval layer's operations
                plain = owner is module or owner.__name__ == "PrecisionContext"
                name = f"{layer}.{attr}" if plain else f"{layer}.{owner.__name__}.{attr}"
                make = self._counter if layer in COUNTER_LAYERS else self._span
                wrapper = make(fn, self._index(name), NOTES.get(name))
                wrappers[id(fn)] = (fn, wrapper)
                self._patch(owner, attr, wrapper)
        # every other binding of a wrapped function: package re-exports and
        # `from .x import f` copies inside sibling modules
        for module in [self.package] + [getattr(self.package, m) for m in LAYERS]:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    # -- wrappers ---------------------------------------------------------------

    def _counter(self, fn, idx: int, _note):
        calls, self_s, direct, stack = self.calls, self.self_s, self._direct, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            calls[idx] += 1
            pair = (parent[0], idx)
            direct[pair] = direct.get(pair, 0) + 1
            frame = [idx, 0.0, parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                self_s[idx] += d - frame[1]
                parent[1] += d

        return wrapper

    def _span(self, fn, idx: int, note):
        calls, self_s, direct, stack, spans = self.calls, self.self_s, self._direct, self._stack, self.spans
        name = self.names[idx]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            calls[idx] += 1
            pair = (parent[0], idx)
            direct[pair] = direct.get(pair, 0) + 1
            span = Span(len(spans) + 1, parent[2], self.eval_id, name, 0.0,
                        note=note(args, kwargs) if note else ())
            spans.append(span)
            frame = [idx, 0.0, span.sid]
            stack.append(frame)
            t0 = span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = end = clock()
                d = end - t0
                stack.pop()
                span.self_s = d - frame[1]
                self_s[idx] += span.self_s
                parent[1] += d

        return wrapper

    # -- queries ---------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def direct(self, parent: str, child: str) -> int:
        """Calls of ``child`` made directly inside ``parent``."""
        return self._direct.get((self.names.index(parent), self.names.index(child)), 0)

    def fn_self(self, name: str) -> float:
        return self.self_s[self.names.index(name)]

    def layer_self(self, layer: str) -> float:
        return sum(t for n, t in zip(self.names, self.self_s) if n.startswith(layer + "."))
