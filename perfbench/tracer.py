"""A span tracer that wraps the latin3 package's public functions from outside.

Inside ``with Tracer(modules):`` every public function defined in a latin3
module is replaced, in every latin3 module that binds it, by a wrapper that
records a span. ``formulas`` imports ``binom``, ``falling`` and
``gen_derangement`` into its own namespace, and ``latin3`` re-exports nearly
everything, so patching only the defining module would miss most calls. On
exit every patched name is restored to the original object.

A square op at n = 40 makes about 3*10^5 calls to the combinatorial
primitives, so spans are not kept one by one. Each op is one root span with
its start and end; below it the tracer keeps, per op, one aggregate per
(parent, function) edge: calls, total time and self time. Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from types import ModuleType
from typing import Iterator

ROOT = "op"


def layer_name(fn) -> str:
    """``combinatorics.binom`` for latin3.combinatorics.binom."""
    return f"{fn.__module__.removeprefix('latin3.')}.{fn.__name__}"


def _traceable(attr: str, obj) -> bool:
    return (
        inspect.isfunction(obj)
        and obj.__module__.startswith("latin3.")
        and not attr.startswith("_")
        and not obj.__name__.startswith("_")
    )


class Tracer:
    def __init__(self, modules: list[ModuleType]):
        self._modules = modules
        self._patches: list[tuple[ModuleType, str, object]] = []
        # Frames are [name, seconds covered by child spans]; the bottom one
        # stands for "outside any op" so a wrapper never finds the stack empty.
        self._stack: list[list] = [[None, 0.0]]
        self._op_edges: dict[tuple, list] = {}  # (parent, name) -> [calls, total_s, self_s]
        self._seen: dict[str, set] = {}  # argument tuples seen in the current op
        self.edges: dict[tuple, list] = {}  # (op, parent, name) -> [calls, total_s, self_s]
        self.distinct: dict[str, int] = {}  # per-op distinct argument tuples, summed over ops
        self.roots: list[dict] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        try:
            for module in self._modules:
                for attr, obj in list(vars(module).items()):
                    if _traceable(attr, obj):
                        if obj not in wrappers:
                            wrappers[obj] = self._wrap(obj)
                        self._patches.append((module, attr, obj))
                        setattr(module, attr, wrappers[obj])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            module, attr, obj = self._patches.pop()
            setattr(module, attr, obj)

    def _wrap(self, fn):
        name = layer_name(fn)
        stack, edges = self._stack, self._op_edges
        seen = self._seen.setdefault(name, set())
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[1] += duration
                agg = edges.get((parent[0], name))
                if agg is None:
                    edges[parent[0], name] = [1, duration, duration - frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[1]
                try:
                    seen.add((args, tuple(kwargs.items())) if kwargs else args)
                except TypeError:  # an unhashable argument
                    pass

        return traced

    @contextlib.contextmanager
    def op(self, index: int) -> Iterator[None]:
        """Record one root span around a benchmark op; its calls share ``index``."""
        frame = [ROOT, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.roots.append(
                {"op": index, "start": start, "end": end, "self_s": end - start - frame[1]}
            )
            for (parent, name), agg in self._op_edges.items():
                self.edges[index, parent, name] = agg
            self._op_edges.clear()
            for name, args in self._seen.items():
                if args:
                    self.distinct[name] = self.distinct.get(name, 0) + len(args)
                    args.clear()

    def layers(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total_s, self_s and distinct_frac, the distinct
        argument tuples of each op summed over ops, divided by calls."""
        out: dict[str, dict[str, float]] = {}
        for (_, _, name), (calls, total, self_s) in self.edges.items():
            layer = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            layer["calls"] += calls
            layer["total_s"] += total
            layer["self_s"] += self_s
        for name, layer in out.items():
            layer["distinct_frac"] = self.distinct.get(name, 0) / layer["calls"]
        return out

    def spans(self) -> list[dict]:
        """The root spans, then the per-op edge aggregates, ready for JSON."""
        edges = [
            {"op": op, "parent": parent, "name": name, "calls": calls,
             "total_s": total, "self_s": self_s}
            for (op, parent, name), (calls, total, self_s) in self.edges.items()
        ]
        return [dict(r, name=ROOT) for r in self.roots] + edges
