"""Span recorder for the traced benchmark run.

Spans are recorded only from benchmark code: while a run is traced, the
module-level names that the library and the workload bodies resolve at call
time are swapped for wrappers that record (name, start, end, parent). The
library itself is never edited, and the untraced run executes no tracing
code at all.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span store; one span per wrapped call.

    Spans live in flat arrays (a few bytes each) because the s87 check makes
    about 300k wrapped calls. parent is the index of the enclosing span, or
    -1 at top level. counters hold work counts recorded at the same
    boundaries as the spans.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """fn recorded as span `name`; after(args, result) may add counts."""
        names, start, end, parent = self.names, self.start, self.end, self.parent
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [self.duration(i) for i in range(len(self.names))]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.duration(i)
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed duration, summed self time and call count."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            row["total"] += self.duration(i)
            row["self"] += selfs[i]
            row["calls"] += 1
        return out

    def children(self, i: int) -> list[int]:
        return [j for j, p in enumerate(self.parent) if p == i]


@contextmanager
def patched(replacements):
    """Swap each (module, attribute, make) for make(original).

    Every original is restored on exit, even when the body raises.
    """
    saved = []
    try:
        for module_name, attr, make in replacements:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
