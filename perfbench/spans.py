"""Span recording from outside the program.

A Tracer wraps callables; each call records a span (name, layer, start,
end, parent) in memory. Self time of a span is its duration minus the
durations of its direct children: calls are single-threaded and nested, so
children never overlap one another.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, layer, time.perf_counter(), parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += record.duration

    def wrap(self, fn, name: str, layer: str, count=None):
        """Wrap fn so each call is a span; ``count(args, kwargs, result)``
        returns counter increments recorded at the same boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, module, table):
        """Replace ``module.<attr>`` by a traced wrapper for each
        (attr, span name, layer, count) in table; restore on exit."""
        originals = {attr: getattr(module, attr) for attr, *_ in table}
        try:
            for attr, name, layer, count in table:
                setattr(module, attr, self.wrap(originals[attr], name, layer, count))
            yield
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    @contextlib.contextmanager
    def counted(self, module, attr: str, key: str):
        """Count the calls to ``module.<attr>`` under ``key``, with no span:
        for functions called too often for a span per call to be cheap."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def counting(*args, **kwargs):
            self.counts[key] += 1
            return original(*args, **kwargs)

        setattr(module, attr, counting)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration
        return out

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += s.self_s
        return out
