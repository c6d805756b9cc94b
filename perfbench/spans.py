"""In-memory span tracer that wraps module functions from the outside.

``Tracer.patched(targets)`` replaces each ``module.attr`` named by a target
with a wrapper that opens a span around the call and records counts from
its result, and puts every original back when the block exits.  Nothing in
the traced package changes: the wrappers sit at the names the calling
modules look up at call time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    request: int | None


@dataclass(frozen=True)
class Target:
    """Wrap ``getattr(module, attr)`` in a span called ``name``.

    ``counts(result)`` returns counters to add for the current request.
    A missing attribute raises, so a renamed function fails the run instead
    of reading as a layer that costs nothing.
    """

    module: object
    attr: str
    name: str
    layer: str
    counts: Callable[[object], dict[str, float]] | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    # (request, counter) -> total
    counts: dict[tuple[int | None, str], float] = field(default_factory=dict)
    request: int | None = None
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, self.request))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        k = (self.request, key)
        self.counts[k] = self.counts.get(k, 0) + n

    def wrap(self, fn: Callable, target: Target) -> Callable:
        def traced(*args, **kwargs):
            with self.span(target.name, target.layer):
                result = fn(*args, **kwargs)
            self.count(target.name + ".calls")
            if target.counts is not None:
                for key, n in target.counts(result).items():
                    self.count(key, n)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, targets: list[Target]):
        saved = []
        try:
            for t in targets:
                fn = getattr(t.module, t.attr)
                saved.append((t.module, t.attr, fn))
                setattr(t.module, t.attr, self.wrap(fn, t))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def to_json(self) -> dict:
        return {
            "spans": [dataclasses.asdict(s) for s in self.spans],
            "counts": [{"request": r, "counter": k, "value": v}
                       for (r, k), v in self.counts.items()],
        }


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are merged, and clipped to the
    parent, before subtracting)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out
