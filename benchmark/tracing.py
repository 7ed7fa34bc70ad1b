"""In-memory spans around the public calls of each nfinv layer.

A span is (name, start, end, parent, size).  Spans are recorded by
wrappers that :func:`instrument` installs on module functions and class
methods for the duration of a ``with`` block; the program's source is not
touched.  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int       # index of the enclosing span, -1 at the top
    size: int = 1     # work items in the call (right-hand sides for a solve)


class Tracer:
    """Collects nested spans; the enclosing span is the innermost open one."""

    def __init__(self):
        self.spans: list[Span] = []
        self.results: dict[str, object] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, size=None, keep_result: bool = False):
        """Return ``fn`` recording one span per call.

        ``size(args)`` gives the span's work-item count; with
        ``keep_result`` the last return value is kept under ``name``.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent,
                        size(args) if size is not None else 1)
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if keep_result:
                self.results[name] = result
            return result
        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([[s.name, s.start, s.end, s.parent, s.size]
                       for s in self.spans], f)
            f.write("\n")


@contextlib.contextmanager
def instrument(tracer: Tracer, targets):
    """Replace each ``(owner, attr, name, size, keep)`` target while inside.

    ``owner`` is a module or a class; the original attribute is restored on
    exit, also when the body raises.
    """
    saved = []
    try:
        for owner, attr, name, size, keep in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, size, keep))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    kids = children(spans)
    out = []
    for s, k in zip(spans, kids):
        inner = [(max(spans[c].start, s.start), min(spans[c].end, s.end))
                 for c in k]
        out.append((s.end - s.start) - covered(
            (a, b) for a, b in inner if b > a))
    return out


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span below it."""
    kids = children(spans)
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids[i])
    return out
