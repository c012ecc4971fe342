"""Span-recording shims installed around hadrow's public functions.

The shims live here, outside the package, so hadrow itself is measured
unmodified.  Each shim replaces the wrapped function at every name under
which a hadrow module looks it up: `hadrow.ordering.generate_row` and
`hadrow.cli.generate_row` as well as `hadrow.core.generate_row`.

Spans are kept on a per-thread stack and tagged with the thread id and
the id of the benchmark operation that was running, so work done on
`batch --jobs` worker threads never nests under a span of the main
thread.  Times are integer nanoseconds from `perf_counter_ns`, so a
span's self time (its duration minus its direct children's durations on
the same thread) is exact and never negative.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns


class Span:
    __slots__ = ("name", "thread", "op", "depth", "start", "end", "child_ns")

    def __init__(self, name: str, thread: int, op, depth: int) -> None:
        self.name = name
        self.thread = thread
        self.op = op
        self.depth = depth
        self.start = 0
        self.end = 0
        self.child_ns = 0

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    """Collects spans and counts for one operation at a time."""

    def __init__(self) -> None:
        self.op = None
        self.main_thread = threading.get_ident()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def add(self, key: str, value: int) -> None:
        # Counters are bumped from worker threads too; += is not atomic.
        with self._lock:
            self.counts[key] += value

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, threading.get_ident(), tracer.op, len(stack))
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1].child_ns += span.end - span.start
                tracer.spans.append(span)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return shim

    def install(self, targets) -> None:
        """Patch each (name, owner, attribute, count) target.

        A class owner is patched on the class itself, which every caller
        reaches through the instance.  A module owner's function is
        patched wherever any loaded hadrow module binds that function.
        """
        if self._patches:
            raise RuntimeError("shims already installed")
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "hadrow" or key.startswith("hadrow."))
        ]
        for name, owner, attr, count in targets:
            original = getattr(owner, attr)
            shim = self.wrap(name, original, count)
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [
                    (mod, key)
                    for mod in modules
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for site, key in sites:
                self._patches.append((site, key, original))
                setattr(site, key, shim)

    def uninstall(self) -> None:
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)

    def take_op(self, wall_ns: int) -> dict:
        """Summarise and forget the spans of the operation that just ended.

        Returns per-name calls, busy and self nanoseconds; the wait inside
        `cli.main` (its self time while a span of the same op is open on
        another thread); and the op's wall time not covered by any span
        on the main thread.
        """
        spans, self.spans = self.spans, []
        per_name: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for span in spans:
            entry = per_name[span.name]
            entry[0] += 1
            entry[1] += span.end - span.start
            entry[2] += span.self_ns
        main = [s for s in spans if s.thread == self.main_thread]
        covered = sum(s.self_ns for s in main)
        wait = 0
        for outer in (s for s in main if s.name == "cli.main"):
            workers = _union(
                (s.start, s.end)
                for s in spans
                if s.op == outer.op and s.thread != self.main_thread and s.depth == 0
            )
            children = sorted(
                (s.start, s.end)
                for s in main
                if s.depth == outer.depth + 1 and outer.start <= s.start and s.end <= outer.end
            )
            wait += _overlap(_gaps(outer.start, outer.end, children), workers)
        return {
            "per_name": dict(per_name),
            "wait_ns": wait,
            "unaccounted_ns": wall_ns - covered,
            "min_self_ns": min((s.self_ns for s in spans), default=0),
        }


def _union(intervals) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _gaps(start: int, end: int, children) -> list[tuple[int, int]]:
    """Parts of [start, end) that no (sorted, disjoint) child covers."""
    out = []
    pos = start
    for child_start, child_end in children:
        if child_start > pos:
            out.append((pos, child_start))
        pos = max(pos, child_end)
    if end > pos:
        out.append((pos, end))
    return out


def _overlap(a, b) -> int:
    """Total length shared by two sorted lists of disjoint intervals."""
    total = i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total
