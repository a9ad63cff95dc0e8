"""In-memory spans around the benchmark's calls into phasetv.

A span has a name, a start, an end, a parent span and the id of the
restoration it belongs to.  Spans are kept in memory and written out
once, when the run ends.  Times are ``time.perf_counter`` seconds, which
on Linux is CLOCK_MONOTONIC and therefore comparable across the
benchmark's processes.  With tracing off the benchmark uses
:data:`NO_TRACE`, whose spans record nothing.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    """Collects spans; ``prefix`` keeps ids unique across processes."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._count = 0
        self.trace_id: str | None = None

    def _next_id(self) -> str:
        self._count += 1
        return f"{self.prefix}{self._count}"

    def new_trace(self) -> str:
        """Start a new restoration; later root spans belong to it."""
        self.trace_id = self._next_id()
        return self.trace_id

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block; yields the attribute dict for counts."""
        record = {
            "id": self._next_id(),
            "trace": self.trace_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "attrs": attrs,
        }
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)


class _NoTrace:
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield attrs


NO_TRACE = _NoTrace()


def duration(spans, name: str) -> float:
    """Duration of the single span called ``name``."""
    found = [s for s in spans if s["name"] == name]
    if len(found) != 1:
        raise KeyError(f"expected one span {name!r}, found {len(found)}")
    return found[0]["end"] - found[0]["start"]


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus time in child spans.

    Children of one span run one after another in one thread, so their
    durations add up without overlap.
    """
    child_time: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
    return dict(totals)


def check_spans(spans) -> list[str]:
    """Problems with span structure: unknown parents, parents in another
    restoration, or children outside their parent's interval."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    for s in spans:
        if not s["start"] <= s["end"]:
            problems.append(f"span {s['id']} ends before it starts")
        if s["trace"] is None:
            problems.append(f"span {s['id']} belongs to no restoration")
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['id']} has unknown parent {s['parent']}")
        elif parent["trace"] != s["trace"]:
            problems.append(f"span {s['id']} and its parent belong to different restorations")
        elif not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            problems.append(f"span {s['id']} lies outside its parent {parent['id']}")
    return problems
