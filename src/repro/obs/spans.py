"""Span-based stage profiling for the U-TRR pipeline.

A *span* brackets one pipeline stage in wall-clock time; spans nest
(scan -> calibrate -> analyze -> infer), and the tracker exports the
whole run as a flat timeline — each entry carrying its name, depth,
parent, and start/end relative to the tracker's creation — suitable for
JSON export.

Wall time is deliberately kept *out* of the command trace (which must be
deterministic); spans are the one place wall-clock profiling lives.

:class:`NullSpans` is the disabled path: ``span()`` returns a shared
no-op context manager so instrumented code needs no branches.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class SpanTracker:
    """Records nested stage spans as a timeline."""

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._origin = clock()
        #: Flat list of span dicts, in start order.
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Bracket one stage; nests under any currently-open span."""
        index = len(self.spans)
        record: dict = {
            "name": name,
            "depth": len(self._stack),
            "parent": self._stack[-1] if self._stack else None,
            "start_s": round(self._clock() - self._origin, 6),
            "end_s": None,
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end_s"] = round(self._clock() - self._origin, 6)
            self._stack.pop()

    def current_name(self) -> str | None:
        """Name of the innermost open span (None outside any span).

        The live-telemetry heartbeat reads this to attribute "now" to
        a pipeline stage.
        """
        if not self._stack:
            return None
        return self.spans[self._stack[-1]]["name"]

    def as_timeline(self) -> list[dict]:
        """The spans with computed durations (open spans report None)."""
        timeline = []
        for record in self.spans:
            entry = dict(record)
            if entry["end_s"] is not None:
                entry["duration_s"] = round(
                    entry["end_s"] - entry["start_s"], 6)
            else:
                entry["duration_s"] = None
            timeline.append(entry)
        return timeline


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        pass


_NULL_CONTEXT = _NullContext()


class NullSpans:
    """The disabled tracker: spans cost one no-op context manager."""

    enabled = False
    spans: list[dict] = []

    def span(self, name: str, **attrs):
        return _NULL_CONTEXT

    def current_name(self) -> str | None:
        return None

    def as_timeline(self) -> list[dict]:
        return []
