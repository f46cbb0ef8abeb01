"""SpanTracker: spans must close even when a stage raises."""

from __future__ import annotations

import pytest

from repro.obs import SpanTracker


class StageError(RuntimeError):
    pass


def test_span_closes_when_stage_raises():
    spans = SpanTracker()
    with pytest.raises(StageError):
        with spans.span("inference.run"):
            with spans.span("rowscout.find_groups"):
                raise StageError("mid-stage crash")
    timeline = spans.as_timeline()
    assert [entry["name"] for entry in timeline] == \
        ["inference.run", "rowscout.find_groups"]
    # Both spans closed via the finally path: no dangling end_s.
    assert all(entry["end_s"] is not None for entry in timeline)
    assert all(entry["duration_s"] is not None for entry in timeline)
    assert all(entry["duration_s"] >= 0.0 for entry in timeline)


def test_nesting_recovers_after_exception():
    # A failed stage must pop itself off the stack: the next span is a
    # sibling of the failed one, not its child.
    spans = SpanTracker()
    with spans.span("outer"):
        with pytest.raises(StageError):
            with spans.span("failed"):
                raise StageError()
        with spans.span("retry"):
            pass
    timeline = {entry["name"]: entry for entry in spans.as_timeline()}
    assert timeline["failed"]["depth"] == 1
    assert timeline["retry"]["depth"] == 1
    assert timeline["failed"]["parent"] == 0
    assert timeline["retry"]["parent"] == 0
    assert timeline["outer"]["depth"] == 0
    # Well-nested: children end no later than the parent.
    assert timeline["retry"]["end_s"] <= timeline["outer"]["end_s"]


def test_open_span_reports_none_duration():
    spans = SpanTracker()
    context = spans.span("never-closed")
    context.__enter__()
    entry = spans.as_timeline()[0]
    assert entry["end_s"] is None
    assert entry["duration_s"] is None
