"""Unit tests for the observability building blocks."""

from __future__ import annotations

import io

from repro.obs import (Histogram, MetricsRegistry, NullMetrics, NullSpans,
                       SpanTracker, StructuredLog, bucket_bound,
                       build_manifest, git_describe)


# -- histogram bucketing -----------------------------------------------------

def test_bucket_bound_powers_of_two():
    assert [bucket_bound(v) for v in (0, 1, 2, 3, 9, 1024)] == \
        [0, 1, 2, 4, 16, 1024]
    assert bucket_bound(-5) == 0


def test_histogram_observe_and_export():
    histogram = Histogram()
    for value in (1, 2, 3, 9):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.min == 1 and histogram.max == 9
    assert histogram.mean == 3.75
    exported = histogram.as_dict()
    assert exported["buckets"] == {"1": 1, "2": 1, "4": 1, "16": 1}
    assert exported["mean"] == 3.75


def test_empty_histogram_mean_is_zero():
    assert Histogram().mean == 0.0


# -- registry ----------------------------------------------------------------

def test_registry_counters_gauges_histograms():
    # A registry exports counters and histograms; it has no gauges.
    metrics = MetricsRegistry()
    metrics.inc("scout.rows")
    metrics.inc("scout.rows", 4)
    metrics.observe("acts_per_ref", 12)
    metrics.observe("acts_per_ref", 20)

    assert metrics.counter("scout.rows") == 5
    assert metrics.counter("missing") == 0

    exported = metrics.as_dict()
    assert set(exported) == {"counters", "histograms"}
    assert exported["counters"] == {"scout.rows": 5}
    assert exported["histograms"]["acts_per_ref"]["count"] == 2


def test_histogram_merge_exact():
    left, right = Histogram(), Histogram()
    for value in (1, 2, 9):
        left.observe(value)
    for value in (3, 16):
        right.observe(value)
    left.merge(right.as_dict())
    assert left.count == 5
    assert left.min == 1 and left.max == 16
    assert left.mean == 6.2
    # The dump's string bucket keys fold back into integer bounds.
    assert left.buckets == {1: 1, 2: 1, 4: 1, 16: 2}
    # Merging an empty histogram is a no-op.
    before = left.as_dict()
    left.merge(Histogram().as_dict())
    assert left.as_dict() == before


def test_registry_merge_folds_all_families():
    parent, child = MetricsRegistry(), MetricsRegistry()
    parent.inc("host.acts", 10)
    child.inc("host.acts", 5)
    child.inc("host.refs", 2)
    child.observe("acts_per_ref", 8)
    parent.merge(child.as_dict())
    assert parent.counter("host.acts") == 15
    assert parent.counter("host.refs") == 2
    folded = parent.as_dict()
    assert folded["histograms"]["acts_per_ref"]["count"] == 1
    assert folded["histograms"]["acts_per_ref"] == \
        child.as_dict()["histograms"]["acts_per_ref"]
    # Disabled registries fold as nothing.
    parent.merge(NullMetrics().as_dict())
    assert parent.as_dict() == folded


def test_null_metrics_is_inert():
    metrics = NullMetrics()
    metrics.inc("x")
    metrics.observe("y", 3)
    assert metrics.enabled is False
    assert metrics.counter("x") == 0
    assert metrics.as_dict() == {"counters": {}, "histograms": {}}


# -- spans -------------------------------------------------------------------

def test_span_nesting_with_injected_clock():
    ticks = iter(range(100))
    tracker = SpanTracker(clock=lambda: next(ticks))
    with tracker.span("outer", bank=0):
        with tracker.span("inner"):
            pass
    timeline = tracker.as_timeline()
    assert [entry["name"] for entry in timeline] == ["outer", "inner"]
    outer, inner = timeline
    assert outer["depth"] == 0 and outer["parent"] is None
    assert inner["depth"] == 1 and inner["parent"] == 0
    assert outer["attrs"] == {"bank": 0}
    # Origin is tick 0; outer spans ticks 1-4, inner spans ticks 2-3.
    assert outer["duration_s"] == 3
    assert inner["duration_s"] == 1


def test_span_closed_even_on_exception():
    tracker = SpanTracker(clock=lambda: 0.0)
    try:
        with tracker.span("boom"):
            raise ValueError()
    except ValueError:
        pass
    assert tracker.as_timeline()[0]["duration_s"] == 0.0


def test_null_spans():
    spans = NullSpans()
    with spans.span("anything", k=1):
        pass
    assert spans.enabled is False
    assert spans.as_timeline() == []


# -- structured logging ------------------------------------------------------

def test_structured_log_formatting():
    stream = io.StringIO()
    log = StructuredLog(stream=stream)
    log.info("run-start", scale="quick", seconds=1.25, note="two words")
    log.warning("retry", count=3)
    lines = stream.getvalue().splitlines()
    assert lines[0] == ('event=run-start level=info scale=quick '
                       'seconds=1.25 note="two words"')
    assert lines[1] == "event=retry level=warning count=3"


def test_structured_log_elapsed_stamp_is_monotonic():
    stream = io.StringIO()
    ticks = iter([10.0, 10.025, 11.5])  # construction, then two emits
    log = StructuredLog(stream=stream, elapsed=True,
                        clock=lambda: next(ticks))
    log.info("run-start", scale="quick")
    log.info("run-done", seconds=1.475)
    lines = stream.getvalue().splitlines()
    assert lines[0] == ("event=run-start level=info elapsed_ms=25 "
                        "scale=quick")
    assert lines[1] == ("event=run-done level=info elapsed_ms=1500 "
                        "seconds=1.475")


def test_structured_log_elapsed_off_by_default():
    stream = io.StringIO()
    StructuredLog(stream=stream).info("run-start")
    assert "elapsed_ms" not in stream.getvalue()


def test_structured_log_quiet_is_silent():
    stream = io.StringIO()
    log = StructuredLog(stream=stream, enabled=False)
    log.info("x")
    log.error("y", detail="z")
    assert stream.getvalue() == ""


# -- manifest ----------------------------------------------------------------

def test_manifest_deterministic_without_time():
    first = build_manifest(seed=3, module="B0", fault_profile="default",
                           scale="smoke", include_time=False, extra_key=7)
    second = build_manifest(seed=3, module="B0", fault_profile="default",
                            scale="smoke", include_time=False, extra_key=7)
    assert first == second
    assert "created_utc" not in first
    assert first["seed"] == 3 and first["module"] == "B0"
    assert first["fault_profile"] == "default"
    assert first["scale"] == "smoke"
    assert first["extra_key"] == 7
    assert isinstance(first["git"], str) and first["git"]


def test_manifest_with_time():
    manifest = build_manifest()
    assert "created_utc" in manifest
    assert "seed" not in manifest


def test_git_describe_returns_string_anywhere(tmp_path):
    assert isinstance(git_describe(), str)
    assert git_describe(cwd=tmp_path) == "unknown"
