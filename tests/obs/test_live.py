"""Live telemetry spool: transport and watchdog.

These tests exercise the coordinator-facing half of the live layer
without a process pool: sinks write JSONL events into a spool directory
and the pure reader (:class:`Watchdog`) judges them.  The
engine-integration half lives in ``tests/parallel/test_telemetry.py``.
"""

from __future__ import annotations

import json

from repro.obs import MetricsRegistry, SpanTracker
from repro.obs.live import (Heartbeat, TelemetryConfig, TelemetrySink,
                            TraceContext, Watchdog, read_spool,
                            spool_filename)


def test_spool_filename_is_safe_and_collision_tagged():
    assert spool_filename(None) == "_coordinator.jsonl"
    name = spool_filename("fig8/B8:x2")
    assert "/" not in name and ":" not in name
    assert name.startswith("fig8__B8__x2-")
    # Same sanitized stem, different unit → different crc tag.
    assert spool_filename("fig8/B8.x2") != name


def test_sink_stamps_context_and_sequences(tmp_path):
    sink = TelemetrySink(tmp_path, TraceContext("run7", "fig8/B8"))
    first = sink.publish("unit-start", pid=1234)
    second = sink.publish("heartbeat", commands=10)
    assert (first["run"], first["unit"]) == ("run7", "fig8/B8")
    assert first["pid"] == 1234
    assert (first["seq"], second["seq"]) == (0, 1)
    events = read_spool(tmp_path)
    assert [e["kind"] for e in events] == ["unit-start", "heartbeat"]


def test_heartbeat_rate_limit_and_snapshot_fields(tmp_path):
    metrics = MetricsRegistry()
    metrics.inc("host.acts", 640)
    metrics.inc("host.refs", 8)
    spans = SpanTracker()
    sink = TelemetrySink(tmp_path, TraceContext("run", "u"))
    with spans.span("scout"):
        # The heartbeat thread paces the sink: it publishes nothing
        # before its first interval has passed.
        Heartbeat(sink, metrics, spans, interval_s=60.0).start().stop()
        assert sink.heartbeat(metrics, spans)["kind"] == "heartbeat"
    events = read_spool(tmp_path)
    assert len(events) == 1
    beat = events[0]
    assert beat["commands"] == 648
    assert beat["span"] == "scout"
    # Heartbeats carry the command total, not the counter dict.
    assert "counters" not in beat


def test_telemetry_config_builds_sinks(tmp_path):
    config = TelemetryConfig(spool=str(tmp_path), run_id="eval.fig8",
                             interval_s=2.0)
    sink = config.sink("fig8/B8")
    assert sink.context == TraceContext("eval.fig8", "fig8/B8")
    coordinator = config.sink()
    assert coordinator.path.name == "_coordinator.jsonl"


def test_read_spool_skips_corrupt_tail_and_foreign_files(tmp_path):
    sink = TelemetrySink(tmp_path, TraceContext("run", "a"))
    sink.publish("unit-start")
    sink.publish("unit-done", wall_s=1.0)
    # A worker died mid-write: truncated JSON on the tail.
    with open(sink.path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "heartbe')
    (tmp_path / "notes.txt").write_text("not telemetry")
    (tmp_path / "list.jsonl").write_text('["not", "a", "dict"]\n')
    events = read_spool(tmp_path)
    assert [e["kind"] for e in events] == ["unit-start", "unit-done"]
    assert read_spool(tmp_path / "missing") == []


class TestWatchdog:
    def _unit(self, unit, events):
        sink = TelemetrySink(events, TraceContext("run", unit))
        return sink

    def test_flags_unit_whose_commands_stopped(self, tmp_path):
        sink = self._unit("t/stuck", tmp_path)
        started = sink.publish("unit-start")["ts"]
        sink.publish("heartbeat", commands=50, span="neighbor-scan")
        sink.publish("heartbeat", commands=50)
        sink.publish("heartbeat", commands=50)
        events = read_spool(tmp_path)
        # The last command *advance* was at unit-start time; scanning
        # far past the deadline must flag the unit even though later
        # heartbeats kept arriving (alive-but-wedged).
        now = started + 100.0
        stalls = Watchdog(deadline_s=30.0).scan(events, now=now)
        assert [s.unit_id for s in stalls] == ["t/stuck"]
        stall = stalls[0]
        assert stall.span == "neighbor-scan"
        assert stall.age_s > 30.0
        assert "t/stuck" in stall.describe()
        assert "neighbor-scan" in stall.describe()

    def test_advancing_commands_reset_the_clock(self, tmp_path):
        sink = self._unit("t/busy", tmp_path)
        sink.publish("unit-start")
        sink.publish("heartbeat", commands=10)
        events = read_spool(tmp_path)
        # Fresh progress: the newest advancing event is recent.
        recent = events[-1]["ts"] + 1.0
        assert Watchdog(deadline_s=30.0).scan(events, now=recent) == []

    def test_done_units_are_never_stalled(self, tmp_path):
        sink = self._unit("t/done", tmp_path)
        started = sink.publish("unit-start")["ts"]
        sink.publish("unit-done", wall_s=1.0, commands=100)
        events = read_spool(tmp_path)
        watchdog = Watchdog(deadline_s=1.0)
        assert watchdog.scan(events, now=started + 1000.0) == []


def test_events_are_one_json_object_per_line(tmp_path):
    sink = TelemetrySink(tmp_path, TraceContext("run", "t/a"))
    sink.publish("unit-start")
    sink.publish("heartbeat", commands=1)
    lines = sink.path.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert isinstance(json.loads(line), dict)
