"""The telemetry HTTP layer, exercised without opening a socket.

``render_endpoint`` is a pure function of the spool directory, so
every route — including stall reporting and 404s — is testable with a
tmp spool; one test drives the real server over a loopback socket to
cover the handler/threading glue, and one covers ``--once``.
"""

from __future__ import annotations

import json
import threading
import urllib.request

from repro.obs import MetricsRegistry
from repro.obs.export import parse_prometheus
from repro.obs.live import TelemetrySink, TraceContext
from repro.obs.serve import ENDPOINTS, main, render_endpoint, serve


def _seed_spool(spool):
    coordinator = TelemetrySink(spool, TraceContext("run"))
    coordinator.publish("run-start", units_total=2, workers=2)
    metrics = MetricsRegistry()
    metrics.inc("host.acts", 5000)
    done = TelemetrySink(spool, TraceContext("run", "t/a"))
    done.publish("unit-start")
    done.publish("unit-done", wall_s=2.0, commands=5000,
                 metrics=metrics.as_dict(), origin_ts=100.0,
                 spans=[{"name": "scout", "start_s": 0.0,
                         "end_s": 2.0}])
    live = TelemetrySink(spool, TraceContext("run", "t/b"))
    live.publish("unit-start")
    live.publish("heartbeat", commands=120, span="infer")


def test_metrics_endpoint_prometheus_with_progress_gauges(tmp_path):
    _seed_spool(tmp_path)
    status, content_type, body = render_endpoint(tmp_path, "/metrics")
    assert status == 200
    assert content_type.startswith("text/plain")
    parsed = parse_prometheus(body)
    assert parsed["counters"]["host.acts"] == 5000
    gauges = parsed["gauges"]
    assert gauges["telemetry.units_total"] == 2
    assert gauges["telemetry.units_done"] == 1
    assert gauges["telemetry.units_running"] == 1
    assert gauges["telemetry.commands"] == 5120
    assert gauges["telemetry.eta_s"] > 0


def test_progress_endpoint_reports_units_and_stalls(tmp_path):
    _seed_spool(tmp_path)
    status, content_type, body = render_endpoint(tmp_path, "/progress")
    summary = json.loads(body)
    assert (status, content_type) == (200, "application/json")
    assert summary["units_done"] == 1
    assert summary["units_running"]["t/b"]["span"] == "infer"
    assert "stalled" not in summary
    # With a deadline armed, the wedged unit t/b is named: its only
    # command advance happened at publish time, scanned much later.
    _, _, body = render_endpoint(tmp_path, "/progress",
                                 stall_deadline_s=1e-6)
    stalled = json.loads(body)["stalled"]
    assert [s["unit"] for s in stalled] == ["t/b"]
    assert stalled[0]["span"] == "infer"


def test_spans_endpoint_returns_merged_timeline(tmp_path):
    _seed_spool(tmp_path)
    status, _, body = render_endpoint(tmp_path, "/spans")
    timeline = json.loads(body)
    assert status == 200
    assert [(s["unit"], s["name"]) for s in timeline] == \
        [("t/a", "scout")]


def test_events_endpoint_streams_raw_jsonl(tmp_path):
    _seed_spool(tmp_path)
    status, content_type, body = render_endpoint(tmp_path, "/events")
    assert (status, content_type) == (200, "application/jsonl")
    kinds = [json.loads(line)["kind"] for line in body.splitlines()]
    assert kinds.count("unit-start") == 2
    assert "run-start" in kinds and "unit-done" in kinds


def test_root_lists_endpoints_and_unknown_404s(tmp_path):
    status, _, body = render_endpoint(tmp_path, "/")
    assert status == 200
    for endpoint in ENDPOINTS:
        assert endpoint in body
    status, _, body = render_endpoint(tmp_path, "/nope")
    assert status == 404
    assert "/nope" in body


def test_endpoints_serve_an_empty_spool(tmp_path):
    for path in ENDPOINTS:
        status, _, _ = render_endpoint(tmp_path / "missing", path)
        assert status == 200


def test_http_server_round_trip(tmp_path):
    _seed_spool(tmp_path)
    server = serve(tmp_path, port=0)  # port 0: pick a free one
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        _, port = server.server_address[:2]
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/progress", timeout=10) as rsp:
            assert rsp.status == 200
            summary = json.loads(rsp.read().decode("utf-8"))
        assert summary["units_done"] == 1
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10) as rsp:
            text = rsp.read().decode("utf-8")
        assert 'repro_counter{name="host.acts"} 5000' in text
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_main_once_renders_every_endpoint(tmp_path, capsys):
    _seed_spool(tmp_path)
    assert main([str(tmp_path), "--once", "--stall-deadline", "60"]) == 0
    out = capsys.readouterr().out
    for endpoint in ENDPOINTS:
        assert f"== {endpoint}" in out
    assert 'repro_counter{name="host.acts"} 5000' in out


def test_evidence_endpoint_folds_unit_summaries(tmp_path):
    from repro.obs.evidence import EvidenceLedger, ev_refs

    coordinator = TelemetrySink(tmp_path, TraceContext("run"))
    coordinator.publish("run-start", units_total=2, workers=1)
    for unit, parameter in (("t/a", "period"), ("t/b", "capacity")):
        ledger = EvidenceLedger()
        ledger.decide(parameter, 16, evidence=[ev_refs([2, 4])])
        sink = TelemetrySink(tmp_path, TraceContext("run", unit))
        sink.publish("unit-start")
        sink.publish("unit-done", wall_s=1.0,
                     evidence=ledger.dump())
    status, content_type, body = render_endpoint(tmp_path, "/evidence")
    assert status == 200 and content_type == "application/json"
    folded = json.loads(body)
    assert folded["units"] == 2
    assert folded["decisions"] == 2
    assert folded["accepted"] == 2
    assert folded["empty_chains"] == 0
    assert set(folded["parameters"]) == {"period", "capacity"}
    assert "/evidence" in ENDPOINTS


def test_evidence_endpoint_empty_spool(tmp_path):
    status, _, body = render_endpoint(tmp_path, "/evidence")
    assert status == 200
    folded = json.loads(body)
    assert folded["units"] == 0 and folded["decisions"] == 0
