"""Run-history store and the cross-run regression sentinel."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry, SpanTracker
from repro.obs.history import (HISTORY_SCHEMA, RunHistory, flatten_metrics,
                               gate, main, span_wallclocks)


def _registry():
    metrics = MetricsRegistry()
    metrics.inc("host.acts", 24)
    metrics.inc("host.refs", 5)
    metrics.inc("scout.groups", 3)
    metrics.observe("rowscout.retention_ms", 64)
    metrics.observe("rowscout.retention_ms", 200)
    return metrics


def test_flatten_metrics_shapes():
    flat = flatten_metrics(_registry())
    assert flat["host.acts"] == 24
    assert flat["scout.groups"] == 3
    assert flat["rowscout.retention_ms.count"] == 2
    assert flat["rowscout.retention_ms.mean"] == pytest.approx(132.0)
    assert flat["rowscout.retention_ms.max"] == 200
    # The as_dict form flattens identically.
    assert flatten_metrics(_registry().as_dict()) == flat


def test_span_wallclocks_sums_same_named_spans():
    spans = SpanTracker()
    with spans.span("stage"):
        pass
    with spans.span("stage"):
        pass
    with spans.span("other"):
        pass
    clocks = span_wallclocks(spans)
    assert set(clocks) == {"stage", "other"}
    assert clocks["stage"] >= 0.0
    # Summed: one "stage" entry covering both enters.
    timeline = spans.as_timeline()
    total = sum(entry["duration_s"] for entry in timeline
                if entry["name"] == "stage")
    assert clocks["stage"] == pytest.approx(total, abs=1e-6)


def test_record_and_rows_round_trip(tmp_path):
    store = RunHistory(tmp_path / "hist" / "runs.jsonl")
    row = store.record("eval.fig9", manifest={"module": "B0"},
                       metrics=_registry(), spans=SpanTracker(),
                       wall_s=1.25, extra={"workers": 2})
    store.record("eval.table1", wall_s=0.5)
    assert row["schema"] == HISTORY_SCHEMA
    assert row["metrics"]["host.acts"] == 24
    assert row["extra"] == {"workers": 2}

    rows = store.rows()
    assert [r["kind"] for r in rows] == ["eval.fig9", "eval.table1"]
    assert store.rows(kind="eval.fig9")[0]["wall_s"] == 1.25


def test_record_profile_and_gate_per_opcode_regressions(tmp_path):
    from repro.obs import CommandProfiler

    profiler = CommandProfiler()
    profiler.add("ACT", 1.5)
    profiler.add("RD", 0.25)
    store = RunHistory(tmp_path / "runs.jsonl")
    row = store.record("bench.profile", profile=profiler, wall_s=2.0)
    assert row["profile"] == {"ACT": 1.5, "RD": 0.25}
    # A plain {name: seconds} dict records the same way; empty
    # profiles are omitted entirely.
    assert store.record("x", profile={"ACT": 1.0})["profile"] == \
        {"ACT": 1.0}
    assert "profile" not in store.record("y", profile=CommandProfiler())

    def _prow(act):
        return {"schema": 1, "kind": "bench.profile",
                "profile": {"ACT": act}, "wall_s": 1.0}

    # Opcode wall time gates slower-only, like spans.
    flags = gate([_prow(1.0), _prow(1.0), _prow(2.0)])
    assert [flag.metric for flag in flags] == ["profile:ACT"]
    assert gate([_prow(1.0), _prow(1.0), _prow(0.2)]) == []


def test_rows_raise_on_corrupt_line(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text('{"schema":1,"kind":"x"}\nnot json\n',
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="corrupt history row"):
        RunHistory(path).rows()


def _row(kind="eval.fig9", acts=100.0, stage=1.0, wall=2.0):
    return {"schema": 1, "kind": kind,
            "metrics": {"host.acts": acts},
            "spans": {"stage": stage}, "wall_s": wall}


def test_gate_vacuous_without_baseline():
    assert gate([]) == []
    assert gate([_row()]) == []


def test_gate_flags_counter_drift_both_directions():
    # +50% beyond the 25% tolerance: flagged.
    flags = gate([_row(acts=100), _row(acts=100), _row(acts=150)])
    assert [flag.metric for flag in flags] == ["host.acts"]
    assert flags[0].baseline == pytest.approx(100.0)
    assert flags[0].value == 150
    assert flags[0].delta == pytest.approx(50.0)
    assert "host.acts" in flags[0].describe()
    # Fewer events is just as suspect (a stage silently skipped).
    drops = gate([_row(acts=100), _row(acts=100), _row(acts=60)])
    assert [flag.metric for flag in drops] == ["host.acts"]
    # Within tolerance: clean.
    assert gate([_row(acts=100), _row(acts=100), _row(acts=110)]) == []


def test_gate_zero_baseline_flags_any_nonzero():
    flags = gate([_row(acts=0), _row(acts=0), _row(acts=1)])
    assert [flag.metric for flag in flags] == ["host.acts"]


def test_gate_spans_flag_slower_only():
    # 2x slower than baseline (tolerance 0.5): flagged, span: prefix.
    flags = gate([_row(stage=1.0, wall=1.0), _row(stage=1.0, wall=1.0),
                  _row(stage=2.0, wall=1.0)])
    assert [flag.metric for flag in flags] == ["span:stage"]
    # Faster is never a regression.
    assert gate([_row(stage=1.0, wall=1.0), _row(stage=1.0, wall=1.0),
                 _row(stage=0.1, wall=1.0)]) == []
    # Wall clock gates the same way.
    walls = gate([_row(wall=1.0), _row(wall=1.0), _row(wall=3.0)])
    assert "wall_s" in [flag.metric for flag in walls]


def test_gate_rolling_baseline_window():
    # An ancient outlier outside the window must not skew the baseline.
    rows = [_row(acts=1000)] + [_row(acts=100)] * 5 + [_row(acts=110)]
    assert gate(rows, baseline=5) == []


def test_cli_trend_gate_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "runs.jsonl"
    assert main([str(path)]) == 2  # missing/empty store
    assert "empty" in capsys.readouterr().err

    store = RunHistory(path)
    for acts in (100, 100, 100):
        store.record("eval.fig9", metrics={"counters": {"host.acts": acts}},
                     wall_s=1.0)
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "eval.fig9 (3 runs)" in out

    assert main([str(path), "--metric", "host.acts"]) == 0
    assert "host.acts = 100" in capsys.readouterr().out

    assert main([str(path), "--gate"]) == 0
    assert "gate: clean" in capsys.readouterr().out

    store.record("eval.fig9", metrics={"counters": {"host.acts": 200}},
                 wall_s=1.0)
    assert main([str(path), "--gate"]) == 1
    assert "REGRESSION" in capsys.readouterr().out

    # A generous tolerance lets the same store pass.
    assert main([str(path), "--gate", "--tolerance", "2.0"]) == 0
    capsys.readouterr()

    assert main([str(path), "--gate", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["metric"] == "host.acts"

    path.write_text("garbage\n", encoding="utf-8")
    assert main([str(path)]) == 2
    assert "history error" in capsys.readouterr().err


def _effort_row(cost):
    return {"kind": "eval.table1",
            "metrics": {"inference.commands_to_discovery.period": cost}}


def test_gate_effort_metrics_flag_increases_only():
    # +100% commands-to-discovery: a cost regression, flagged.
    flags = gate([_effort_row(1000), _effort_row(1000),
                  _effort_row(2000)])
    assert [flag.metric for flag in flags] == \
        ["inference.commands_to_discovery.period"]
    # A cheaper schedule is an improvement, never flagged.
    assert gate([_effort_row(1000), _effort_row(1000),
                 _effort_row(100)]) == []
    # Within tolerance: clean.
    assert gate([_effort_row(1000), _effort_row(1000),
                 _effort_row(1200)]) == []


def test_gate_effort_metrics_do_not_relax_other_counters():
    rows = [{"kind": "k", "metrics": {"host.acts": 100}},
            {"kind": "k", "metrics": {"host.acts": 100}},
            {"kind": "k", "metrics": {"host.acts": 40}}]
    assert [flag.metric for flag in gate(rows)] == ["host.acts"]
