"""Evidence ledger: decision nodes, merge folds, sidecar IO, CLI."""

from __future__ import annotations

import json

import pytest

from repro.obs import NULL_EVIDENCE, MetricsRegistry, NullEvidence
from repro.obs.evidence import (EVIDENCE_SCHEMA, EvidenceLedger,
                                check_trace, command_stamp, ev_error,
                                ev_probe, ev_refs, ev_rows, ev_value,
                                ev_window, main, nodes_summary,
                                read_evidence, render_report,
                                write_evidence)


class FakeHost:
    """Duck-typed command ledger (what command_stamp reads)."""

    def __init__(self, acts=0, refs=0):
        self.acts_per_bank = {0: acts}
        self.ref_count = refs


def test_command_stamp_reads_host_ledger():
    stamp = command_stamp(FakeHost(acts=120, refs=30))
    assert stamp == {"acts": 120, "refs": 30, "total": 150}
    assert command_stamp(None) == {"acts": 0, "refs": 0, "total": 0}


def test_decide_records_waterfall_deltas():
    ledger = EvidenceLedger(module="A5")
    first = ledger.decide("period", 16, stage="s1",
                          evidence=[ev_refs([3, 7])],
                          host=FakeHost(acts=90, refs=10))
    second = ledger.decide("capacity", 16, stage="s2",
                           evidence=[ev_rows([5, 6])],
                           host=FakeHost(acts=150, refs=50))
    assert first["commands_to_discovery"] == 100
    assert second["commands_to_discovery"] == 100
    assert first["module"] == "A5"
    assert [node["seq"] for node in ledger.nodes] == [0, 1]
    # A stamp that goes backwards (fresh host) never yields a negative.
    third = ledger.decide("kind", "counter", host=FakeHost(acts=10))
    assert third["commands_to_discovery"] == 0


def test_decide_rejects_unknown_outcome():
    with pytest.raises(ValueError):
        EvidenceLedger().decide("x", outcome="maybe")


def test_evidence_constructors_are_bounded():
    refs = ev_refs(range(200))
    assert refs["count"] == 200 and len(refs["refs"]) == 64
    assert refs["truncated"] is True
    assert ev_window(3, 11)["lo"] == 3
    probe = ev_probe(10, [9, 11], range(100))
    assert len(probe["testable"]) == 64
    assert ev_value("digest", {"a": 1})["value"] == {"a": 1}
    assert ev_error(ValueError("boom"))["error"] == "ValueError"


def test_merge_stamps_unit_and_reassigns_seq():
    unit_a, unit_b = EvidenceLedger(), EvidenceLedger()
    unit_a.decide("period", 16, host=FakeHost(acts=5))
    unit_b.decide("capacity", 17, host=FakeHost(acts=7))
    folded = EvidenceLedger()
    folded.merge(unit_a.dump(), unit="eval/A5")
    folded.merge(unit_b.dump(), unit="eval/B0")
    assert [node["unit"] for node in folded.nodes] == ["eval/A5",
                                                       "eval/B0"]
    assert [node["seq"] for node in folded.nodes] == [0, 1]
    # Nodes already carrying a unit tag keep it (cache replays).
    refolded = EvidenceLedger()
    refolded.merge(folded.dump(), unit="other")
    assert [node["unit"] for node in refolded.nodes] == ["eval/A5",
                                                         "eval/B0"]


def test_merge_order_is_submission_order_not_arrival():
    per_unit = {}
    for name in ("u1", "u2", "u3"):
        ledger = EvidenceLedger()
        ledger.decide(name, host=FakeHost(acts=1))
        per_unit[name] = ledger.dump()
    arrival = EvidenceLedger()
    for name in ("u3", "u1", "u2"):  # scrambled completion order
        pass  # the engine folds in submission order regardless
    for name in ("u1", "u2", "u3"):
        arrival.merge(per_unit[name], unit=f"eval/{name}")
    assert [node["parameter"] for node in arrival.nodes] == \
        ["u1", "u2", "u3"]


def test_emit_metrics_counts_outcomes_and_costs():
    ledger = EvidenceLedger()
    ledger.decide("period", 16, evidence=[ev_refs([1])],
                  host=FakeHost(acts=100))
    ledger.decide("period", 16, outcome="rejected",
                  host=FakeHost(acts=150))
    ledger.decide("capacity", None, outcome="degraded",
                  evidence=[ev_value("note", 1)],
                  host=FakeHost(acts=150))
    metrics = MetricsRegistry()
    ledger.emit_metrics(metrics)
    counters = metrics.as_dict()["counters"]
    assert counters["evidence.decisions"] == 3
    assert counters["evidence.accepted"] == 1
    assert counters["evidence.rejected"] == 1
    assert counters["evidence.degraded"] == 1
    assert counters["evidence.empty_chains"] == 1
    assert counters["inference.commands_to_discovery.period"] == 150


def test_nodes_summary_per_parameter_breakdown():
    ledger = EvidenceLedger()
    ledger.decide("period", 16, evidence=[ev_refs([1]), ev_rows([2])],
                  host=FakeHost(acts=10))
    ledger.decide("period", 16, outcome="rejected",
                  host=FakeHost(acts=30))
    summary = nodes_summary(ledger.nodes)
    assert summary["decisions"] == 2
    assert summary["commands"] == 30
    assert summary["parameters"]["period"] == {
        "decisions": 2, "accepted": 1, "commands": 30, "evidence": 2}


def test_sidecar_round_trip_and_byte_determinism(tmp_path):
    ledger = EvidenceLedger(module="B0")
    ledger.decide("period", 16, evidence=[ev_refs([4, 8])],
                  host=FakeHost(acts=40, refs=8))
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_evidence(first, ledger, meta={"seed": 0})
    write_evidence(second, ledger.dump(), meta={"seed": 0})
    assert first.read_bytes() == second.read_bytes()
    header, nodes = read_evidence(first)
    assert header["schema"] == EVIDENCE_SCHEMA
    assert header["decisions"] == 1
    assert nodes == ledger.dump()


def test_render_report_marks_empty_chains():
    ledger = EvidenceLedger(module="C7")
    ledger.decide("period", 16, evidence=[ev_refs([4])],
                  host=FakeHost(acts=9))
    ledger.decide("capacity", None, outcome="rejected")
    report = render_report(ledger.nodes)
    assert "## C7" in report
    assert "(EMPTY)" in report
    assert "ref-indices" in report


def test_check_trace_resolves_ref_indices(tmp_path):
    from repro.obs import traced
    from .conftest import small_host

    obs = traced(tmp_path / "trace.jsonl")
    host = small_host(obs=obs)
    host.refresh(32)
    obs.finalize(host)
    good = EvidenceLedger()
    good.decide("period", 4, evidence=[ev_refs([3, 31])], host=host)
    ok, message = check_trace(good.nodes, tmp_path / "trace.jsonl")
    assert ok, message
    bad = EvidenceLedger()
    bad.decide("period", 4, evidence=[ev_refs([4096])], host=host)
    ok, message = check_trace(bad.nodes, tmp_path / "trace.jsonl")
    assert not ok and "4096" in message


def test_null_evidence_is_inert():
    assert NULL_EVIDENCE.decide("x", 1, outcome="rejected") is None
    NULL_EVIDENCE.merge([{"kind": "decision", "parameter": "x"}],
                        unit="u")  # no-op, no raise
    assert NULL_EVIDENCE.nodes == ()
    assert NullEvidence().nodes == ()


def test_cli_reports_and_gates_empty_chains(tmp_path, capsys):
    sidecar = tmp_path / "evidence.jsonl"
    ledger = EvidenceLedger(module="A5")
    ledger.decide("period", 16, evidence=[ev_refs([2])],
                  host=FakeHost(acts=5))
    write_evidence(sidecar, ledger)
    assert main([str(sidecar)]) == 0
    out = capsys.readouterr().out
    assert "Evidence report" in out and "## A5" in out

    ledger.decide("capacity", None, outcome="rejected")  # empty chain
    write_evidence(sidecar, ledger)
    assert main([str(sidecar), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["empty_chains"] == 1
    assert report["summary"]["decisions"] == 2


def test_cli_missing_sidecar_exits_2(tmp_path, capsys):
    assert main([str(tmp_path / "nope.jsonl")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_searches_directories(tmp_path, capsys):
    ledger = EvidenceLedger(module="B0")
    ledger.decide("period", 16, evidence=[ev_refs([1])],
                  host=FakeHost(acts=2))
    write_evidence(tmp_path / "evidence.jsonl", ledger)
    assert main([str(tmp_path), "--no-chains"]) == 0
    assert "## B0" in capsys.readouterr().out
