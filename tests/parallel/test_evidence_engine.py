"""Evidence fold through the engine: worker counts, cache replays.

Worker functions live at module top level (the pool pickles them by
reference); each records decision nodes through the ambient per-unit
ledger exactly as the core inference stages do.
"""

from __future__ import annotations

from repro.cache import ResultCache
from repro.obs import MetricsRegistry, Observability
from repro.obs.evidence import EvidenceLedger, ev_refs, write_jsonl
from repro.parallel import WorkUnit, run_units, unit_observability


def deciding_square(value: int) -> int:
    """Squares *value*, recording one decision per call."""
    obs = unit_observability()
    obs.evidence.decide(
        f"square_{value}", value * value, stage="test.square",
        confidence=1.0, evidence=[ev_refs([value, value + 1])],
        detail={"input": value})
    # A second node exercises per-unit seq ordering inside one unit.
    if value % 2:
        obs.evidence.decide(f"odd_{value}", True, outcome="degraded",
                            stage="test.parity",
                            evidence=[ev_refs([value])])
    return value * value


def silent_square(value: int) -> int:
    return value * value


def _units(values, fn=deciding_square):
    return [WorkUnit(unit_id=f"ev/{value}", fn=fn, args=(value,))
            for value in values]


def _run_ledger(values, workers, cache=None):
    ledger = EvidenceLedger()
    run = run_units(_units(values), workers=workers,
                    obs=Observability(evidence=ledger), cache=cache)
    assert run.values == [v * v for v in values]
    return ledger


def test_inline_fold_tags_units_in_submission_order():
    ledger = _run_ledger([3, 1, 2], workers=1)
    assert [node["unit"] for node in ledger.nodes] == \
        ["ev/3", "ev/3", "ev/1", "ev/1", "ev/2"]
    assert [node["seq"] for node in ledger.nodes] == list(range(5))
    assert ledger.nodes[0]["parameter"] == "square_3"


def test_workers_fold_is_byte_identical_to_sequential(tmp_path):
    values = list(range(6))
    sequential = _run_ledger(values, workers=1)
    pooled = _run_ledger(values, workers=3)
    seq_path = tmp_path / "seq.jsonl"
    pool_path = tmp_path / "pool.jsonl"
    write_jsonl(seq_path, sequential)
    write_jsonl(pool_path, pooled)
    assert seq_path.read_bytes() == pool_path.read_bytes()


def test_units_without_nodes_contribute_nothing():
    ledger = EvidenceLedger()
    run = run_units(_units([1, 2], fn=silent_square), workers=1,
                    obs=Observability(evidence=ledger))
    assert run.values == [1, 4]
    assert ledger.nodes == []


def test_disabled_ledger_is_not_threaded():
    ledger = EvidenceLedger()
    ledger.enabled = False
    run = run_units(_units([2]), workers=1,
                    obs=Observability(evidence=ledger))
    assert run.values == [4]
    assert ledger.nodes == []


def test_no_ledger_runs_clean():
    run = run_units(_units([2, 3]), workers=2)
    assert run.values == [4, 9]


def test_cache_replay_reproduces_ledger(tmp_path):
    store = tmp_path / "store"
    cold = _run_ledger([4, 5], workers=1,
                       cache=ResultCache(store))
    warm_cache = ResultCache(store)
    warm = _run_ledger([4, 5], workers=1, cache=warm_cache)
    assert warm_cache.summary()["hits"] == 2
    cold_path = tmp_path / "cold.jsonl"
    warm_path = tmp_path / "warm.jsonl"
    write_jsonl(cold_path, cold)
    write_jsonl(warm_path, warm)
    assert cold_path.read_bytes() == warm_path.read_bytes()


def test_cache_replay_pool_matches_sequential(tmp_path):
    store = tmp_path / "store"
    cold = _run_ledger([1, 2, 3], workers=2, cache=ResultCache(store))
    warm = _run_ledger([1, 2, 3], workers=2, cache=ResultCache(store))
    assert [n["parameter"] for n in warm.nodes] == \
        [n["parameter"] for n in cold.nodes]
    assert [n["unit"] for n in warm.nodes] == \
        [n["unit"] for n in cold.nodes]


def test_unit_done_events_carry_evidence_summary(tmp_path):
    from repro.obs import TelemetryConfig, read_spool
    from repro.obs.live import aggregate_evidence
    spool = tmp_path / "spool"
    ledger = EvidenceLedger()
    run = run_units(_units([3]), workers=1,
                    obs=Observability(evidence=ledger),
                    telemetry=TelemetryConfig(spool=spool,
                                              run_id="ev-test"))
    events = read_spool(spool)
    done = [event for event in events if event.get("kind") == "unit-done"]
    # The event carries the unit's nodes as dumped, unstamped.
    assert done[0]["evidence"] == run.outcomes[0].instruments["evidence"]
    summary = aggregate_evidence(events)
    assert summary["decisions"] == 2 and summary["units"] == 1
    assert "square_3" in summary["parameters"]


def test_evidence_rides_alongside_metrics():
    metrics = MetricsRegistry()
    ledger = EvidenceLedger()
    run_units(_units([2]), workers=1,
              obs=Observability(metrics=metrics, evidence=ledger))
    ledger.emit_metrics(metrics)
    counters = metrics.as_dict()["counters"]
    assert counters["evidence.decisions"] == 1
    assert counters["evidence.accepted"] == 1
