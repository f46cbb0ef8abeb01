"""Evidence fold through the engine: worker counts, cache replays.

Worker functions live at module top level (the pool pickles them by
reference); each records decision nodes through the ambient per-unit
ledger exactly as the core inference stages do.
"""

from __future__ import annotations

import pytest

from repro.cache import ResultCache
from repro.dram import AllOnes, DeviceConfig, DramChip, RetentionConfig
from repro.errors import CacheError
from repro.obs import CommandProfiler, MetricsRegistry, Observability
from repro.obs.evidence import EvidenceLedger, ev_refs, write_evidence
from repro.parallel import WorkUnit, run_units, unit_observability
from repro.softmc import SoftMCHost

#: A small chip for units that drive a host.
CHIP = DeviceConfig(name="evidence-engine", serial=2, num_banks=4,
                    rows_per_bank=2048, row_bits=1024,
                    refresh_cycle_refs=512,
                    retention=RetentionConfig(vrt_fraction=0.0))


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


def deciding_on_host(refs: int) -> int:
    """Issues commands on a host bound to the unit's bundle, then
    records one decision stamped from that host."""
    host = SoftMCHost(DramChip(CHIP), obs=unit_observability())
    host.write_row(0, 1, AllOnes())
    host.refresh(refs)
    host.obs.evidence.decide("refs", refs, stage="test.host",
                             evidence=[ev_refs([refs])], host=host)
    return refs * refs


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
    write_evidence(seq_path, sequential)
    write_evidence(pool_path, pooled)
    assert seq_path.read_bytes() == pool_path.read_bytes()


def test_units_without_nodes_contribute_nothing():
    ledger = EvidenceLedger()
    run = run_units(_units([1, 2], fn=silent_square), workers=1,
                    obs=Observability(evidence=ledger))
    assert run.values == [1, 4]
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
    write_evidence(cold_path, cold)
    write_evidence(warm_path, warm)
    assert cold_path.read_bytes() == warm_path.read_bytes()


def test_profiling_leaves_evidence_stamps_alone():
    """A stamp holds only the host's own ledger, so a profiled run
    folds the nodes an unprofiled one does."""
    units = _units([3], fn=deciding_on_host)
    plain = EvidenceLedger()
    run_units(units, workers=1, obs=Observability(evidence=plain))
    profiled = EvidenceLedger()
    run_units(units, workers=1,
              obs=Observability(evidence=profiled,
                                profiler=CommandProfiler()))
    assert plain.nodes
    assert profiled.nodes == plain.nodes


def test_store_written_without_a_caller_ledger_serves_its_nodes(
        tmp_path):
    """Every unit records its nodes whatever the caller's bundle, and
    the key names no instrument: a store written by a run without a
    ledger of its own serves a run with one, nodes included, without
    executing the unit."""
    store = tmp_path / "store"
    run_units(_units([2]), workers=1, cache=ResultCache(store))
    uncached = _run_ledger([2], workers=1)
    warm_cache = ResultCache(store)
    warm = _run_ledger([2], workers=1, cache=warm_cache)
    assert (warm_cache.hits, warm_cache.misses) == (1, 0)
    assert len(uncached.nodes) == 1
    assert warm.nodes == uncached.nodes


def test_cache_verify_rejects_tampered_evidence(tmp_path):
    store = tmp_path / "store"
    _run_ledger([3], workers=1, cache=ResultCache(store))
    tampered = ResultCache(store)
    (path,) = store.glob("objects/*/*.rpc")
    envelope = tampered.lookup(path.stem)
    nodes = [dict(node) for node in envelope.instruments["evidence"]]
    assert nodes[0]["value"] == 9
    nodes[0]["value"] = 999
    tampered.publish_unit(envelope.key, envelope.unit_id,
                          value=envelope.value,
                          instruments={**envelope.instruments,
                                       "evidence": nodes},
                          wall_s=envelope.wall_s)
    with pytest.raises(CacheError, match="evidence"):
        _run_ledger([3], workers=1, cache=ResultCache(store, verify=True))


def test_cache_replay_pool_matches_sequential(tmp_path):
    store = tmp_path / "store"
    cold = _run_ledger([1, 2, 3], workers=2, cache=ResultCache(store))
    warm = _run_ledger([1, 2, 3], workers=2, cache=ResultCache(store))
    assert [n["parameter"] for n in warm.nodes] == \
        [n["parameter"] for n in cold.nodes]
    assert [n["unit"] for n in warm.nodes] == \
        [n["unit"] for n in cold.nodes]


def test_evidence_rides_alongside_metrics():
    metrics = MetricsRegistry()
    ledger = EvidenceLedger()
    run_units(_units([2]), workers=1,
              obs=Observability(metrics=metrics, evidence=ledger))
    ledger.emit_metrics(metrics)
    counters = metrics.as_dict()["counters"]
    assert counters["evidence.decisions"] == 1
    assert counters["evidence.accepted"] == 1
