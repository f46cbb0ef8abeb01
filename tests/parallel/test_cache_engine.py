"""Cache-backed execution: resume, replay, byte-identity.

Worker functions live at module top level (the pool pickles them by
reference) and count their executions through marker files, so tests
can assert "this unit never ran again" — the cache's whole point.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.cache import ResultCache
from repro.errors import CacheError
from repro.obs import MetricsRegistry, Observability
from repro.obs.live import TelemetryConfig, read_spool
from repro.parallel import WorkUnit, run_units, unit_observability


def counted_square(value: int, counter_dir: str) -> int:
    """Squares *value*, leaving one execution tally per call."""
    obs = unit_observability()
    obs.metrics.inc("unit.calls")
    obs.metrics.observe("unit.value", value)
    with obs.spans.span("square"):
        path = os.path.join(counter_dir, f"count-{value}")
        with open(path, "a") as handle:
            handle.write("x")
        return value * value


def counted_listing(value: int, counter_dir: str) -> list[int]:
    """Lists *value* and its successor, tallying the call like
    :func:`counted_square`."""
    with open(os.path.join(counter_dir, f"count-{value}"), "a") as handle:
        handle.write("x")
    return [value, value + 1]


def raises_until_marked(value: int, marker: str) -> int:
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("raised once")
        raise RuntimeError("transient failure")
    return value * value


def crash_if_unmarked(value: int, marker: str, store: str,
                      published: int) -> int:
    """Kills its worker once, and only after *published* envelopes are
    in *store*: the units the crash must not cost have then completed,
    not merely started, whatever the scheduling."""
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("crashed once")
        deadline = time.monotonic() + 60
        while (len(list(Path(store).glob("objects/*/*.rpc"))) < published
               and time.monotonic() < deadline):
            time.sleep(0.01)
        os._exit(13)
    return value * value


def uncachable_passthrough(value: int, sink: object) -> int:
    return value


def _executions(counter_dir, value: int) -> int:
    path = os.path.join(str(counter_dir), f"count-{value}")
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _served(run) -> int:
    """Units the run served from the cache without executing."""
    return sum(outcome.cached for outcome in run.outcomes)


def _units(values, counter_dir, prefix="unit"):
    return [WorkUnit(unit_id=f"{prefix}/{value}", fn=counted_square,
                     args=(value, str(counter_dir)))
            for value in values]


@pytest.mark.parametrize("workers", [1, 2])
def test_warm_run_serves_every_unit_without_executing(tmp_path, workers):
    units = _units([2, 3, 5], tmp_path)
    cold_cache = ResultCache(tmp_path / "store")
    cold = run_units(units, workers, cache=cold_cache)
    assert cold.values == [4, 9, 25]
    assert cold_cache.summary()["misses"] == 3
    assert cold_cache.stores == 3

    warm_cache = ResultCache(tmp_path / "store")
    warm = run_units(units, workers, cache=warm_cache)
    assert warm.values == cold.values
    assert _served(warm) == 3 and warm.retries == 0
    assert all(o.cached and o.attempts == 0 for o in warm.outcomes)
    assert warm_cache.summary() == {"hits": 3, "misses": 0, "stores": 0,
                                    "errors": 0, "hit_ratio": 1.0}
    for value in (2, 3, 5):
        assert _executions(tmp_path, value) == 1  # never ran again


@pytest.mark.parametrize("workers", [1, 2])
def test_folded_metrics_identical_cold_warm_and_uncached(tmp_path,
                                                         workers):
    units = _units([2, 3], tmp_path)
    reference = MetricsRegistry()
    run_units(units, workers, obs=Observability(metrics=reference))

    cold_metrics = MetricsRegistry()
    cold = run_units(units, workers,
                     obs=Observability(metrics=cold_metrics),
                     cache=ResultCache(tmp_path / "store"))
    warm_metrics = MetricsRegistry()
    warm = run_units(units, workers,
                     obs=Observability(metrics=warm_metrics),
                     cache=ResultCache(tmp_path / "store"))
    assert cold_metrics.as_dict() == reference.as_dict()
    assert warm_metrics.as_dict() == reference.as_dict()
    # Hits replay the stored instrument dump at the unit's position.
    # It holds what folds: the units' spans ran untracked.
    assert [o.instruments for o in warm.outcomes] == \
        [o.instruments for o in cold.outcomes]
    assert all(set(o.instruments) == {"metrics"} for o in warm.outcomes)


def test_interrupted_sweep_resumes_from_published_units(tmp_path):
    """Units completed before a mid-sweep failure publish as they
    finish, so the re-run only executes what never completed."""
    marker = str(tmp_path / "raise-once.marker")
    units = (_units([2], tmp_path)
             + [WorkUnit(unit_id="flaky", fn=raises_until_marked,
                         args=(6, marker))]
             + _units([3], tmp_path))
    with pytest.raises(RuntimeError, match="transient"):
        run_units(units, workers=1, max_attempts=1,
                  cache=ResultCache(tmp_path / "store"))
    assert _executions(tmp_path, 2) == 1

    resumed_cache = ResultCache(tmp_path / "store")
    resumed = run_units(units, workers=1, max_attempts=1,
                        cache=resumed_cache)
    assert resumed.values == [4, 36, 9]
    assert _executions(tmp_path, 2) == 1  # resumed, not re-run
    assert resumed_cache.hits == 1
    assert resumed_cache.stores == 2  # flaky + the tail unit


def test_resume_survives_worker_crash(tmp_path):
    """A BrokenProcessPool mid-sweep must not cost completed units."""
    marker = str(tmp_path / "crash-once.marker")
    units = (_units([2, 3], tmp_path)
             + [WorkUnit(unit_id="crasher", fn=crash_if_unmarked,
                         args=(5, marker, str(tmp_path / "store"), 2))])
    first = run_units(units, workers=2, max_attempts=1, quarantine=True,
                      cache=ResultCache(tmp_path / "store"))
    assert [o.unit_id for o in first.quarantined] == ["crasher"]

    resumed = run_units(units, workers=2, max_attempts=1,
                        quarantine=True,
                        cache=ResultCache(tmp_path / "store"))
    assert resumed.values == [4, 9, 25]
    assert not resumed.quarantined
    assert _served(resumed) == 2
    for value in (2, 3):
        assert _executions(tmp_path, value) == 1


def test_fanned_out_values_do_not_alias(tmp_path):
    """Identical recipes under two unit ids are two units: each
    executes and publishes under its own key, both hit warm, and their
    values never alias."""
    units = [WorkUnit(unit_id=unit_id, fn=counted_listing,
                      args=(1, str(tmp_path)))
             for unit_id in ("a", "b")]
    cache = ResultCache(tmp_path / "store")
    run = run_units(units, workers=1, cache=cache)
    assert _executions(tmp_path, 1) == 2
    assert cache.stores == 2
    assert not any(o.coalesced for o in run.outcomes)
    first, second = run.outcomes
    first.value.append(99)
    assert second.value == [1, 2]
    warm = run_units(units, workers=1,
                     cache=ResultCache(tmp_path / "store"))
    assert _served(warm) == 2
    assert warm.values == [[1, 2], [1, 2]]
    assert _executions(tmp_path, 1) == 2  # neither ran again


def test_uncachable_units_always_execute(tmp_path):
    unit = [WorkUnit(unit_id="foreign", fn=uncachable_passthrough,
                     args=(3, object()))]
    cache = ResultCache(tmp_path / "store")
    assert run_units(unit, workers=1, cache=cache).values == [3]
    assert cache.stores == 0 and cache.hits == cache.misses == 0
    again = ResultCache(tmp_path / "store")
    rerun = run_units(unit, workers=1, cache=again)
    assert rerun.values == [3] and _served(rerun) == 0


def test_verify_passes_on_faithful_store_and_rejects_tampering(tmp_path):
    units = _units([2, 3], tmp_path)
    store = tmp_path / "store"
    run_units(units, workers=1, cache=ResultCache(store))
    verified = run_units(units, workers=1,
                         cache=ResultCache(store, verify=True))
    assert _served(verified) == 2

    # Tamper with every stored envelope's metrics: the sampled
    # re-execution must now diverge and abort the run.
    tampered = ResultCache(store)
    for unit in units:
        key = tampered.key(unit)
        envelope = tampered.lookup(key)
        tampered.publish_unit(key, unit.unit_id,
                              value=envelope.value,
                              instruments={"metrics": {
                                  "counters": {"bogus": 1}}},
                              wall_s=envelope.wall_s)
    with pytest.raises(CacheError, match="verify failed"):
        run_units(units, workers=1,
                  cache=ResultCache(store, verify=True))


def test_telemetry_counts_cached_units_as_done(tmp_path):
    units = _units([2, 3], tmp_path)
    store = tmp_path / "store"
    run_units(units, workers=1, cache=ResultCache(store))
    telemetry = TelemetryConfig(spool=str(tmp_path / "spool"),
                                run_id="warm", interval_s=60.0)
    warm_cache = ResultCache(store)
    run_units(units, workers=1, cache=warm_cache, telemetry=telemetry)
    events = read_spool(telemetry.spool)
    start = next(e for e in events if e["kind"] == "run-start")
    assert start["units_total"] == 2
    # One replayed unit-done per unit, each flagged as a cache hit.
    done = [e for e in events if e["kind"] == "unit-done"]
    assert sorted(e["unit"] for e in done) == \
        sorted(unit.unit_id for unit in units)
    assert all(e["cached"] is True for e in done)
    finished = [e for e in events if e["kind"] == "run-done"]
    assert len(finished) == 1
    assert finished[0]["units_done"] == 2
    assert finished[0]["cache"] == warm_cache.summary()
