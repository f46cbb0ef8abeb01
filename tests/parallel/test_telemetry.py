"""Engine-level telemetry: spool events, profiling fold, watchdog.

Complements ``tests/obs/test_live.py`` (which covers the spool readers
in isolation): here real ``run_units`` invocations — inline and pooled
— publish into tmp spools, and the assertions check the engine's side
of the contract: every unit reports start/done, folds are worker-count
independent, wall-clocks ride the result envelopes, and a wedged unit
is flagged without killing the run.
"""

from __future__ import annotations

import time

from repro.obs import CommandProfiler, MetricsRegistry, Observability
from repro.obs.live import (TelemetryConfig, aggregate_metrics,
                            assemble_timeline, pool_breakdown, read_spool)
from repro.parallel import WorkUnit, run_units, unit_observability


def metered_unit(n: int) -> int:
    obs = unit_observability()
    obs.metrics.inc("host.acts", 100 * n)
    obs.metrics.inc("unit.calls")
    return n * n


def staged_unit(n: int) -> int:
    obs = unit_observability()
    with obs.span("hammer", n=n):
        obs.metrics.inc("host.acts", n)
    return n


def profiled_unit(n: int) -> int:
    obs = unit_observability()
    for _ in range(n):
        obs.profiler.add("ACT", 0.001)
    obs.profiler.add("REF", 0.002)
    return n


def sleeping_unit(seconds: float) -> str:
    time.sleep(seconds)
    return "slept"


def _units(fn, values):
    return [WorkUnit(unit_id=f"t/{fn.__name__}-{n}", fn=fn, args=(n,))
            for n in values]


def _config(tmp_path, **overrides) -> TelemetryConfig:
    defaults = dict(spool=str(tmp_path), run_id="test-run",
                    interval_s=0.1)
    defaults.update(overrides)
    return TelemetryConfig(**defaults)


def test_every_unit_reports_start_and_done_inline_and_pooled(tmp_path):
    for workers in (1, 2):
        spool = tmp_path / f"w{workers}"
        run = run_units(_units(metered_unit, [2, 3, 4]), workers,
                        telemetry=_config(spool))
        assert run.values == [4, 9, 16]
        events = read_spool(spool)
        kinds = [e["kind"] for e in events]
        assert kinds.count("run-start") == 1
        assert kinds.count("unit-start") == 3
        assert kinds.count("unit-done") == 3
        assert kinds.count("run-done") == 1
        done = next(e for e in events if e["kind"] == "run-done")
        assert done["units_done"] == 3
        assert all(e["run"] == "test-run" for e in events)
        starts = [e for e in events if e["kind"] == "unit-start"]
        assert all("pid" in e for e in starts)


def test_spool_metrics_match_caller_fold_for_any_worker_count(tmp_path):
    registries = {}
    for workers in (1, 2):
        spool = tmp_path / f"w{workers}"
        registries[workers] = MetricsRegistry()
        run_units(_units(metered_unit, [1, 2, 3]), workers,
                  obs=Observability(metrics=registries[workers]),
                  telemetry=_config(spool))
        # The spool's unit-done snapshots fold to the caller's registry.
        folded = aggregate_metrics(read_spool(spool))
        assert folded.as_dict() == registries[workers].as_dict()
    # ...and the caller fold itself is worker-count independent.
    assert registries[1].as_dict() == registries[2].as_dict()
    assert registries[1].counter("host.acts") == 600
    assert registries[1].counter("unit.calls") == 3


def test_unit_done_events_assemble_distributed_timeline(tmp_path):
    units = _units(staged_unit, [5, 6])
    run_units(units, 2, telemetry=_config(tmp_path))
    timeline = assemble_timeline(read_spool(tmp_path))
    # Every unit contributes its span, rebased onto a shared origin.
    assert {entry["unit"] for entry in timeline} == \
        {unit.unit_id for unit in units}
    assert all(entry["name"] == "hammer" for entry in timeline)
    assert all(entry["start_s"] >= 0 for entry in timeline)
    done = [e for e in read_spool(tmp_path) if e["kind"] == "unit-done"]
    assert all("origin_ts" in e and e["spans"] for e in done)


def test_outcomes_carry_wall_clock_and_stragglers(tmp_path):
    run = run_units(_units(metered_unit, [1, 2, 3, 4]), 2,
                    telemetry=_config(tmp_path, heartbeats=False))
    walls = {o.unit_id: o.wall_s for o in run.outcomes}
    assert all(wall >= 0 for wall in walls.values())
    # The spool's unit-done walls are the outcomes' walls, and rank
    # the stragglers slowest first.
    breakdown = pool_breakdown(read_spool(tmp_path))
    assert breakdown["unit_walls"] == walls
    stragglers = [entry["wall_s"] for entry in breakdown["stragglers"]]
    assert len(stragglers) == 3
    assert stragglers == sorted(walls.values(), reverse=True)[:3]
    # Inline runs measure walls too — same envelope contract.
    inline = run_units(_units(metered_unit, [1, 2]), 1)
    assert all(o.wall_s is not None for o in inline.outcomes)


def test_profiler_fold_is_worker_count_independent():
    dumps = {}
    for workers in (1, 2):
        profiler = CommandProfiler()
        run_units(_units(profiled_unit, [3, 5]), workers,
                  obs=Observability(profiler=profiler))
        dumps[workers] = profiler.as_dict()
    assert dumps[1] == dumps[2]
    assert dumps[1]["counts"] == {"ACT": 8, "REF": 2}
    assert abs(dumps[1]["seconds"]["ACT"] - 0.008) < 1e-9


def test_profiled_unit_done_events_carry_profiles(tmp_path):
    profiler = CommandProfiler()
    run = run_units(_units(profiled_unit, [4]), 2,
                    obs=Observability(profiler=profiler),
                    telemetry=_config(tmp_path))
    outcome = run.outcomes[0]
    assert outcome.instruments["profile"]["counts"] == {"ACT": 4, "REF": 1}
    done = [e for e in read_spool(tmp_path)
            if e["kind"] == "unit-done"]
    assert done[0]["profile"]["counts"] == {"ACT": 4, "REF": 1}
    # The event carries the unit's instrument dump as it is.
    assert {key: done[0][key] for key in outcome.instruments} == \
        outcome.instruments


def test_watchdog_flags_stalled_unit_without_killing_the_run(tmp_path):
    config = _config(tmp_path, stall_deadline_s=0.3)
    run = run_units([WorkUnit(unit_id="t/wedged", fn=sleeping_unit,
                              args=(1.5,))], 2, telemetry=config)
    # The unit finished (a stall is a flag, not a failure)...
    assert run.values == ["slept"]
    # ...but the watchdog named it while its counters stood still.
    assert [stall.unit_id for stall in run.stalled] == ["t/wedged"]
    assert run.stalled[0].age_s > 0.3
    kinds = [e["kind"] for e in read_spool(tmp_path)]
    assert "unit-stalled" in kinds


def test_no_stalls_reported_without_a_deadline(tmp_path):
    run = run_units(_units(metered_unit, [1, 2]), 2,
                    telemetry=_config(tmp_path))
    assert run.stalled == []
    assert "unit-stalled" not in [e["kind"]
                                  for e in read_spool(tmp_path)]


def test_telemetry_is_resilient_to_unwritable_spool(tmp_path):
    missing = tmp_path / "a" / "b" / "spool"
    run = run_units(_units(metered_unit, [2]), 1,
                    telemetry=_config(missing))
    # Sinks create the spool on demand; results never depend on it.
    assert run.values == [4]
    assert read_spool(missing) != []
