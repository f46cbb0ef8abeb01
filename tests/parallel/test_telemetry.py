"""Engine-level telemetry: spool events, profiling fold, watchdog.

Complements ``tests/obs/test_live.py`` (which covers the spool readers
in isolation): here real ``run_units`` invocations — inline and pooled
— publish into tmp spools, and the assertions check the engine's side
of the contract: every unit reports start/done, events carry progress
and never the unit's instrument dump, folds are worker-count
independent, wall-clocks ride the result envelopes, and a wedged unit
is flagged without killing the run.
"""

from __future__ import annotations

import pathlib
import time

from repro.cache import ResultCache
from repro.obs import CommandProfiler, MetricsRegistry, Observability
from repro.obs.live import TelemetryConfig, read_spool
from repro.parallel import WorkUnit, run_units, unit_observability


def metered_unit(n: int) -> int:
    obs = unit_observability()
    obs.metrics.inc("host.acts", 100 * n)
    obs.metrics.inc("unit.calls")
    return n * n


def recording_unit(n: int) -> int:
    """Records into every instrument, for long enough to heartbeat."""
    obs = unit_observability()
    with obs.span("hammer", n=n):
        obs.metrics.inc("host.acts", 10 * n)
        if obs.profiler is not None:
            obs.profiler.add("ACT", 0.001)
        obs.evidence.decide(f"square_{n}", n * n)
        time.sleep(0.25)
    return n * n


def failing_unit(n: int) -> int:
    raise RuntimeError(f"unit {n} failed")


def profiled_unit(n: int) -> int:
    """Accounts *n* ACT and one REF command when the run profiles."""
    profiler = unit_observability().profiler
    if profiler is not None:
        for _ in range(n):
            profiler.add("ACT", 0.001)
        profiler.add("REF", 0.002)
    return n


def sleeping_unit(seconds: float) -> str:
    time.sleep(seconds)
    return "slept"


def flaky_sleeping_unit(marker: str, seconds: float) -> str:
    """Raises on its first attempt (leaving *marker*); a retry sleeps."""
    path = pathlib.Path(marker)
    if not path.exists():
        path.write_text("failed once")
        raise RuntimeError("first attempt fails")
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
    # The caller fold is worker-count independent with telemetry on.
    assert registries[1].as_dict() == registries[2].as_dict()
    assert registries[1].counter("host.acts") == 600
    assert registries[1].counter("unit.calls") == 3


def test_outcomes_carry_wall_clock_and_stragglers(tmp_path):
    run = run_units(_units(metered_unit, [1, 2, 3, 4]), 2,
                    telemetry=_config(tmp_path, interval_s=60.0))
    walls = {o.unit_id: o.wall_s for o in run.outcomes}
    assert all(wall >= 0 for wall in walls.values())
    # Each unit's last unit-done wall is its outcome's wall.
    done = {e["unit"]: e["wall_s"] for e in read_spool(tmp_path)
            if e["kind"] == "unit-done"}
    assert done == walls
    # Inline runs measure walls too — same envelope contract.
    inline = run_units(_units(metered_unit, [1, 2]), 1)
    assert all(o.wall_s is not None for o in inline.outcomes)


def test_profiler_fold_is_worker_count_independent():
    dumps = {}
    for workers in (1, 2):
        profiler = CommandProfiler()
        run = run_units(_units(profiled_unit, [3, 5]), workers,
                        obs=Observability(profiler=profiler))
        dumps[workers] = profiler.as_dict()
        # Each unit's wall folds with its profile: the coverage base.
        assert abs(profiler.wall_s
                   - sum(o.wall_s for o in run.outcomes)) < 1e-9
    assert dumps[1] == dumps[2]
    assert dumps[1]["counts"] == {"ACT": 8, "REF": 2}
    assert abs(dumps[1]["seconds"]["ACT"] - 0.008) < 1e-9


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


def test_watchdog_flags_a_retry_that_wedges(tmp_path):
    # The first attempt raises and publishes unit-done (with its error)
    # before the engine retries the unit; the retry then stands still.
    config = _config(tmp_path / "spool", stall_deadline_s=0.3)
    unit = WorkUnit(unit_id="t/flaky", fn=flaky_sleeping_unit,
                    args=(str(tmp_path / "failed-once"), 1.5))
    run = run_units([unit], 2, telemetry=config)
    assert run.values == ["slept"]
    assert run.outcomes[0].attempts == 2
    assert [stall.unit_id for stall in run.stalled] == ["t/flaky"]


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


#: The fields every ``unit-done`` event carries; ``error`` and
#: ``cached`` join them only on failed attempts and cache hits.
DONE_FIELDS = {"kind", "ts", "seq", "run", "unit", "wall_s", "commands"}


def test_spool_carries_progress_not_instrument_dumps(tmp_path):
    units = (_units(recording_unit, [2, 3])
             + [WorkUnit(unit_id="t/failing", fn=failing_unit, args=(1,))])
    for workers in (1, 2):
        store = tmp_path / f"store-w{workers}"
        for label, cache in (("uncached", None),
                             ("cold", ResultCache(store)),
                             ("warm", ResultCache(store))):
            spool = tmp_path / f"w{workers}-{label}"
            obs = Observability(profiler=CommandProfiler())
            run = run_units(units, workers, quarantine=True, obs=obs,
                            telemetry=_config(spool, interval_s=0.05),
                            cache=cache)
            # The instruments still fold into the caller (a hit
            # executes no command, so it adds no profile)...
            assert obs.profiler.counts == (
                {} if label == "warm" else {"ACT": 2})
            assert len(obs.evidence.nodes) == 2
            # ...but no event carries what they recorded.
            hits = {o.unit_id for o in run.outcomes if o.cached}
            assert hits == ({"t/recording_unit-2", "t/recording_unit-3"}
                            if label == "warm" else set())
            events = read_spool(spool)
            done = [e for e in events if e["kind"] == "unit-done"]
            assert {e["unit"] for e in done} == \
                {unit.unit_id for unit in units}
            for event in done:
                expected = set(DONE_FIELDS)
                if event["unit"] == "t/failing":
                    expected.add("error")
                if event["unit"] in hits:
                    expected.add("cached")
                assert set(event) == expected, event
            assert sorted(e["commands"] for e in done
                          if "error" not in e) == [20, 30]
            beats = [e for e in events if e["kind"] == "heartbeat"]
            assert all("counters" not in beat for beat in beats)
            # Executed units sleep past several heartbeat intervals.
            assert beats or label == "warm"
