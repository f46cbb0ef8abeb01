"""Execution engine: ordering, retries, quarantine, crash recovery.

The worker functions live at module top level because the process pool
pickles them by reference.  Crash tests kill the worker process with
``os._exit`` — the engine must rebuild the broken pool and retry.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry, NullMetrics, Observability
from repro.parallel import (WorkUnit, default_workers, run_units,
                            unit_observability, unit_seed)

_FLAKY_SENTINEL = "/tmp/repro-parallel-flaky-{unit}.marker"


def square(value: int) -> int:
    return value * value


def slow_square(value: int) -> int:
    # Tiny stagger so completion order scrambles relative to submission.
    import time
    time.sleep(0.01 * (value % 3))
    return value * value


def always_raises(value: int) -> int:
    raise ValueError(f"bad unit {value}")


def crash_if_marked(value: int, marker: str) -> int:
    """Dies hard on the first call, succeeds on the retry."""
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("crashed once")
        os._exit(13)
    return value * value


def flaky_raises_once(value: int, marker: str) -> int:
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("raised once")
        raise RuntimeError("transient")
    return value * value


def metered_square(value: int) -> int:
    """Records into the ambient per-unit registry, like eval units do."""
    obs = unit_observability()
    obs.metrics.inc("unit.calls")
    obs.metrics.inc("unit.total", value)
    obs.metrics.observe("unit.value", value)
    return value * value


def _units(fn, values, prefix="unit", extra_args=()):
    return [WorkUnit(unit_id=f"{prefix}/{value}", fn=fn,
                     args=(value, *extra_args))
            for value in values]


def test_inline_run_matches_direct_calls():
    run = run_units(_units(square, [3, 1, 2]), workers=1)
    assert run.values == [9, 1, 4]
    assert run.workers == 1
    assert run.retries == 0


def test_pool_results_keep_submission_order():
    values = list(range(8))
    run = run_units(_units(slow_square, values), workers=4)
    assert run.values == [v * v for v in values]


def test_inline_and_pool_agree():
    units = _units(square, [5, 7, 11])
    assert run_units(units, workers=1).values == \
        run_units(units, workers=2).values


def test_unit_seed_is_stable_and_distinct():
    assert unit_seed("eval/A5") == unit_seed("eval/A5")
    assert unit_seed("eval/A5") != unit_seed("eval/B0")
    assert WorkUnit(unit_id="eval/A5", fn=square).seed == \
        unit_seed("eval/A5")


def test_duplicate_unit_ids_rejected():
    units = [WorkUnit(unit_id="same", fn=square, args=(1,)),
             WorkUnit(unit_id="same", fn=square, args=(2,))]
    with pytest.raises(ConfigError):
        run_units(units, workers=2)


def test_bad_worker_count_rejected():
    with pytest.raises(ConfigError):
        run_units([], workers=0)
    assert default_workers() >= 1


def test_exception_propagates_without_quarantine():
    units = _units(always_raises, [1])
    with pytest.raises(ValueError, match="bad unit 1"):
        run_units(units, workers=2, max_attempts=1)


def test_quarantine_isolates_failing_unit():
    units = (_units(square, [2]) + _units(always_raises, [9], "bad")
             + _units(square, [3], "tail"))
    run = run_units(units, workers=2, max_attempts=2, quarantine=True)
    assert run.values == [4, 9]
    assert [o.unit_id for o in run.quarantined] == ["bad/9"]
    outcome = run.quarantined[0]
    assert outcome.attempts == 2
    assert "ValueError" in outcome.error
    assert not outcome.ok
    assert run.retries >= 1


def test_transient_exception_recovers_on_retry(tmp_path):
    marker = str(tmp_path / "raise-once.marker")
    units = [WorkUnit(unit_id="flaky", fn=flaky_raises_once,
                      args=(6, marker))]
    run = run_units(units, workers=2, max_attempts=2)
    assert run.values == [36]
    assert run.outcomes[0].attempts == 2
    assert run.retries == 1


def test_inline_transient_exception_recovers_on_retry(tmp_path):
    marker = str(tmp_path / "raise-once.marker")
    units = [WorkUnit(unit_id="flaky", fn=flaky_raises_once,
                      args=(6, marker))]
    run = run_units(units, workers=1, max_attempts=2)
    assert run.values == [36]
    assert run.outcomes[0].attempts == 2
    assert run.retries == 1


def test_inline_quarantine_matches_pool():
    """One failure policy: workers=1 retries and quarantines exactly as
    the pool does, instead of raising out of the run."""
    units = _units(square, [2]) + _units(always_raises, [9], "bad")
    inline, pooled = [run_units(units, workers=workers, max_attempts=2,
                                quarantine=True)
                      for workers in (1, 2)]
    assert inline.values == pooled.values == [4]
    assert ([(o.unit_id, o.attempts, o.error) for o in inline.quarantined]
            == [(o.unit_id, o.attempts, o.error)
                for o in pooled.quarantined]
            == [("bad/9", 2, "ValueError: bad unit 9")])
    assert inline.retries == pooled.retries == 1


def test_inline_failure_stops_the_run_before_later_units(tmp_path):
    """Without quarantine an exhausted unit raises at once: the units
    after it never start."""
    marker = str(tmp_path / "never.marker")
    units = (_units(always_raises, [1])
             + [WorkUnit(unit_id="after", fn=flaky_raises_once,
                         args=(2, marker))])
    with pytest.raises(ValueError, match="bad unit 1"):
        run_units(units, workers=1, max_attempts=2)
    assert not os.path.exists(marker)


def interrupting(value: int) -> int:
    raise KeyboardInterrupt


def test_inline_interrupt_propagates_without_retry(tmp_path):
    marker = str(tmp_path / "after.marker")
    units = (_units(interrupting, [1])
             + [WorkUnit(unit_id="after", fn=flaky_raises_once,
                         args=(2, marker))])
    with pytest.raises(KeyboardInterrupt):
        run_units(units, workers=1, max_attempts=3, quarantine=True)
    assert not os.path.exists(marker)


def test_worker_crash_rebuilds_pool_and_retries(tmp_path):
    """os._exit in a worker breaks the pool; the unit must still finish."""
    marker = str(tmp_path / "crash-once.marker")
    units = (_units(square, [2], "pre")
             + [WorkUnit(unit_id="crasher", fn=crash_if_marked,
                         args=(5, marker))]
             + _units(square, [3], "post"))
    run = run_units(units, workers=2, max_attempts=2)
    assert run.values == [4, 25, 9]
    crasher = next(o for o in run.outcomes if o.unit_id == "crasher")
    assert crasher.attempts == 2


def test_worker_crash_quarantines_after_max_attempts():
    units = [WorkUnit(unit_id="hopeless", fn=os._exit, args=(17,))]
    run = run_units(units, workers=2, max_attempts=2, quarantine=True)
    assert run.values == []
    assert [o.unit_id for o in run.quarantined] == ["hopeless"]
    assert run.quarantined[0].attempts == 2
    assert "BrokenProcessPool" in run.quarantined[0].error


def test_metrics_fold_is_worker_count_independent():
    values = [2, 3, 5]
    sequential = MetricsRegistry()
    pooled = MetricsRegistry()
    run_a = run_units(_units(metered_square, values, "met"),
                      workers=1, obs=Observability(metrics=sequential))
    run_b = run_units(_units(metered_square, values, "met"),
                      workers=2, obs=Observability(metrics=pooled))
    assert run_a.values == run_b.values == [4, 9, 25]
    assert sequential.as_dict() == pooled.as_dict()
    assert pooled.counter("unit.calls") == 3
    assert pooled.counter("unit.total") == 10
    assert pooled.as_dict()["histograms"]["unit.value"]["count"] == 3


def test_pool_outcomes_carry_unit_metrics():
    run = run_units(_units(metered_square, [4], "met"), workers=2)
    assert run.outcomes[0].instruments["metrics"]["counters"][
        "unit.calls"] == 1
    # Inline units record into their own registry too: same dump.
    inline = run_units(_units(metered_square, [4], "met"), workers=1,
                       obs=Observability())
    assert inline.outcomes[0].instruments == run.outcomes[0].instruments


def test_units_without_metrics_see_null_obs():
    # No registry passed: unit_observability() is the inert bundle and
    # results are unaffected.
    run = run_units(_units(metered_square, [6], "met"), workers=1)
    assert run.values == [36]
    assert unit_observability().metrics.enabled is False


def test_disabled_registry_is_ignored():
    run = run_units(_units(metered_square, [2], "met"), workers=2,
                    obs=Observability(metrics=NullMetrics()))
    assert run.values == [4]
