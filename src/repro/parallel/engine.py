"""Deterministic process-pool execution engine.

The paper's headline artifacts aggregate full-bank sweeps over 45
modules; TRRespass-style studies multiply that by pattern candidates.
Each module evaluation is independent — the simulator derives every
random property from a :class:`~repro.rng.SeedSequenceFactory` keyed by
the module serial — so the work shards perfectly across processes.
What does NOT come for free is *reproducibility discipline*:

* **Determinism** — results are merged in submission order, and every
  unit carries a seed derived from its stable ``unit_id`` (never from
  worker identity, scheduling order, or wall clock).  Every unit runs
  through one executor, :func:`_execute`: a pool worker calls it per
  unit, and a run with ``workers=1`` calls it in this process, one unit
  after another, with no pool and no pickling.  Artifacts must diff
  byte-for-byte across worker counts.
* **Crash containment** — a worker that dies (OOM killer, segfault in a
  native extension) breaks the whole :class:`ProcessPoolExecutor`; the
  engine rebuilds the pool and retries the lost units up to
  ``max_attempts``.  A unit whose function raises is retried the same
  way at any worker count.  Units that keep failing are either raised
  (eval harnesses: fail loudly) or *quarantined* (chaos harnesses:
  record the failure and keep going), mirroring the Row Scout
  quarantine semantics of :mod:`repro.faults` — misbehaving work is
  isolated, named in the report, and never silently dropped.
* **One instrument bundle** — each work unit records into a fresh
  *ambient* :class:`~repro.obs.Observability` of the one bundle shape
  (metrics and evidence; reachable inside the unit via
  :func:`unit_observability`, which the eval host builders attach to
  every host they build), with a command profiler exactly when the
  caller's bundle has one.  Its :meth:`~repro.obs.Observability.dump`
  rides home on the unit's :class:`UnitOutcome`, and the engine folds
  every unit's metrics and evidence nodes into the caller's bundle
  **in submission order**, so ``metrics.json`` from a ``--workers N``
  run equals the ``--workers 1`` one.  A unit's command profile rides
  beside it like its wall-clock, and is never cached.
* **Live telemetry stays off the artifact path** — a
  :class:`~repro.obs.live.TelemetryConfig` makes every unit publish
  ``unit-start`` (PID), ``heartbeat`` (commands issued, the open span)
  and ``unit-done`` (wall-clock, commands) events into a spool
  directory; nothing telemetry-derived ever reaches the metrics fold
  or a rendered artifact, so enabling it cannot perturb byte-identity.
  ``stall_deadline_s`` arms a coordinator-side
  :class:`~repro.obs.live.Watchdog`, the spool's one reader, that flags
  pool units whose latest attempt's command counters stop advancing.
* **Results are cacheable** — a caller-supplied
  :class:`~repro.cache.ResultCache` makes the engine consult a
  content-addressed store before dispatching each unit and publish the
  result envelope (value + metrics and evidence dump + wall) as each
  unit completes, buying unit-level resume after a crash and warm re-runs
  whose stdout / folded metrics / history rows are byte-identical to
  cold ones (hits replay their stored dump through the same
  submission-order fold).
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Sequence

from ..errors import ConfigError
from ..obs import (NULL_OBS, CommandProfiler, NullSpans, Observability,
                   SpanTracker)
from ..obs.live import COMMAND_COUNTERS, Heartbeat, Watchdog, read_spool
from ..rng import SeedSequenceFactory

#: Root of every engine-derived seed; unit seeds depend only on the
#: unit_id, so they are stable across worker counts and runs.
ENGINE_SEEDS = SeedSequenceFactory("repro.parallel")


def unit_seed(unit_id: str) -> int:
    """Stable 64-bit seed for a work unit (independent of scheduling)."""
    return ENGINE_SEEDS.seed(unit_id)


#: The ambient per-unit observability bundle: bound while a work unit's
#: function executes (always a fresh registry the engine folds into
#: the caller's), :data:`~repro.obs.NULL_OBS` outside any unit.
_unit_obs: Observability = NULL_OBS


def unit_observability() -> Observability:
    """The executing work unit's ambient observability bundle.

    The eval host builders attach it to every host they build, so the
    unit's components record through ``host.obs`` into the registry
    and ledger — and, when the run profiles, the command profiler —
    that the engine folds into the caller's bundle.  Outside a unit
    this is :data:`~repro.obs.NULL_OBS`, so instrumented code never
    branches.
    """
    return _unit_obs


def default_workers() -> int:
    """Default worker count: one per CPU (the CLI default)."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class WorkUnit:
    """One shard of work: a picklable call plus its reproduction recipe.

    ``fn`` must be an importable top-level function (process pools pickle
    it by reference).  ``meta`` is part of the unit's cache key — put
    the module id, scale name, and fault profile there.
    """

    unit_id: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return unit_seed(self.unit_id)

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


@dataclass
class UnitOutcome:
    """The result (or recorded failure) of one work unit."""

    unit_id: str
    value: Any = None
    attempts: int = 1
    quarantined: bool = False
    error: str | None = None
    #: What the unit's instruments recorded, as the
    #: :meth:`~repro.obs.Observability.dump` of its bundle (``metrics``
    #: and ``evidence``; each only when recorded).
    instruments: dict = field(default_factory=dict)
    #: Measured wall-clock seconds of the winning attempt.  Side
    #: channel: never part of any rendered artifact.
    wall_s: float | None = None
    #: The winning attempt's :meth:`~repro.obs.CommandProfiler.as_dict`
    #: when the run profiles.  Side channel like :attr:`wall_s`, and
    #: never cached: None on a hit.
    profile: dict | None = None
    #: True when this outcome was served from the result cache
    #: (``attempts == 0``: the unit never executed this run).
    cached: bool = False
    #: Always False: no run coalesces units.  Kept because the traced
    #: benchmark (``perfbench/tracer.py``) reads it.
    coalesced: bool = False

    @property
    def ok(self) -> bool:
        return not self.quarantined


@dataclass
class ParallelRun:
    """All unit outcomes of one :func:`run_units` call, in input order."""

    outcomes: list[UnitOutcome]
    workers: int
    #: Units the telemetry watchdog flagged as stalled mid-run
    #: (:class:`~repro.obs.live.StalledUnit`); empty without a deadline.
    stalled: list = field(default_factory=list)

    @property
    def values(self) -> list[Any]:
        """Unit results in input order (quarantined units excluded)."""
        return [outcome.value for outcome in self.outcomes if outcome.ok]

    @property
    def quarantined(self) -> list[UnitOutcome]:
        return [outcome for outcome in self.outcomes if outcome.quarantined]

    @property
    def retries(self) -> int:
        """Extra attempts spent recovering crashed/failed units."""
        # max(…, 0): cached outcomes carry attempts == 0.
        return sum(max(outcome.attempts - 1, 0)
                   for outcome in self.outcomes)


def _publish(sink, kind: str, **fields) -> None:
    """Publish one telemetry event; the spool must never kill work."""
    if sink is None:
        return
    try:
        sink.publish(kind, **fields)
    except OSError:
        pass


def _done_fields(outcome: UnitOutcome) -> dict:
    """The ``unit-done`` event payload: the unit's wall-clock, the
    commands it issued, and its error when it raised."""
    counters = outcome.instruments.get("metrics", {}).get("counters", {})
    fields: dict = {
        "wall_s": round(outcome.wall_s or 0.0, 6),
        "commands": sum(counters.get(name, 0)
                        for name in COMMAND_COUNTERS),
    }
    if outcome.error is not None:
        fields["error"] = outcome.error
    return fields


def _execute(unit: WorkUnit, profile: bool = False,
             telemetry=None) -> UnitOutcome:
    """Run one unit in this process; return its outcome with the dump.

    The one per-unit executor.  It binds a fresh ambient bundle for the
    unit's duration, with a command profiler when *profile* is set and
    a span tracker under *telemetry* (heartbeats name the open span, so
    a stalled unit shows the stage it is stuck in).  The bundle's dump,
    the measured wall and the profile ride on the returned outcome for
    the caller's submission-order fold.  With *telemetry* the unit also
    publishes ``unit-start`` / ``heartbeat`` / ``unit-done`` events —
    side channel only.  An exception from the unit propagates after its
    ``unit-done`` event.
    """
    global _unit_obs
    live = telemetry is not None
    obs = Observability(spans=SpanTracker() if live else NullSpans(),
                        profiler=CommandProfiler() if profile else None)
    sink = telemetry.sink(unit.unit_id) if live else None
    heartbeat = None
    if sink is not None:
        _publish(sink, "unit-start", pid=os.getpid())
        heartbeat = Heartbeat(sink, metrics=obs.metrics, spans=obs.spans,
                              interval_s=telemetry.interval_s).start()
    _unit_obs = obs
    outcome = UnitOutcome(unit_id=unit.unit_id)
    start = perf_counter()
    try:
        outcome.value = unit.run()
    except BaseException as error:
        outcome.error = f"{type(error).__name__}: {error}"
        raise
    finally:
        _unit_obs = NULL_OBS
        outcome.wall_s = round(perf_counter() - start, 6)
        if heartbeat is not None:
            heartbeat.stop()
        outcome.instruments = obs.dump()
        if profile:
            outcome.profile = obs.profiler.as_dict()
        if sink is not None:
            _publish(sink, "unit-done", **_done_fields(outcome))
    return outcome


def _call_unit(unit: WorkUnit, profile: bool = False,
               telemetry=None) -> UnitOutcome:
    """The callable the pool submits: :func:`_execute` in a worker.

    A module-level function of its own because the pool pickles it by
    qualified name, and because it is the pool side alone: the traced
    benchmark (``perfbench/tracer.py``) replaces this attribute to give
    each worker unit its own span tree, which in-process units (run
    through :func:`_execute` directly) must not get.
    """
    return _execute(unit, profile, telemetry)


def run_units(units: Sequence[WorkUnit], workers: int = 1, *,
              max_attempts: int = 2, quarantine: bool = False,
              log=None, obs=None, telemetry=None,
              cache=None) -> ParallelRun:
    """Execute *units*, return outcomes in input order.

    Every unit runs through the same executor: with ``workers=1`` in
    this process, one after another (no pool, no pickling); with more,
    sharded over a process pool.  At any worker count a unit whose
    function raises — or whose worker crashes — is retried up to
    *max_attempts* times and then either re-raised (default) or
    quarantined with the same attempt count and error string.
    In this process ``KeyboardInterrupt`` and ``SystemExit`` propagate
    at once.

    *log*, when given, is a :class:`repro.obs.StructuredLog`; the engine
    emits ``unit-done`` / ``unit-retry`` / ``unit-quarantined`` events.

    *obs*, when given, is the caller's :class:`repro.obs.Observability`
    bundle.  Each unit records into a bundle of its own, profiled when
    *obs* has a :attr:`~repro.obs.Observability.profiler`.  The units'
    dumps fold into *obs* through :meth:`~repro.obs.Observability.merge`
    in submission order (each evidence node stamped with its unit id),
    so its metrics and ledger come out identical for any worker count.
    Each executed unit's profile folds into ``obs.profiler`` with the
    unit's wall, in the same order; cache hits contribute none.  Unit
    spans are not folded.

    *telemetry*, when given, is a :class:`repro.obs.live.TelemetryConfig`:
    the run publishes ``run-start`` / ``run-done`` plus per-unit
    progress events into its spool directory, strictly off the
    artifact path.  A ``stall_deadline_s`` arms a coordinator-side
    watchdog over pool units; flagged units land in
    :attr:`ParallelRun.stalled`.

    *cache*, when given, is a :class:`repro.cache.ResultCache`: each
    unit is content-addressed by its recipe and looked up before
    dispatch.  Hits skip execution and replay their stored value and
    metrics and evidence at the unit's submission-order position, so the
    run's outputs stay byte-identical to an uncached run; misses
    execute normally and publish their envelope as they complete (so a
    killed sweep resumes unit-by-unit).  With ``cache.verify``, one hit
    per run is re-executed and diffed against its stored envelope
    (:class:`repro.errors.CacheError` on divergence).
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if max_attempts < 1:
        raise ConfigError("max_attempts must be >= 1")
    unit_ids = [unit.unit_id for unit in units]
    if len(set(unit_ids)) != len(unit_ids):
        raise ConfigError("work unit ids must be unique")
    if obs is None:
        obs = NULL_OBS
    profile = obs.profiler is not None
    coordinator = telemetry.sink(None) if telemetry is not None else None
    if coordinator is not None:
        _publish(coordinator, "run-start", units_total=len(units),
                 workers=workers)

    def execute(batch, on_result=None) -> ParallelRun:
        return _run(batch, workers, max_attempts=max_attempts,
                    quarantine=quarantine, log=log,
                    profile=profile, telemetry=telemetry,
                    coordinator=coordinator, on_result=on_result)

    if cache is None:
        run = execute(units)
    else:
        run = _run_cached(units, cache, execute, telemetry, log=log)
    # The one fold: every unit, submission order, cache hits included
    # (a hit carries no profile).
    for outcome in run.outcomes:
        obs.merge(outcome.instruments, unit=outcome.unit_id)
        if outcome.profile is not None:
            obs.profiler.merge(outcome.profile, wall_s=outcome.wall_s)
    if coordinator is not None:
        done_fields: dict = {
            "units_done": sum(1 for o in run.outcomes if o.ok),
            "quarantined": len(run.quarantined),
            "retries": run.retries,
        }
        if cache is not None:
            done_fields["cache"] = cache.summary()
        _publish(coordinator, "run-done", **done_fields)
    return run


def _run(units: Sequence[WorkUnit], workers: int, *, max_attempts: int,
         quarantine: bool, log, profile: bool, telemetry,
         coordinator=None, on_result=None) -> ParallelRun:
    """Run *units* through the executor: one failure policy for any
    worker count.  *on_result* sees each unit as it completes."""
    attempts = {unit.unit_id: 0 for unit in units}
    slots: dict[str, UnitOutcome] = {}
    stalled: list = []

    def finish(unit: WorkUnit, outcome: UnitOutcome) -> None:
        outcome.attempts = attempts[unit.unit_id]
        if log is not None:
            log.info("unit-done", unit=unit.unit_id,
                     attempts=outcome.attempts)
        slots[unit.unit_id] = outcome
        if on_result is not None:
            on_result(unit, outcome)

    pending = list(units)
    while pending:
        if workers == 1:
            pending, failed = _drain_inline(pending, attempts, finish,
                                            max_attempts, log,
                                            profile, telemetry)
        else:
            pending, failed = _drain_pool(pending, min(workers, len(units)),
                                          attempts, finish, max_attempts,
                                          log, profile, telemetry,
                                          coordinator=coordinator,
                                          stalled=stalled)
        for unit, error in failed:
            if not quarantine:
                raise error
            if log is not None:
                log.info("unit-quarantined", unit=unit.unit_id,
                         attempts=attempts[unit.unit_id],
                         error=type(error).__name__)
            slots[unit.unit_id] = UnitOutcome(
                unit_id=unit.unit_id, attempts=attempts[unit.unit_id],
                quarantined=True, error=f"{type(error).__name__}: {error}")
    outcomes = [slots[unit.unit_id] for unit in units]
    return ParallelRun(outcomes=outcomes, workers=workers,
                       stalled=stalled)


def _drain_inline(pending: list[WorkUnit], attempts: dict[str, int],
                  finish, max_attempts: int, log, profile: bool,
                  telemetry):
    """Run *pending* in this process, in order, until a unit fails.

    Returns ``(pending, failed)`` like :func:`_drain_pool`: a unit that
    raises is retried at once while it has attempts left; one that
    exhausts them comes back failed, with the units after it still
    pending, so the caller raises or quarantines it before they run.
    """
    for index, unit in enumerate(pending):
        attempts[unit.unit_id] += 1
        try:
            outcome = _execute(unit, profile, telemetry)
        except Exception as error:
            retryable: list[WorkUnit] = []
            failed: list[tuple[WorkUnit, BaseException]] = []
            _retry_or_fail(unit, error, attempts, max_attempts,
                           retryable, failed, log)
            return retryable + pending[index + 1:], failed
        finish(unit, outcome)
    return [], []


def _run_cached(units: Sequence[WorkUnit], cache, execute, telemetry,
                *, log=None) -> ParallelRun:
    """Cache-backed execution: plan, run the misses, replay in order.

    1. **Plan**, in submission order: **hits** (stored envelope found)
       and **misses** (everything else, uncachable units included).
       Every unit records the same dump whatever the run's flags, so
       a stored unit serves any run.
    2. **Run** the misses through *execute*, the runner uncached runs
       use, publishing each envelope as its unit completes (a killed
       sweep therefore resumes unit-by-unit).
    3. **Replay** every unit's outcome in submission order: misses as
       they ran, hits from their stored envelopes (with no profile:
       a hit executed no command).  The caller folds these like any
       run's outcomes, which keeps a warm run's folded metrics and
       evidence byte-identical to a cold one's.
    """
    keys: dict[str, str] = {}
    hits: dict[str, Any] = {}
    misses: list[WorkUnit] = []
    for unit in units:
        key = cache.key(unit)
        if key is not None:
            keys[unit.unit_id] = key
            envelope = cache.lookup(key)
            if envelope is not None:
                hits[unit.unit_id] = envelope
                continue
        # A miss; an uncachable recipe always executes, never publishes.
        misses.append(unit)

    def publish_outcome(unit: WorkUnit, outcome: UnitOutcome) -> None:
        if unit.unit_id in keys and outcome.ok:
            cache.publish_unit(keys[unit.unit_id], unit.unit_id,
                               value=outcome.value,
                               instruments=outcome.instruments,
                               wall_s=outcome.wall_s)

    # 100% warm (or empty): nothing to run, so no pool is ever spawned.
    executed = execute(misses, on_result=publish_outcome)
    ran = {outcome.unit_id: outcome for outcome in executed.outcomes}

    outcomes: list[UnitOutcome] = []
    for unit in units:
        uid = unit.unit_id
        outcome = ran.get(uid)
        if outcome is None:
            envelope = hits[uid]
            outcome = UnitOutcome(
                unit_id=uid, value=envelope.value, attempts=0,
                instruments=envelope.instruments,
                wall_s=envelope.wall_s, cached=True)
            if log is not None:
                log.info("unit-cached", unit=uid, key=keys[uid][:12])
            _replay_unit_events(telemetry, outcome)
        outcomes.append(outcome)
    if getattr(cache, "verify", False) and hits:
        _verify_sampled_hit(cache, hits, units, keys, log)
    return ParallelRun(outcomes=outcomes, workers=executed.workers,
                       stalled=executed.stalled)


def _replay_unit_events(telemetry, outcome: UnitOutcome) -> None:
    """Publish start/done telemetry for a unit served from the cache,
    so the spool counts it as completed (flagged ``cached``)."""
    if telemetry is None:
        return
    sink = telemetry.sink(outcome.unit_id)
    _publish(sink, "unit-start", pid=os.getpid())
    _publish(sink, "unit-done", **_done_fields(outcome), cached=True)


def _verify_sampled_hit(cache, hits: dict, units: Sequence[WorkUnit],
                        keys: dict, log) -> None:
    """Re-execute one deterministically sampled hit and diff it against
    the stored envelope (``--cache-verify``).

    The sample is the hit with the smallest key, so two verify runs of
    the same sweep check the same unit.  The re-execution records into
    a detached bundle of its own — nothing it records can reach the
    caller's fold.
    """
    uid = min(hits, key=lambda unit_id: keys[unit_id])
    unit = next(unit for unit in units if unit.unit_id == uid)
    cache.check_hit(hits[uid], _execute(unit))
    if log is not None:
        log.info("cache-verify", unit=uid, key=keys[uid][:12])


def _scan_stalls(watchdog, telemetry, reported: set, stalled: list,
                 log, coordinator) -> None:
    """One watchdog pass over the spool; new stalls are reported once."""
    try:
        events = read_spool(telemetry.spool)
    except OSError:
        return
    for stall in watchdog.scan(events):
        if stall.unit_id in reported:
            continue
        reported.add(stall.unit_id)
        stalled.append(stall)
        if log is not None:
            log.warning("unit-stalled", unit=stall.unit_id,
                        age_s=round(stall.age_s, 1),
                        span=stall.span or "-")
        _publish(coordinator, "unit-stalled", stalled_unit=stall.unit_id,
                 age_s=stall.age_s, span=stall.span,
                 last_kind=stall.last_kind)


def _drain_pool(pending: list[WorkUnit], pool_size: int,
                attempts: dict[str, int], finish, max_attempts: int, log,
                profile: bool, telemetry, coordinator=None,
                stalled: list | None = None):
    """One pool lifetime: run *pending* until done or the pool breaks.

    Returns ``(retryable, failed)`` — units to resubmit on a fresh pool,
    and ``(unit, error)`` pairs that exhausted their attempts.
    """
    retryable: list[WorkUnit] = []
    failed: list[tuple[WorkUnit, BaseException]] = []
    broken = False
    watchdog = None
    wait_timeout = None
    reported: set[str] = set()
    if telemetry is not None and telemetry.stall_deadline_s:
        watchdog = Watchdog(telemetry.stall_deadline_s)
        # Poll at half the deadline so a stall is flagged at most one
        # scan late; the wait() below otherwise blocks indefinitely.
        wait_timeout = max(telemetry.stall_deadline_s / 2, 0.05)
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        futures = {}
        for unit in pending:
            attempts[unit.unit_id] += 1
            futures[pool.submit(_call_unit, unit, profile,
                                telemetry)] = unit
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, timeout=wait_timeout,
                                  return_when=FIRST_COMPLETED)
            if not done and watchdog is not None:
                _scan_stalls(watchdog, telemetry, reported, stalled,
                             log, coordinator)
                continue
            lost: list[tuple[WorkUnit, BaseException]] = []
            for future in done:
                unit = futures[future]
                try:
                    outcome = future.result()
                except BrokenProcessPool as error:
                    # The pool is gone; this unit was lost with it, not
                    # necessarily at fault.  Units that already finished
                    # keep their results — only in-flight work re-runs.
                    broken = True
                    lost.append((unit, error))
                except BaseException as error:  # noqa: BLE001 — recorded
                    _retry_or_fail(unit, error, attempts, max_attempts,
                                   retryable, failed, log)
                else:
                    finish(unit, outcome)
            if broken:
                # Every unit still in flight died with the pool; re-run
                # them all on a fresh pool (bounded by max_attempts).
                pool_error = (lost[0][1] if lost
                              else BrokenProcessPool("worker crashed"))
                for unit, error in lost:
                    _retry_or_fail(unit, error, attempts, max_attempts,
                                   retryable, failed, log)
                for future in not_done:
                    _retry_or_fail(futures[future], pool_error, attempts,
                                   max_attempts, retryable, failed, log)
                not_done = set()
        if broken:
            # Suppress the executor's shutdown error on exit.
            pool.shutdown(wait=False, cancel_futures=True)
    return retryable, failed


def _retry_or_fail(unit: WorkUnit, error: BaseException,
                   attempts: dict[str, int], max_attempts: int,
                   retryable: list[WorkUnit],
                   failed: list[tuple[WorkUnit, BaseException]],
                   log) -> None:
    if attempts[unit.unit_id] < max_attempts:
        if log is not None:
            log.info("unit-retry", unit=unit.unit_id,
                     attempts=attempts[unit.unit_id],
                     error=type(error).__name__)
        retryable.append(unit)
    else:
        failed.append((unit, error))
