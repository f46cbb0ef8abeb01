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
* **Auditability** — every unit gets a :func:`repro.obs.build_manifest`
  manifest (``include_time=False``, no worker identity) so per-unit
  artifacts from a parallel run diff clean against a sequential run.
* **Complete metrics** — each work unit records into a fresh *ambient*
  per-unit :class:`~repro.obs.Observability` (reachable inside the
  unit via :func:`unit_observability`); its registry's dump rides home
  on the unit's :class:`UnitOutcome` and the engine folds every unit's
  counters and histograms into the caller's registry **in submission
  order**, so ``metrics.json`` from a ``--workers N`` run equals the
  ``--workers 1`` one.
* **Live telemetry stays off the artifact path** — a
  :class:`~repro.obs.TelemetryConfig` makes every unit publish
  ``unit-start`` / ``heartbeat`` / ``unit-done`` events (wall-clock,
  PID, counter snapshots, the open span, the unit's span timeline)
  into a spool directory; nothing telemetry-derived ever reaches a
  manifest, the metrics fold, or a rendered artifact, so enabling it
  cannot perturb byte-identity.  ``stall_deadline_s`` arms a
  coordinator-side :class:`~repro.obs.Watchdog` that flags pool units
  whose command counters stop advancing.
* **Per-unit profiling folds like metrics** — a caller-supplied
  :class:`~repro.obs.CommandProfiler` makes each unit profile its host
  command bus; dumps ride home on the outcome and fold in submission
  order.
* **Results are cacheable** — a caller-supplied
  :class:`~repro.cache.ResultCache` makes the engine consult a
  content-addressed store before dispatching each unit and publish the
  result envelope (value + metrics + spans + wall) as each unit
  completes, buying unit-level resume after a crash, in-flight dedup
  of identical units, and warm re-runs whose stdout / folded metrics /
  history rows are byte-identical to cold ones (hits replay their
  stored per-unit metrics through the same submission-order fold).
"""

from __future__ import annotations

import copy
import dataclasses
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Sequence

from ..errors import ConfigError
from ..obs import (NULL_OBS, CommandProfiler, MetricsRegistry,
                   Observability, SpanTracker, build_manifest)
from ..obs.live import (COMMAND_COUNTERS, Heartbeat, Watchdog,
                        read_spool, unit_start_fields)
from ..rng import SeedSequenceFactory

#: Root of every engine-derived seed; unit seeds depend only on the
#: unit_id, so they are stable across worker counts and runs.
ENGINE_SEEDS = SeedSequenceFactory("repro.parallel")


def unit_seed(unit_id: str) -> int:
    """Stable 64-bit seed for a work unit (independent of scheduling)."""
    return ENGINE_SEEDS.seed(unit_id)


#: The ambient per-unit observability bundle: bound while a work unit's
#: function executes (always a fresh registry the engine folds into
#: the caller's), None outside any unit.
_unit_obs: Observability | None = None


def unit_observability() -> Observability:
    """The executing work unit's ambient observability bundle.

    Unit functions call this (directly or via an ``obs=None`` fallback)
    to reach the unit's registry — and, when the run profiles, the span
    tracker and command profiler — which the engine folds into the
    caller's instruments.  Outside a unit this is
    :data:`~repro.obs.NULL_OBS`, so instrumented code never branches.
    """
    if _unit_obs is None:
        return NULL_OBS
    return _unit_obs


def default_workers() -> int:
    """Default worker count: one per CPU (the CLI default)."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class WorkUnit:
    """One shard of work: a picklable call plus its reproduction recipe.

    ``fn`` must be an importable top-level function (process pools pickle
    it by reference).  ``meta`` is merged verbatim into the unit's
    manifest — put the module id, scale name, and fault profile there.
    """

    unit_id: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return unit_seed(self.unit_id)

    def manifest(self) -> dict:
        """Per-unit run manifest — identical for any worker count."""
        return build_manifest(include_time=False, unit=self.unit_id,
                              unit_seed=self.seed, **self.meta)

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
    manifest: dict = field(default_factory=dict)
    #: Metrics the unit recorded (``as_dict`` form; None when it
    #: recorded nothing).
    metrics: dict | None = None
    #: Measured wall-clock seconds of the winning attempt.  Side
    #: channel: never part of the manifest or any rendered artifact.
    wall_s: float | None = None
    #: Per-opcode command-bus profile (``CommandProfiler.as_dict``
    #: form; only populated when the run profiles).
    profile: dict | None = None
    #: Span timeline the unit recorded (``SpanTracker.as_timeline``
    #: form; only populated when telemetry, profiling or the cache
    #: tracks spans).
    spans: list | None = None
    #: Evidence nodes the unit's provenance ledger recorded (dumped
    #: dict form; only populated when the run carries a ledger).
    evidence: list | None = None
    #: True when this outcome was served from the result cache
    #: (``attempts == 0``: the unit never executed this run).
    cached: bool = False
    #: True when this outcome was fanned out from an identical unit
    #: earlier in the same run (in-flight dedup).
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
    #: (:class:`~repro.obs.StalledUnit`); empty without a deadline.
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
        # max(…, 0): cached/coalesced outcomes carry attempts == 0.
        return sum(max(outcome.attempts - 1, 0)
                   for outcome in self.outcomes)

    @property
    def cache_hits(self) -> int:
        """Units served from the result cache without executing."""
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def deduped(self) -> int:
        """Units coalesced onto an identical in-flight unit."""
        return sum(1 for outcome in self.outcomes if outcome.coalesced)

    def manifests(self) -> list[dict]:
        """Per-unit manifests, input order — worker-count independent."""
        return [outcome.manifest for outcome in self.outcomes]

    def unit_walls(self) -> dict[str, float]:
        """Measured per-unit wall-clock seconds (side channel)."""
        return {outcome.unit_id: outcome.wall_s
                for outcome in self.outcomes
                if outcome.wall_s is not None}

    def stragglers(self, count: int = 3) -> list[UnitOutcome]:
        """The *count* slowest units, slowest first."""
        timed = [outcome for outcome in self.outcomes
                 if outcome.wall_s is not None]
        timed.sort(key=lambda outcome: -outcome.wall_s)
        return timed[:count]


def _publish(sink, kind: str, **fields) -> None:
    """Publish one telemetry event; the spool must never kill work."""
    if sink is None:
        return
    try:
        sink.publish(kind, **fields)
    except OSError:
        pass


def _done_fields(outcome: UnitOutcome, origin_ts: float) -> dict:
    """The ``unit-done`` event payload (progress + distributed spans)."""
    counters = (outcome.metrics or {}).get("counters", {})
    fields: dict = {
        "wall_s": round(outcome.wall_s or 0.0, 6),
        "commands": sum(counters.get(name, 0)
                        for name in COMMAND_COUNTERS),
    }
    if outcome.metrics:
        fields["metrics"] = outcome.metrics
    if outcome.spans:
        fields["spans"] = outcome.spans
        fields["origin_ts"] = round(origin_ts, 6)
    if outcome.profile:
        fields["profile"] = outcome.profile
    if outcome.evidence:
        from ..obs.evidence import nodes_summary
        fields["evidence"] = nodes_summary(outcome.evidence)
    if outcome.error is not None:
        fields["error"] = outcome.error
    return fields


def _execute(unit: WorkUnit, telemetry=None, profile: bool = False,
             capture: bool = False, evidence: bool = False) -> UnitOutcome:
    """Run one unit in this process; return its outcome with the dumps.

    The one per-unit executor.  It binds a fresh ambient bundle for the
    unit's duration: always a registry; a span tracker when *telemetry*,
    *profile* or *capture* (the cache's envelope) needs one; a command
    profiler with *profile*; an evidence ledger with *evidence*.  Their
    dumps and the measured wall ride on the returned outcome for the
    caller's submission-order fold.  With *telemetry* the unit also
    publishes ``unit-start`` / ``heartbeat`` / ``unit-done`` events —
    side channel only.  An exception from the unit propagates after its
    ``unit-done`` event.
    """
    global _unit_obs
    live = telemetry is not None
    registry = MetricsRegistry()
    spans = SpanTracker() if (live or profile or capture) else None
    origin_ts = time.time()
    profiler = CommandProfiler(spans=spans) if profile else None
    ledger = None
    if evidence:
        from ..obs.evidence import EvidenceLedger
        ledger = EvidenceLedger()
    sink = telemetry.sink(unit.unit_id) if live else None
    heartbeat = None
    if sink is not None:
        _publish(sink, "unit-start", **unit_start_fields())
        if telemetry.heartbeats:
            heartbeat = Heartbeat(sink, metrics=registry, spans=spans,
                                  interval_s=telemetry.interval_s).start()
    _unit_obs = Observability(
        metrics=registry,
        spans=spans if spans is not None else NULL_OBS.spans,
        profiler=profiler, evidence=ledger)
    outcome = UnitOutcome(unit_id=unit.unit_id)
    start = perf_counter()
    try:
        outcome.value = unit.run()
    except BaseException as error:
        outcome.error = f"{type(error).__name__}: {error}"
        raise
    finally:
        _unit_obs = None
        outcome.wall_s = round(perf_counter() - start, 6)
        if heartbeat is not None:
            heartbeat.stop()
        dump = registry.as_dict()
        if any(dump.values()):
            outcome.metrics = dump
        if spans is not None and spans.spans:
            outcome.spans = spans.as_timeline()
        if profiler is not None and profiler.commands:
            outcome.profile = profiler.as_dict()
        if ledger is not None and ledger.nodes:
            outcome.evidence = ledger.dump()
        if sink is not None:
            _publish(sink, "unit-done", **_done_fields(outcome, origin_ts))
    return outcome


def _call_unit(unit: WorkUnit, telemetry=None, profile: bool = False,
               capture: bool = False, evidence: bool = False
               ) -> UnitOutcome:
    """The callable the pool submits: :func:`_execute` in a worker.

    A module-level function of its own because the pool pickles it by
    qualified name, and because it is the pool side alone: the traced
    benchmark (``perfbench/tracer.py``) replaces this attribute to give
    each worker unit its own span tree, which in-process units (run
    through :func:`_execute` directly) must not get.
    """
    return _execute(unit, telemetry, profile, capture, evidence)


def run_units(units: Sequence[WorkUnit], workers: int = 1, *,
              max_attempts: int = 2, quarantine: bool = False,
              log=None, metrics=None, telemetry=None,
              profiler=None, cache=None, evidence=None) -> ParallelRun:
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

    *metrics*, when given, is a :class:`repro.obs.MetricsRegistry` that
    receives every unit's recorded metrics.  Each unit records into its
    own registry; the dumps are folded in submission order, so the
    final registry is identical for any worker count.

    *telemetry*, when given, is a :class:`repro.obs.TelemetryConfig`:
    the run publishes ``run-start`` / ``run-done`` plus per-unit
    progress events into its spool directory, strictly off the
    artifact path.  A ``stall_deadline_s`` arms a coordinator-side
    watchdog over pool units; flagged units land in
    :attr:`ParallelRun.stalled`.

    *profiler*, when given, is a :class:`repro.obs.CommandProfiler`
    that receives every unit's per-opcode command-bus attribution,
    folded in submission order exactly like metrics.

    *cache*, when given, is a :class:`repro.cache.ResultCache`: each
    unit is content-addressed by its recipe and looked up before
    dispatch.  Hits skip execution and replay their stored value,
    metrics, and spans at the unit's submission-order position, so the
    run's outputs stay byte-identical to an uncached run; misses
    execute normally and publish their envelope as they complete
    (so a killed sweep resumes unit-by-unit); identical units within
    one call execute once and fan out.  With ``cache.verify``, one hit
    per run is re-executed and diffed against its stored envelope
    (:class:`repro.errors.CacheError` on divergence).

    *evidence*, when given, is a
    :class:`repro.obs.evidence.EvidenceLedger` that receives every
    unit's provenance nodes, folded in submission order (each node
    stamped with its unit id at fold time) exactly like metrics — the
    merged ledger is identical for any worker count, and cache hits
    replay their stored nodes.
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if max_attempts < 1:
        raise ConfigError("max_attempts must be >= 1")
    unit_ids = [unit.unit_id for unit in units]
    if len(set(unit_ids)) != len(unit_ids):
        raise ConfigError("work unit ids must be unique")
    if metrics is not None and not metrics.enabled:
        metrics = None
    if profiler is not None and not profiler.enabled:
        profiler = None
    if evidence is not None and not evidence.enabled:
        evidence = None
    coordinator = telemetry.sink(None) if telemetry is not None else None
    if coordinator is not None:
        _publish(coordinator, "run-start", units_total=len(units),
                 workers=workers)
    options = dict(telemetry=telemetry, profile=profiler is not None,
                   capture=cache is not None,
                   evidence=evidence is not None)

    def execute(batch, on_result=None) -> ParallelRun:
        return _run(batch, workers, max_attempts=max_attempts,
                    quarantine=quarantine, log=log, options=options,
                    coordinator=coordinator, on_result=on_result)

    if cache is None:
        run = execute(units)
    else:
        run = _run_cached(units, cache, execute, log=log,
                          telemetry=telemetry)
    # The one fold: every unit, submission order, cache hits included.
    for outcome in run.outcomes:
        if metrics is not None and outcome.metrics:
            metrics.merge(outcome.metrics)
        if profiler is not None and outcome.profile:
            profiler.merge(outcome.profile)
        if evidence is not None and outcome.evidence:
            evidence.merge(outcome.evidence, unit=outcome.unit_id)
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
         quarantine: bool, log, options: dict, coordinator=None,
         on_result=None) -> ParallelRun:
    """Run *units* through the executor: one failure policy for any
    worker count.  *on_result* sees each unit as it completes."""
    attempts = {unit.unit_id: 0 for unit in units}
    slots: dict[str, UnitOutcome] = {}
    stalled: list = []

    def finish(unit: WorkUnit, outcome: UnitOutcome) -> None:
        outcome.attempts = attempts[unit.unit_id]
        outcome.manifest = unit.manifest()
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
                                            max_attempts, log, options)
        else:
            pending, failed = _drain_pool(pending, min(workers, len(units)),
                                          attempts, finish, max_attempts,
                                          log, options,
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
                quarantined=True, error=f"{type(error).__name__}: {error}",
                manifest=unit.manifest())
    outcomes = [slots[unit.unit_id] for unit in units]
    return ParallelRun(outcomes=outcomes, workers=workers,
                       stalled=stalled)


def _drain_inline(pending: list[WorkUnit], attempts: dict[str, int],
                  finish, max_attempts: int, log, options: dict):
    """Run *pending* in this process, in order, until a unit fails.

    Returns ``(pending, failed)`` like :func:`_drain_pool`: a unit that
    raises is retried at once while it has attempts left; one that
    exhausts them comes back failed, with the units after it still
    pending, so the caller raises or quarantines it before they run.
    """
    for index, unit in enumerate(pending):
        attempts[unit.unit_id] += 1
        try:
            outcome = _execute(unit, **options)
        except Exception as error:
            retryable: list[WorkUnit] = []
            failed: list[tuple[WorkUnit, BaseException]] = []
            _retry_or_fail(unit, error, attempts, max_attempts,
                           retryable, failed, log)
            return retryable + pending[index + 1:], failed
        finish(unit, outcome)
    return [], []


def _run_cached(units: Sequence[WorkUnit], cache, execute, *, log=None,
                telemetry=None) -> ParallelRun:
    """Cache-backed execution: plan, run the misses, replay in order.

    1. **Plan**, in submission order: **hits** (stored envelope found),
       **followers** (a unit with the identical execution recipe — same
       callable, arguments, and code revision; only its id/meta differ
       — appeared earlier this run) and **misses** (everything else,
       uncachable units included).
    2. **Run** the misses through *execute*, the runner uncached runs
       use, publishing each envelope as its unit completes (a killed
       sweep therefore resumes unit-by-unit).
    3. **Replay** every unit's outcome in submission order: misses as
       they ran, hits from their stored envelopes, followers fanned out
       from their leader.  The caller folds these like any run's
       outcomes, which keeps a warm run's folded registry
       byte-identical to a cold one.
    """
    keymap: dict[str, str] = {}
    matmap: dict[str, dict] = {}
    first_by_recipe: dict[str, str] = {}
    hits: dict[str, Any] = {}
    followers: dict[str, str] = {}
    misses: list[WorkUnit] = []
    for unit in units:
        keyed = cache.keyed(unit)
        if keyed is None:
            # Uncachable recipe: always execute, never publish.
            misses.append(unit)
            continue
        key, material = keyed
        keymap[unit.unit_id] = key
        matmap[unit.unit_id] = material
        # Dedup keys on the execution recipe (unit id / seed / meta
        # dropped — the callable never sees them), because run_units
        # already rejects duplicate unit ids: identical work under two
        # ids is the only duplicate shape that can reach this loop.
        recipe = cache.recipe_key(material)
        if recipe in first_by_recipe:
            followers[unit.unit_id] = first_by_recipe[recipe]
            cache.note_dedup()
            continue
        first_by_recipe[recipe] = unit.unit_id
        envelope = cache.lookup(key)
        if envelope is not None:
            hits[unit.unit_id] = envelope
        else:
            misses.append(unit)

    def publish_outcome(unit: WorkUnit, outcome: UnitOutcome) -> None:
        key = keymap.get(unit.unit_id)
        if key is None or not outcome.ok:
            return
        cache.publish_unit(key, matmap[unit.unit_id], unit.unit_id,
                           value=outcome.value,
                           metrics=outcome.metrics,
                           spans=outcome.spans,
                           wall_s=outcome.wall_s,
                           profile=outcome.profile,
                           evidence=outcome.evidence)

    # 100% warm (or empty): nothing to run, so no pool is ever spawned.
    executed = execute(misses, on_result=publish_outcome)
    ran = {outcome.unit_id: outcome for outcome in executed.outcomes}

    done: dict[str, UnitOutcome] = {}
    for unit in units:
        uid = unit.unit_id
        if uid in ran:
            done[uid] = ran[uid]
            continue
        if uid in hits:
            envelope = hits[uid]
            outcome = UnitOutcome(
                unit_id=uid, value=envelope.value, attempts=0,
                manifest=unit.manifest(), metrics=envelope.metrics,
                spans=envelope.spans, wall_s=envelope.wall_s,
                profile=envelope.profile, evidence=envelope.evidence,
                cached=True)
            if log is not None:
                log.info("unit-cached", unit=uid, key=keymap[uid][:12])
        else:
            # Follower: fan out the first identical unit's outcome
            # (deep-copied so callers mutating one result cannot
            # alias the other, matching independent execution).  Its
            # store key differs from its leader's (the unit id is part
            # of it), so publish it too: the next warm run then hits
            # under either id.
            leader = done[followers[uid]]
            outcome = dataclasses.replace(
                leader, unit_id=uid, value=copy.deepcopy(leader.value),
                attempts=0, manifest=unit.manifest(), coalesced=True)
            publish_outcome(unit, outcome)
            if log is not None:
                log.info("unit-coalesced", unit=uid,
                         leader=followers[uid])
        _replay_unit_events(telemetry, outcome)
        done[uid] = outcome
    if getattr(cache, "verify", False) and hits:
        _verify_sampled_hit(cache, hits, units, keymap, log)
    return ParallelRun(outcomes=[done[unit.unit_id] for unit in units],
                       workers=executed.workers, stalled=executed.stalled)


def _replay_unit_events(telemetry, outcome: UnitOutcome) -> None:
    """Publish start/done telemetry for a unit that never executed, so
    live progress and the distributed timeline count cached and
    coalesced units as completed (flagged ``cached``/``coalesced``)."""
    if telemetry is None:
        return
    sink = telemetry.sink(outcome.unit_id)
    _publish(sink, "unit-start", **unit_start_fields())
    fields = _done_fields(outcome, time.time())
    fields["cached"] = True
    if outcome.coalesced:
        fields["coalesced"] = True
    _publish(sink, "unit-done", **fields)


def _verify_sampled_hit(cache, hits: dict, units: Sequence[WorkUnit],
                        keymap: dict, log) -> None:
    """Re-execute one deterministically sampled hit and diff it against
    the stored envelope (``--cache-verify``).

    The sample is the hit with the smallest key, so two verify runs of
    the same sweep check the same unit.  The re-execution runs through
    the executor with its own detached registry — nothing it records
    can reach the caller's fold.
    """
    uid = min(hits, key=lambda unit_id: keymap[unit_id])
    unit = next(unit for unit in units if unit.unit_id == uid)
    fresh = _execute(unit)
    cache.check_hit(hits[uid], fresh.value, fresh.metrics)
    if log is not None:
        log.info("cache-verify", unit=uid, key=keymap[uid][:12])


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
                options: dict, coordinator=None,
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
    telemetry = options["telemetry"]
    if telemetry is not None and telemetry.stall_deadline_s:
        watchdog = Watchdog(telemetry.stall_deadline_s)
        # Poll at half the deadline so a stall is flagged at most one
        # scan late; the wait() below otherwise blocks indefinitely.
        wait_timeout = max(telemetry.stall_deadline_s / 2, 0.05)
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        futures = {}
        for unit in pending:
            attempts[unit.unit_id] += 1
            futures[pool.submit(_call_unit, unit, **options)] = unit
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
