"""Automated TRR reverse engineering (§6, end to end).

Given nothing but a SoftMC host, :class:`TrrInference` reproduces the
paper's experiment sequence and recovers the Table 1 observation columns:

1. **Row mapping & coupling** (§5.3) — hammer probes with refresh
   disabled.
2. **Regular refresh cycle** (Obs A8) — retention-side-channel probes of
   one profiled row (3758 vs ~8K REFs per pass).
3. **TRR-to-REF ratio** (Obs A1/B1/C1) — single-REF experiments over 16
   row groups: TRR-induced refreshes appear on a fixed REF stride.
4. **Refreshed neighbors** (Obs A2/B2/C3) — one experiment per victim
   distance (the paper's RRR-RRR layout split into two-row probes, which
   need far fewer same-retention rows).
5. **State persistence / deferral** (Obs A7/B5/C1) — hammer once, then
   watch REF-only experiments: counter tables and samplers keep
   protecting stale rows, vendor C's deferred window goes silent.
6. **Detection kind** (Obs A3/B3) — hammer A0 more but A1 last: a
   counter detects A0 (max count), a sampler detects A1 (recency).
7. **Aggressor capacity** (Obs A4/B4) — sweep the number of concurrently
   hammered groups until some group stops being protected.
8. **Per-bank state** (Obs A4/B4) — hammer aggressors in two banks and
   see whether the first bank's protection survives the second's.

Every step consumes only read-back data and the host's REF counter.

The sequence is fixed; a caller chooses only its effort.
:class:`InferenceConfig` holds the eight effort knobs and one
``hardened`` switch for the resilience pipeline, whose settings are the
``HARDENED_*`` constants.  The rest of the experiment setup (banks,
data pattern, hammer counts, scan bounds) is module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..dram.commands import HammerMode
from ..dram.patterns import AllOnes
from ..errors import ExperimentError, ProfilingError, TransientFaultError
from ..obs.evidence import ev_error, ev_refs, ev_value
from ..softmc import SoftMCHost
from .mapping_re import CouplingTopology, MappingDiscovery, \
    discover_row_mapping
from .refclassifier import RefreshCalibrator, RefreshSchedule
from .resilience import PipelineStats
from .rowgroup import RowGroup, RowGroupLayout
from .rowscout import ProfilingConfig, RowScout
from .trranalyzer import (AggressorHammer, ExperimentConfig,
                          ExperimentResult, TrrAnalyzer)


#: Bank the §6 experiments profile, and the second bank the per-bank
#: probe hammers.
BANK = 0
SECOND_BANK = 1
#: Data pattern every profiled row holds.
PATTERN = AllOnes()
#: Row Scout's first retention guess and its escalation ceiling (ms).
INITIAL_T_MS = 100.0
MAX_T_MS = 8000.0
#: Aggressor hammers per §6 experiment (the detection-kind and
#: counter-reset probes hammer multiples of it).
HAMMER_COUNT = 5000
#: Mapping discovery (§5.3): probe rows, and hammers per probe.
MAPPING_PROBE_COUNT = 10
MAPPING_HAMMER_COUNT = 2_400_000
#: Row groups the TRR-to-REF stride scan profiles.
PERIOD_SCAN_GROUPS = 16
#: Largest TRR-to-REF stride the scan accepts; fitted to Table 1's
#: eight TRR variants (periods 2 to 17).
MAX_TRR_PERIOD = 24

# -- what ``InferenceConfig.hardened`` switches on ---------------------------
#: Majority-vote repetitions per stateless experiment.
HARDENED_VOTES = 3
#: Row Scout re-probes of an inconsistent validation round.
HARDENED_ROUND_RETRIES = 2
#: Full Fig. 6 escalations before profiling gives up.
HARDENED_SCAN_ATTEMPTS = 3
#: Recalibrate a row's refresh phase after this many
#: flipped-despite-covering-REF surprises.
HARDENED_RECALIBRATE_AFTER = 2


@dataclass(frozen=True)
class InferenceConfig:
    """Effort knobs for a full reverse-engineering run."""

    #: RS write/wait/read validation rounds.  VRT rows that slip through
    #: validation corrupt calibration, so this should stay high (the
    #: paper uses 1000).
    validation_rounds: int = 40
    #: Single-REF experiment budget for the TRR-to-REF stride scan (the
    #: scan stops early once enough hits are collected).
    period_scan_experiments: int = 140
    neighbor_distances: tuple[int, ...] = (1, 2, 3)
    neighbor_repeats: int = 3
    persistence_probes: int = 4
    kind_repeats: int = 5
    capacity_candidates: tuple[int, ...] = (4, 16, 17)
    capacity_repeats: int = 3
    #: The resilience pipeline (the ``HARDENED_*`` constants): majority
    #: votes, validation-round and whole-scan retries, schedule
    #: recalibration, hit verification, and failed stages degraded to
    #: defaults tagged with confidence 0.0 instead of raising.
    hardened: bool = False


#: Reduced-effort settings shared by Table 1, the chaos harness and the
#: traced smoke run.  Few validation rounds are only safe on VRT-free
#: (or hardened) runs; see EXPERIMENTS.md.
REDUCED_INFERENCE = InferenceConfig(
    validation_rounds=4,
    period_scan_experiments=120,
    neighbor_distances=(1, 2),
    neighbor_repeats=2,
    persistence_probes=2,
    kind_repeats=3,
    capacity_candidates=(16, 17),
    capacity_repeats=2,
)

#: :data:`REDUCED_INFERENCE` with the resilience pipeline switched on
#: (the chaos harness's default).
HARDENED_INFERENCE = replace(REDUCED_INFERENCE, hardened=True)


@dataclass
class InferredTrrProfile:
    """Everything a full run recovers (the Table 1 observation columns)."""

    mapping_scheme: str
    coupling: CouplingTopology
    regular_refresh_cycle: int
    trr_ref_period: int | None
    detection: str                      #: "counter" | "sampling" | "window"
    neighbor_distances_refreshed: tuple[int, ...]
    neighbors_refreshed: int
    persists_without_activity: bool
    aggressor_capacity: int | str | None
    per_bank: bool | None
    #: Victims get refreshed with ZERO REF commands issued: an ACT-coupled
    #: mitigation (PARA-like) rather than a REF-piggybacked TRR.
    ref_independent: bool = False
    details: dict = field(default_factory=dict)
    #: Stage name -> confidence in that stage's answer (1.0 = the stage
    #: completed normally; 0.0 = it failed and the value is a default).
    confidence: dict = field(default_factory=dict)
    #: True when at least one stage degraded to a default value.
    partial: bool = False

    def summary(self) -> str:
        """One Table 1-style line."""
        if self.ref_independent:
            line = (f"detection={self.detection} (ACT-coupled, "
                    f"REF-independent) "
                    f"refresh_cycle={self.regular_refresh_cycle} "
                    f"mapping={self.mapping_scheme} "
                    f"coupling={self.coupling.value}")
        else:
            ratio = (f"1/{self.trr_ref_period}" if self.trr_ref_period
                     else "none")
            capacity = self.aggressor_capacity
            line = (f"detection={self.detection} ratio={ratio} "
                    f"neighbors={self.neighbors_refreshed} "
                    f"capacity={capacity} per_bank={self.per_bank} "
                    f"refresh_cycle={self.regular_refresh_cycle} "
                    f"mapping={self.mapping_scheme} "
                    f"coupling={self.coupling.value}")
        return f"[partial] {line}" if self.partial else line


class TrrInference:
    """Drives the full §6 reverse-engineering sequence."""

    def __init__(self, host: SoftMCHost,
                 config: InferenceConfig | None = None) -> None:
        self._host = host
        self.config = config or InferenceConfig()
        self._obs = host.obs
        self._mapping_discovery: MappingDiscovery | None = None
        self._scout: RowScout | None = None
        self._cycle: int | None = None
        self._calibrator: RefreshCalibrator | None = None
        #: (layout notation, count, banks) -> (groups per bank, schedule).
        self._acquired: dict[tuple, tuple[list[list[RowGroup]],
                                          RefreshSchedule]] = {}
        #: Aggregated recovery-work counters for this run (the chaos
        #: harness reports them; all zero on a quiet substrate).
        self.stats = PipelineStats()

    # -- stage 0: mapping (§5.3) -------------------------------------------

    @property
    def mapping_discovery(self) -> MappingDiscovery:
        if self._mapping_discovery is None:
            with self._obs.span("inference.mapping"):
                self._mapping_discovery = discover_row_mapping(
                    self._host, BANK, hammer_count=MAPPING_HAMMER_COUNT,
                    probe_count=MAPPING_PROBE_COUNT, pattern=PATTERN)
        return self._mapping_discovery

    @property
    def scout(self) -> RowScout:
        if self._scout is None:
            self._scout = RowScout(self._host,
                                   self.mapping_discovery.mapping)
            # Aggregate the scout's recovery counters into this run's.
            self._scout.stats = self.stats.rowscout
        return self._scout

    # -- stage 1: acquire groups + calibrate their bucket ---------------------

    def _profiling_config(self, layout: str, count: int,
                          bank: int) -> ProfilingConfig:
        hardened = self.config.hardened
        return ProfilingConfig(
            bank=bank, layout=RowGroupLayout.parse(layout),
            group_count=count, pattern=PATTERN,
            initial_t_ms=INITIAL_T_MS, max_t_ms=MAX_T_MS,
            validation_rounds=self.config.validation_rounds,
            round_retries=HARDENED_ROUND_RETRIES if hardened else 0,
            scan_attempts=HARDENED_SCAN_ATTEMPTS if hardened else 1)

    def acquire(self, layout: str, count: int,
                banks: tuple[int, ...] | None = None
                ) -> tuple[list[list[RowGroup]], RefreshSchedule]:
        """Find groups (per bank) and calibrate their refresh phases."""
        banks = banks or (BANK,)
        key = (layout, count, banks)
        if key in self._acquired:
            return self._acquired[key]
        # Reuse a cached superset: its groups already share a bucket and
        # a schedule, and re-scanning risks placing new groups next to
        # rows that earlier experiments left inside the TRR state.
        for (c_layout, c_count, c_banks), value in self._acquired.items():
            if c_layout == layout and c_banks == banks and c_count >= count:
                per_bank = [groups[:count] for groups in value[0]]
                self._acquired[key] = (per_bank, value[1])
                return self._acquired[key]
        profiling_configs = [self._profiling_config(layout, count, bank)
                             for bank in banks]
        with self._obs.span("inference.acquire", layout=layout,
                            count=count):
            per_bank = self.scout.find_groups_joint(profiling_configs)
            # Earlier experiments may have left aggressors in the TRR
            # state whose neighbors overlap the freshly found groups
            # (Obs A7: table entries persist); flush before calibrating.
            self._flush_trr_state(per_bank)
            calibrator = RefreshCalibrator(self._host, PATTERN)
            # Kept for schedule repairs (HARDENED_RECALIBRATE_AFTER):
            # the most recent calibrator already protects the freshest
            # row set.
            self._calibrator = calibrator
            retention = per_bank[0][0].retention_ps
            if self._cycle is None:
                self._cycle = self._measure_cycle(calibrator, per_bank,
                                                  retention)
            rows = [(group.bank, logical)
                    for groups in per_bank for group in groups
                    for logical in group.logical_rows]
            with self._obs.span("inference.calibrate", rows=len(rows)):
                schedule = calibrator.calibrate_rows(
                    rows, retention, self._cycle,
                    drop_uncovered=self.config.hardened)
            if self.config.hardened:
                per_bank = self._repair_uncalibrated(per_bank, schedule,
                                                     profiling_configs,
                                                     calibrator, retention)
        self._acquired[key] = (per_bank, schedule)
        return self._acquired[key]

    def _repair_uncalibrated(self, per_bank: list[list[RowGroup]],
                             schedule: RefreshSchedule,
                             profiling_configs: list[ProfilingConfig],
                             calibrator: RefreshCalibrator,
                             retention: int) -> list[list[RowGroup]]:
        """Replace groups whose rows could not be phase-calibrated.

        On a drifting substrate some rows wander out of their retention
        bucket by calibration time; their survivals would stay forever
        inconclusive.  Each affected group is swapped for a freshly
        scanned same-bucket replacement (``RowScout.replace_group``) and
        the replacement's phases are calibrated into the shared
        schedule.  Groups that cannot be replaced are kept — demoted to
        the back of the list so experiments needing few groups get the
        well-calibrated ones.
        """

        def uncalibrated(group: RowGroup) -> int:
            return sum(1 for logical in group.logical_rows
                       if (group.bank, logical)
                       not in schedule.phase_windows)

        repaired: list[list[RowGroup]] = []
        for groups, config in zip(per_bank, profiling_configs):
            groups = list(groups)
            for index, group in enumerate(groups):
                if not uncalibrated(group):
                    continue
                keep = [g for g in groups if g is not group]
                try:
                    replacement = self.scout.replace_group(config, group,
                                                           keep=keep)
                except ProfilingError:
                    continue
                new_rows = [(replacement.bank, logical)
                            for logical in replacement.logical_rows]
                patch = calibrator.calibrate_rows(
                    new_rows, retention, self._cycle, drop_uncovered=True)
                schedule.confidence.update(patch.confidence)
                if all(key in patch.phase_windows for key in new_rows):
                    schedule.phase_windows.update(patch.phase_windows)
                    groups[index] = replacement
            groups.sort(key=uncalibrated)
            repaired.append(groups)
        return repaired

    def _measure_cycle(self, calibrator: RefreshCalibrator,
                       per_bank: list[list[RowGroup]],
                       retention: int) -> int:
        """Measure the regular-refresh cycle from one profiled row.

        The unhardened path uses the first group's first row, exactly as
        before.  The hardened path pre-checks that the row still decays
        (a drifted row survives everything and would measure cycle 1)
        and falls back to the other profiled rows when it does not.
        """
        first = per_bank[0][0]
        if not self.config.hardened:
            return calibrator.find_cycle(first.bank,
                                         first.logical_rows[0], retention)
        candidates = [(group.bank, logical)
                      for group in per_bank[0]
                      for logical in group.logical_rows]
        last_error: Exception | None = None
        for bank, row in candidates:
            try:
                return calibrator.find_cycle(bank, row, retention,
                                             check_decay=True)
            except TransientFaultError as exc:
                last_error = exc
        raise ExperimentError(
            "no profiled row usable for cycle measurement: "
            f"{last_error}")

    def _flush_trr_state(self, per_bank: list[list[RowGroup]]) -> None:
        """Dummy-hammer + REF bursts to evict every stale TRR entry."""
        groups = [group for groups in per_bank for group in groups]
        analyzer = TrrAnalyzer(self._host, groups, schedule=None,
                               mapping=self.mapping_discovery.mapping)
        analyzer.reset_trr_state()

    @property
    def regular_refresh_cycle(self) -> int:
        if self._cycle is None:
            # The hardened path profiles a few spare groups up front: the
            # cycle measurement spans minutes of simulated time, and on a
            # drifting substrate some candidate rows will wander out of
            # their bucket mid-measurement.
            self.acquire("R-R", 4 if self.config.hardened else 1)
        return self._cycle

    # -- helpers --------------------------------------------------------------

    def _analyzer(self, groups: list[RowGroup],
                  schedule: RefreshSchedule) -> TrrAnalyzer:
        analyzer = TrrAnalyzer(self._host, groups, schedule,
                               self.mapping_discovery.mapping,
                               stats=self.stats.analyzer)
        analyzer.verify_hits = self.config.hardened
        return analyzer

    def _run(self, analyzer: TrrAnalyzer,
             config: ExperimentConfig) -> ExperimentResult:
        """Run one experiment with the configured hardening.

        Hardened runs majority-vote stateless (``reset_state``)
        experiments over :data:`HARDENED_VOTES` runs; stateful probes
        always run once (a repetition would measure a different TRR
        state).  Afterwards any row that accumulated
        :data:`HARDENED_RECALIBRATE_AFTER` flipped-despite-covering-REF
        surprises gets its refresh phase re-measured in place — the
        drifted-schedule repair.
        """
        if self.config.hardened and config.reset_state:
            result = analyzer.run_robust(config, HARDENED_VOTES)
        else:
            result = analyzer.run(config)
        self._maybe_recalibrate(analyzer)
        return result

    def _maybe_recalibrate(self, analyzer: TrrAnalyzer) -> None:
        if (not self.config.hardened or self._calibrator is None
                or analyzer.schedule is None):
            return
        for (bank, row), count in list(analyzer.schedule_suspects.items()):
            if count < HARDENED_RECALIBRATE_AFTER:
                continue
            self._calibrator.recalibrate_row(
                analyzer.schedule, bank, row, analyzer.retention_ps)
            analyzer.schedule_suspects[(bank, row)] = 0
            self.stats.recalibrations += 1
            self._obs.metrics.inc("inference.recalibrations")

    def _center_aggressor(self, group: RowGroup,
                          count: int) -> AggressorHammer:
        """Hammer spec for the middle gap of *group*'s layout."""
        gaps = group.gap_physical_rows
        center = gaps[len(gaps) // 2]
        logical = self.mapping_discovery.mapping.to_logical(center)
        return AggressorHammer(bank=group.bank, logical_row=logical,
                               count=count)

    @staticmethod
    def _hit_groups(result: ExperimentResult,
                    groups: list[RowGroup]) -> set[int]:
        """Indices of groups with at least one TRR-attributed refresh."""
        by_row = result.by_row()
        hits = set()
        for index, group in enumerate(groups):
            for logical in group.logical_rows:
                if by_row[(group.bank, logical)].trr_refreshed:
                    hits.add(index)
                    break
        return hits

    # -- stage 1.5: REF-coupled or ACT-coupled mitigation? --------------------

    def test_ref_independence(self) -> tuple[bool, dict]:
        """Are victims protected even when NO REF command is ever issued?

        Every Table 1 TRR piggybacks on REF; a stateless ACT-coupled
        mitigation (PARA) refreshes during the hammering itself.  Hammer
        the probe aggressor hard enough that, unprotected, the victims
        must flip — with zero REFs, survival can only mean ACT-coupled
        refreshes.
        """
        (groups,), schedule = self.acquire("R-R", 2)
        analyzer = self._analyzer(groups, schedule)
        aggressor = self._center_aggressor(groups[0], HAMMER_COUNT)
        protected = 0
        trials = 3
        for _ in range(trials):
            result = self._run(analyzer, ExperimentConfig(
                aggressors=(aggressor,), refs_per_round=0,
                rounds=4, reset_state=True))
            if 0 in self._hit_groups(result, groups):
                protected += 1
        return protected == trials, {"protected": protected,
                                     "trials": trials}

    # -- stage 2: TRR-to-REF stride (Obs A1 / B1 / C1) ------------------------

    def find_trr_period(self) -> tuple[int | None, dict]:
        """Single-REF experiments over many groups: the REF indices with
        TRR-attributed survivals recur on the TRR-to-REF stride."""
        config = self.config
        (groups,), schedule = self.acquire("R-R", PERIOD_SCAN_GROUPS)
        analyzer = self._analyzer(groups, schedule)
        aggressors = tuple(self._center_aggressor(g, HAMMER_COUNT)
                           for g in groups)
        hits: list[int] = []
        for i in range(config.period_scan_experiments):
            result = analyzer.run(ExperimentConfig(
                aggressors=aggressors, hammer_mode=HammerMode.CASCADED,
                refs_per_round=1, reset_state=(i == 0), align_refs=False))
            if self._hit_groups(result, groups):
                hits.append(result.ref_indices[0])
            if len(hits) >= 5:
                break
        if len(hits) < 2:
            return None, {"hits": hits}
        # A hit can be masked (e.g. the detection landed on a row whose
        # neighbors are not profiled — an init write that slipped into a
        # detection window or sampler), leaving a gap of 2x the stride;
        # the gcd over all gaps recovers the stride as long as one
        # adjacent pair of hits survived.
        diffs = [b - a for a, b in zip(hits, hits[1:])]
        period = 0
        for diff in diffs:
            period = math.gcd(period, diff)
        if not 0 < period <= MAX_TRR_PERIOD:
            return None, {"hits": hits, "diffs": diffs}
        return period, {"hits": hits, "diffs": diffs}

    # -- stage 3: refreshed neighbors (Obs A2 / B2 / C3) ----------------------

    def find_refreshed_neighbors(self, trr_period: int) -> tuple[
            tuple[int, ...], dict]:
        """Which victim distances does a TRR-induced refresh cover?

        One two-row experiment per distance: profiled rows at exactly
        +-d from a hammered aggressor.  (Equivalent to the paper's
        RRR-RRR layout, split so each probe only needs two rows with a
        common retention time.)
        """
        config = self.config
        refreshed: list[int] = []
        sides: dict[int, set[str]] = {}
        for distance in config.neighbor_distances:
            layout = "R" + "-" * (2 * distance - 1) + "R"
            (groups,), schedule = self.acquire(layout, 1)
            group = groups[0]
            analyzer = self._analyzer(groups, schedule)
            aggressor = self._center_aggressor(group, HAMMER_COUNT)
            hit_sides: set[str] = set()
            for _ in range(config.neighbor_repeats):
                result = self._run(analyzer, ExperimentConfig(
                    aggressors=(aggressor,),
                    refs_per_round=2 * trr_period, reset_state=True))
                by_row = result.by_row()
                left, right = group.logical_rows
                if by_row[(group.bank, left)].trr_refreshed:
                    hit_sides.add("left")
                if by_row[(group.bank, right)].trr_refreshed:
                    hit_sides.add("right")
            if hit_sides:
                refreshed.append(distance)
                sides[distance] = hit_sides
        return tuple(refreshed), {"sides": sides}

    # -- stage 4: persistence / deferral (Obs A7 / B5 / C1) -------------------

    def test_state_persistence(self, trr_period: int) -> tuple[bool, dict]:
        """Does TRR keep protecting a row it detected once, without any
        further activations?

        Counter tables (TREFb walks stale entries, Obs A7) and samplers
        (Obs B5) answer yes; vendor C's deferred window clears its
        candidate after one TRR-induced refresh and goes silent.
        """
        config = self.config
        (groups,), schedule = self.acquire("R-R", 2)
        analyzer = self._analyzer(groups, schedule)
        aggressor = self._center_aggressor(groups[0], HAMMER_COUNT)
        # Prime: one hammered experiment that must show a TRR refresh.
        # On a noisy substrate one priming attempt can be spoiled by a
        # dropped init write or a transient read; retry before giving up.
        refs = 2 * 16 * trr_period + 2
        prime_attempts = 3 if config.hardened else 1
        for _ in range(prime_attempts):
            primed = analyzer.run(ExperimentConfig(
                aggressors=(aggressor,), refs_per_round=refs,
                reset_state=True))
            if 0 in self._hit_groups(primed, groups):
                break
        else:
            raise ExperimentError(
                "persistence probe could not prime a TRR-induced refresh")
        # Watch: REF-only experiments, no hammering, no reset.
        watch_hits = 0
        for _ in range(config.persistence_probes):
            result = analyzer.run(ExperimentConfig(
                aggressors=(), refs_per_round=refs, reset_state=False))
            if 0 in self._hit_groups(result, groups):
                watch_hits += 1
        return watch_hits > 0, {"watch_hits": watch_hits,
                                "probes": config.persistence_probes}

    # -- stage 5: detection kind (Obs A3 / B3) --------------------------------

    def classify_detection(self, trr_period: int,
                           persists: bool) -> tuple[str, dict]:
        """Counter vs sampling vs window.

        Hammer A0 heavily *first*, A1 lightly *last* (§6.2.2's H0=5K /
        H1=3K experiment): a sampler protects only A1's victims
        (recency), while both a counter (max count) and a window (early
        bias) protect A0's.  Recency evidence therefore identifies a
        sampler on its own; the remaining counter-vs-window split falls
        to the persistence result.

        Recency takes precedence over a negative persistence result
        because the persistence watch probes can be poisoned on sampler
        chips: a probe's own row-initialization ACTs are themselves
        sampled (with probability ~acts/period per probe) and displace
        the primed sample for every later probe.
        """
        config = self.config
        (groups,), schedule = self.acquire("R-R", 2)
        analyzer = self._analyzer(groups, schedule)
        first = self._center_aggressor(groups[0], 5 * HAMMER_COUNT)
        last = self._center_aggressor(groups[1], 3 * HAMMER_COUNT)
        hits = {0: 0, 1: 0}
        for _ in range(config.kind_repeats):
            result = self._run(analyzer, ExperimentConfig(
                aggressors=(first, last), hammer_mode=HammerMode.CASCADED,
                refs_per_round=2 * trr_period, reset_state=True))
            for index in self._hit_groups(result, groups):
                hits[index] += 1
        detail = {"first_heavy_hits": hits[0], "last_light_hits": hits[1]}
        if hits[0] == 0 and hits[1] > 0:
            return "sampling", detail
        if hits[0] > 0:
            return ("counter" if persists else "window"), detail
        raise ExperimentError(
            f"detection classification saw no TRR refreshes: {detail}")

    # -- stage 6: aggressor capacity (Obs A4 / B4) ----------------------------

    def estimate_capacity(self, trr_period: int,
                          detection: str) -> tuple[int | str | None, dict]:
        """How many concurrent aggressors does the mechanism track?"""
        config = self.config
        if detection == "window":
            # The paper leaves vendor C's capacity "Unknown": the window
            # mechanism has no stable per-aggressor state to count.
            return None, {"reason": "deferred-window mechanism"}
        if detection == "sampling":
            # Obs B4: confirmed by the persistence+kind experiments — a
            # newly sampled row always evicts the previous one.
            return 1, {"reason": "single sample slot (recency eviction)"}
        detail = {}
        capacity: int | str | None = None
        for n in config.capacity_candidates:
            (groups,), schedule = self.acquire("R-R", n)
            analyzer = self._analyzer(groups, schedule)
            aggressors = tuple(
                self._center_aggressor(g, HAMMER_COUNT)
                for g in groups)
            refs = 2 * trr_period * max(n, 17)
            protected: set[int] = set()
            for _ in range(config.capacity_repeats):
                result = self._run(analyzer, ExperimentConfig(
                    aggressors=aggressors,
                    hammer_mode=HammerMode.CASCADED,
                    refs_per_round=refs, reset_state=True))
                protected |= self._hit_groups(result, groups)
            detail[n] = sorted(protected)
            if len(protected) == n:
                capacity = n
            else:
                return capacity, detail
        return f">={capacity}", detail

    # -- extensions: deeper probes of §6 details ------------------------------

    def test_eviction_policy(self) -> tuple[str, dict]:
        """Obs A5, strengthened: min-counter vs FIFO eviction.

        The paper's experiment (one light aggressor hammered *first*,
        then 16 heavier ones) cannot tell evict-min from FIFO apart —
        the first-inserted row is also the minimum.  The discriminating
        probe inverts it: insert one HEAVY aggressor first, then 16
        light ones.  Under evict-min the heavy entry survives (the
        lights churn among themselves) and its victims get refreshed;
        under FIFO the 16 younger inserts push the heavy entry out.
        """
        config = self.config
        (groups,), schedule = self.acquire("R-R", 17)
        analyzer = self._analyzer(groups, schedule)
        heavy_first = (
            self._center_aggressor(groups[0], 8 * HAMMER_COUNT),
            *(self._center_aggressor(g, 100) for g in groups[1:]))
        light_first = (
            self._center_aggressor(groups[0], 50),
            *(self._center_aggressor(g, 100) for g in groups[1:]))
        refs = 2 * 16 * 9 + 2  # enough TREFa/TREFb for any table order

        def heavy_group_hit(aggressors) -> bool:
            for _ in range(config.kind_repeats):
                result = self._run(analyzer, ExperimentConfig(
                    aggressors=aggressors,
                    hammer_mode=HammerMode.CASCADED,
                    refs_per_round=refs, reset_state=True))
                if 0 in self._hit_groups(result, groups):
                    return True
            return False

        survives_as_max = heavy_group_hit(heavy_first)
        # Sanity replication of the paper's probe: the light-and-first
        # row must never be protected under either policy.
        light_survives = heavy_group_hit(light_first)
        detail = {"heavy_first_protected": survives_as_max,
                  "light_first_protected": light_survives}
        if light_survives:
            return "inconclusive", detail
        return ("min-counter" if survives_as_max else "fifo"), detail

    def test_counter_reset(self, trr_period: int) -> tuple[bool, dict]:
        """Obs A6: does detection reset the detected counter?

        Insert one aggressor with a large count, then run REF-only
        experiments.  With reset-on-detect, the first max-detection
        (TREFa) zeroes the counter and only the periodic table walk
        (TREFb) ever returns to it — a hit every ~16 TRR-capable REFs.
        Without a reset its counter would stay the table maximum and
        *every other* capable REF (each TREFa) would hit.
        """
        (groups,), schedule = self.acquire("R-R", 2)
        analyzer = self._analyzer(groups, schedule)
        aggressor = self._center_aggressor(groups[0], 3 * HAMMER_COUNT)
        primed = analyzer.run(ExperimentConfig(
            aggressors=(aggressor,), refs_per_round=2 * trr_period,
            reset_state=True))
        if 0 not in self._hit_groups(primed, groups):
            raise ExperimentError("counter-reset probe failed to prime")
        hits = 0
        probes = 12
        for _ in range(probes):
            result = analyzer.run(ExperimentConfig(
                aggressors=(), refs_per_round=trr_period,
                reset_state=False))
            if 0 in self._hit_groups(result, groups):
                hits += 1
        detail = {"ref_only_hits": hits, "probes": probes}
        # Reset: ~1 hit per 16 capable REFs (TREFb walk only).
        # No reset: ~every second capable REF (every TREFa) hits.
        return hits <= probes // 3, detail

    def measure_sample_period(self, trr_period: int,
                              max_period: int = 4096,
                              trials: int = 16) -> tuple[int, dict]:
        """Extension of Obs B3: estimate the sampler's ACT period.

        The paper bounds it ("~2K consecutive activations consistently
        cause detection") without measuring it.  Against an every-Nth-ACT
        sampler, hammering the probe aggressor k times gets its victims
        TRR-refreshed iff a sample point falls within those k ACTs:
        always when k >= period, with probability ~k/period below it.
        Each probe prepends a different-length far-dummy spacer so the
        phases the hammer lands on vary; the smallest k that hits on all
        *trials* probes estimates the period (upward-biased by at most
        ~period/trials, noted in the detail dict).
        """
        (groups,), schedule = self.acquire("R-R", 2)
        analyzer = self._analyzer(groups, schedule)
        probe = self._center_aggressor(groups[0], 0)

        def always_hits(k: int) -> bool:
            for trial in range(trials):
                # Low-discrepancy phase jitter spanning the whole
                # candidate range (the spacer shifts the sampler's phase
                # by its own activation count).
                spacer = 1 + (trial * 2654435761) % max_period
                result = analyzer.run(ExperimentConfig(
                    aggressors=(AggressorHammer(
                        bank=probe.bank, logical_row=probe.logical_row,
                        count=k),),
                    hammer_mode=HammerMode.CASCADED,
                    refs_per_round=trr_period,
                    reset_state=True,
                    dummy_row_count=1,
                    dummy_hammers=spacer,
                    dummies_first=True))
                if 0 not in self._hit_groups(result, groups):
                    return False
            return True

        if not always_hits(max_period):
            raise ExperimentError(
                f"no consistent detection within {max_period} ACTs — "
                "sampler with a longer period, or not a sampler?")
        low, high = 1, max_period
        while low < high:
            mid = (low + high) // 2
            if always_hits(mid):
                high = mid
            else:
                low = mid + 1
        return low, {"trials_per_probe": trials,
                     "relative_bias_bound": 1.0 / trials}

    def measure_detection_horizon(self, trr_period: int,
                                  max_horizon: int = 4096,
                                  trials: int = 6) -> tuple[int, dict]:
        """Extension of Obs C2: how long a dummy burst silences later rows.

        Burst b dummy activations right after a TRR-induced refresh,
        then hammer the probe aggressor heavily: the smallest burst
        after which the aggressor is never detected (over *trials*
        probabilistic trials) is the attacker-relevant horizon — the
        §7.1 vendor-C pattern must lead every window with at least this
        many dummy activations.  (A lower bound on the detection-window
        size; the early-position bias makes late-window detection rare
        well before the window's hard edge.)
        """
        (groups,), schedule = self.acquire("R-R", 2)
        analyzer = self._analyzer(groups, schedule)
        aggressor = self._center_aggressor(groups[0], 3000)

        def ever_hits(burst: int) -> bool:
            for _ in range(trials):
                result = analyzer.run(ExperimentConfig(
                    aggressors=(aggressor,),
                    hammer_mode=HammerMode.CASCADED,
                    refs_per_round=2 * trr_period,
                    reset_state=True,
                    dummy_row_count=4,
                    dummy_hammers=max(burst // 4, 1),
                    dummies_first=True))
                if 0 in self._hit_groups(result, groups):
                    return True
            return False

        if ever_hits(max_horizon):
            raise ExperimentError(
                f"aggressor still detected after a {max_horizon}-ACT "
                "dummy burst — no bounded detection window?")
        low, high = 1, max_horizon
        while low < high:
            mid = (low + high) // 2
            if ever_hits(mid):
                low = mid + 1
            else:
                high = mid
        return low, {"trials_per_probe": trials, "kind": "lower-bound"}

    # -- stage 7: per-bank state (Obs A4 / B4) --------------------------------

    def test_per_bank(self, trr_period: int) -> tuple[bool, dict]:
        """Hammer bank A then bank B: shared state forgets bank A."""
        config = self.config
        per_bank_groups, schedule = self.acquire("R-R", 1,
                                                 (BANK, SECOND_BANK))
        groups = [per_bank_groups[0][0], per_bank_groups[1][0]]
        analyzer = self._analyzer(groups, schedule)
        first = self._center_aggressor(groups[0], HAMMER_COUNT)
        second = self._center_aggressor(groups[1], HAMMER_COUNT)
        first_hits = 0
        second_hits = 0
        for _ in range(config.kind_repeats):
            result = self._run(analyzer, ExperimentConfig(
                aggressors=(first, second),
                hammer_mode=HammerMode.CASCADED,
                refs_per_round=4 * trr_period, reset_state=True))
            hits = self._hit_groups(result, groups)
            first_hits += 1 if 0 in hits else 0
            second_hits += 1 if 1 in hits else 0
        detail = {"first_bank_hits": first_hits,
                  "second_bank_hits": second_hits}
        if second_hits == 0:
            raise ExperimentError(
                f"per-bank probe saw no TRR activity at all: {detail}")
        return first_hits > 0, detail

    # -- the full run ---------------------------------------------------------

    @staticmethod
    def _stage_evidence(detail) -> list[dict]:
        """Evidence chain for one completed stage's detail payload.

        REF-index lists get the trace-resolvable ``ref-indices`` shape;
        everything else rides along as a labelled observation so no
        stage ever concludes with an empty chain.
        """
        chain: list[dict] = []
        if isinstance(detail, dict):
            hits = detail.get("hits")
            if isinstance(hits, (list, tuple)):
                chain.append(ev_refs(hits, label="trr-hit-refs"))
            rest = {key: value for key, value in detail.items()
                    if key != "hits"}
            if rest or not chain:
                chain.append(ev_value("observations", rest))
        else:
            chain.append(ev_value("observations", detail))
        return chain

    def _stage(self, name: str, func, default, confidence: dict):
        """Run one inference stage, degrading gracefully when configured.

        On a hardened run a stage that raises an experiment or
        profiling error contributes its *default* value tagged with
        confidence 0.0 instead of aborting the run; the caller marks the
        assembled profile ``partial``.  Otherwise the exception
        propagates unchanged.

        Either way the stage's verdict lands in the evidence ledger: an
        ``accepted`` node linking the observations that justified the
        value, or a ``degraded`` node citing the error that forced the
        default.
        """
        try:
            with self._obs.span("inference." + name):
                value, detail = func()
        except (ExperimentError, ProfilingError,
                TransientFaultError) as exc:
            if not self.config.hardened:
                raise
            self.stats.degraded_stages += 1
            self._obs.metrics.inc("inference.degraded_stages")
            self._obs.event("stage-degraded", ps=self._host.now_ps,
                            stage=name, error=type(exc).__name__)
            confidence[name] = 0.0
            detail = {"degraded": type(exc).__name__, "error": str(exc)}
            self._obs.evidence.decide(
                name, default, outcome="degraded",
                stage="inference." + name, confidence=0.0,
                evidence=[ev_error(exc)], detail=detail,
                host=self._host)
            return default, detail
        confidence[name] = 1.0
        self._obs.evidence.decide(
            name, value, stage="inference." + name, confidence=1.0,
            evidence=self._stage_evidence(detail),
            host=self._host)
        return value, detail

    def run(self) -> InferredTrrProfile:
        """Execute every stage and assemble the Table 1 observations.

        Mapping discovery and the refresh-cycle measurement are
        foundational — every later stage needs them — so they always
        propagate failures.  On a hardened run the observation stages
        degrade to tagged defaults.
        """
        with self._obs.span("inference.run", bank=BANK):
            return self._run_stages()

    def _run_stages(self) -> InferredTrrProfile:
        discovery = self.mapping_discovery
        cycle = self.regular_refresh_cycle
        confidence: dict = {}
        ref_independent, ref_detail = self._stage(
            "ref_independence", self.test_ref_independence, False,
            confidence)
        if ref_independent:
            return InferredTrrProfile(
                mapping_scheme=discovery.scheme,
                coupling=discovery.coupling,
                regular_refresh_cycle=cycle,
                trr_ref_period=None, detection="act-coupled",
                neighbor_distances_refreshed=(),
                neighbors_refreshed=0,
                persists_without_activity=False,
                aggressor_capacity=None, per_bank=None,
                ref_independent=True,
                details={"ref_independence": ref_detail},
                confidence=confidence)
        period, period_detail = self._stage(
            "period", self.find_trr_period, None, confidence)
        if period is None:
            return InferredTrrProfile(
                mapping_scheme=discovery.scheme,
                coupling=discovery.coupling,
                regular_refresh_cycle=cycle,
                trr_ref_period=None, detection="none",
                neighbor_distances_refreshed=(),
                neighbors_refreshed=0,
                persists_without_activity=False,
                aggressor_capacity=None, per_bank=None,
                details={"period": period_detail},
                confidence=confidence,
                partial=self.stats.degraded_stages > 0)
        distances, neighbor_detail = self._stage(
            "neighbors", lambda: self.find_refreshed_neighbors(period),
            (), confidence)
        persists, persist_detail = self._stage(
            "persistence", lambda: self.test_state_persistence(period),
            False, confidence)
        detection, kind_detail = self._stage(
            "detection", lambda: self.classify_detection(period, persists),
            "unknown", confidence)
        if detection == "sampling" and not persists:
            # The watch probes' own init ACTs were sampled and displaced
            # the primed sample (see classify_detection); recency
            # evidence shows the sampler persists (Obs B5).
            persists = True
            persist_detail["note"] = ("corrected: watch probes poisoned "
                                      "by their own sampled init ACTs")
            self._obs.evidence.decide(
                "persistence", True, stage="inference.detection",
                confidence=1.0,
                evidence=[ev_value("recency", kind_detail)],
                detail={"note": persist_detail["note"]},
                host=self._host)
        capacity, capacity_detail = self._stage(
            "capacity", lambda: self.estimate_capacity(period, detection),
            None, confidence)
        per_bank, bank_detail = self._stage(
            "per_bank", lambda: self.test_per_bank(period), None,
            confidence)
        if discovery.coupling is CouplingTopology.PAIRED:
            neighbors = 1 if distances else 0
        else:
            neighbors = 2 * len(distances)
        return InferredTrrProfile(
            mapping_scheme=discovery.scheme,
            coupling=discovery.coupling,
            regular_refresh_cycle=cycle,
            trr_ref_period=period,
            detection=detection,
            neighbor_distances_refreshed=distances,
            neighbors_refreshed=neighbors,
            persists_without_activity=persists,
            aggressor_capacity=capacity,
            per_bank=per_bank,
            details={"period": period_detail,
                     "neighbors": neighbor_detail,
                     "persistence": persist_detail,
                     "kind": kind_detail,
                     "capacity": capacity_detail,
                     "per_bank": bank_detail},
            confidence=confidence,
            partial=self.stats.degraded_stages > 0)
