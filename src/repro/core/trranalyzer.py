"""TRR Analyzer (TRR-A): the Fig. 7 experiment engine (§5).

One experiment follows the paper's three steps:

1. **Initialize** the RS-provided victim rows with their profiling
   pattern and the aggressor rows with the configured aggressor data;
   optionally flush the TRR mechanism's internal state by hammering many
   far-away dummy rows across several refresh bursts (Requirement 4).
2. Wait half the victims' retention time, then run the configured
   **hammer rounds** — each round hammers the aggressors (and optionally
   dummy rows) in interleaved or cascaded order and ends with a
   configurable number of REF commands (Requirements 1-3).
3. Wait the remaining half and **read the victims back**.  A victim with
   no bit flips was refreshed during step 2 — by a regular refresh if one
   of the issued REF indices falls into the row's calibrated phase
   window, otherwise by a **TRR-induced refresh**.

The analyzer never touches the chip beyond the SoftMC host interface.

Hardening against a noisy substrate
-----------------------------------
:meth:`TrrAnalyzer.run_robust` repeats an experiment and majority-votes
every row observation, rejecting round-level outliers (transient read
noise, a dropped init write).  Groups whose flip behaviour is split
across the votes are automatically re-validated against their retention
bucket; a failed re-validation marks the group unstable so the caller
can replace it (``RowScout.replace_group``).  Rows that decay although
a schedule-covering REF was issued are tracked as *schedule suspects* —
the recalibration trigger for a drifted refresh-phase calibration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..dram.commands import HammerMode
from ..dram.mapping import DirectMapping, RowMapping
from ..dram.patterns import AllZeros, DataPattern
from ..errors import ConfigError
from ..obs.evidence import ev_refs, ev_rows, ev_value
from ..softmc import SoftMCHost
from .refclassifier import RefreshSchedule
from .resilience import AnalyzerStats
from .rowgroup import RowGroup


@dataclass(frozen=True)
class AggressorHammer:
    """One aggressor row and its per-round hammer count (Requirement 1)."""

    bank: int
    logical_row: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigError("hammer count must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one TRR-A experiment (Fig. 7's experiment configuration)."""

    aggressors: tuple[AggressorHammer, ...] = ()
    hammer_mode: HammerMode = HammerMode.CASCADED
    aggressor_pattern: DataPattern = field(default_factory=AllZeros)
    init_aggressors: bool = True
    reset_state: bool = True          #: Requirement 4
    rounds: int = 1
    refs_per_round: int = 1           #: Requirement 3
    dummy_row_count: int = 0          #: Requirement 2
    dummy_hammers: int = 0
    #: Hammer dummies before the aggressors within each round (the
    #: vendor-C pattern ordering) instead of after (vendor A/B).
    dummies_first: bool = False
    #: Burn REFs before the vulnerable window so the experiment's REF
    #: indices avoid every victim's regular-refresh phase — making all
    #: survivals attributable to TRR.  Disable for experiments that need
    #: consecutive REF indices (e.g. the TRR-period scan).
    align_refs: bool = True

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.refs_per_round < 0:
            raise ConfigError("refs_per_round must be >= 0")
        if self.dummy_row_count < 0 or self.dummy_hammers < 0:
            raise ConfigError("dummy configuration must be non-negative")


@dataclass(frozen=True)
class RowObservation:
    """Outcome for one victim row after an experiment."""

    bank: int
    logical_row: int
    physical_row: int
    flipped: bool
    #: True when one of the experiment's REFs falls into the row's
    #: calibrated regular-refresh window: survival is then inconclusive.
    regular_possible: bool
    #: Fraction of majority-vote rounds agreeing with this consensus
    #: (1.0 for single-run experiments).
    confidence: float = 1.0

    @property
    def trr_refreshed(self) -> bool:
        """Survival attributable only to a TRR-induced refresh."""
        return not self.flipped and not self.regular_possible

    @property
    def inconclusive(self) -> bool:
        return not self.flipped and self.regular_possible


@dataclass
class ExperimentResult:
    """All victim observations plus the REF indices the experiment used."""

    observations: list[RowObservation]
    ref_indices: list[int]
    dummy_rows: dict[int, list[int]] = field(default_factory=dict)
    #: Majority-vote rounds this result aggregates (1 = single run).
    votes: int = 1
    #: Individual per-round observations overruled by the majority.
    outliers: int = 0
    #: Indices (into the analyzer's group list) of groups whose flip
    #: behaviour was split across votes *and* failed re-validation.
    unstable_groups: tuple[int, ...] = ()

    def by_row(self) -> dict[tuple[int, int], RowObservation]:
        return {(obs.bank, obs.logical_row): obs
                for obs in self.observations}

    def trr_refreshed_physical(self, bank: int) -> set[int]:
        return {obs.physical_row for obs in self.observations
                if obs.bank == bank and obs.trr_refreshed}

    def flipped_physical(self, bank: int) -> set[int]:
        return {obs.physical_row for obs in self.observations
                if obs.bank == bank and obs.flipped}

    @property
    def any_inconclusive(self) -> bool:
        return any(obs.inconclusive for obs in self.observations)


class TrrAnalyzer:
    """Runs Fig. 7 experiments over a fixed set of RS-provided groups."""

    #: Minimum distance between a dummy row and any profiled/aggressor row
    #: (§5.2; keeps dummy hammering from flipping experiment rows).
    DUMMY_CLEARANCE = 100

    def __init__(self, host: SoftMCHost, groups: list[RowGroup],
                 schedule: RefreshSchedule | None = None,
                 mapping: RowMapping | None = None, seed: int = 0,
                 stats: AnalyzerStats | None = None) -> None:
        if not groups:
            raise ConfigError("TrrAnalyzer needs at least one row group")
        retention = {group.retention_ps for group in groups}
        if len(retention) != 1:
            raise ConfigError(
                "all groups must share one retention bucket; a single "
                "experiment waits one global retention time (footnote 4)")
        lo = min(group.retention_lo_ps for group in groups)
        self.retention_ps = groups[0].retention_ps
        if 2 * lo < self.retention_ps:
            raise ConfigError(
                "retention bucket too wide: rows may fail before T/2")
        self.groups = list(groups)
        self._host = host
        #: When None, survivals cannot be checked against the regular
        #: refresh schedule and `regular_possible` is reported False —
        #: use only for experiments whose REF indices are known to stay
        #: clear of the victims' refresh slots.
        self.schedule = schedule
        self._mapping = mapping or DirectMapping(host.rows_per_bank)
        self._obs = host.obs
        self._rng = np.random.default_rng(seed)
        #: Recovery-work counters; pass a shared instance to aggregate
        #: across the many analyzers one inference run creates.
        self.stats = stats if stats is not None else AnalyzerStats()
        #: (bank, logical) -> count of flipped-despite-covering-REF
        #: surprises (the refresh-schedule staleness signal).
        self.schedule_suspects: dict[tuple[int, int], int] = {}
        #: Verify every apparent TRR hit with a zero-REF decay probe
        #: before trusting it.  A row whose effective retention drifted
        #: past its bucket (temperature swing, stale profile) survives
        #: *every* experiment and would otherwise read as a TRR refresh
        #: at every stride; the probe catches it because a genuinely
        #: TRR-saved row still decays by T when nothing refreshes it.
        self.verify_hits = False

    # -- dummy rows (Requirement 2) -----------------------------------------

    def _protected_rows(self, config: ExperimentConfig) -> dict[int, set[int]]:
        """Rows (logical, per bank) dummies must keep clear of."""
        protected: dict[int, set[int]] = {}
        for group in self.groups:
            bank_rows = protected.setdefault(group.bank, set())
            bank_rows.update(group.logical_rows)
            bank_rows.update(group.gap_logical_rows(self._mapping))
        for aggressor in config.aggressors:
            protected.setdefault(aggressor.bank, set()).add(
                aggressor.logical_row)
        return protected

    def _pick_dummies(self, config: ExperimentConfig) -> dict[int, list[int]]:
        """Per-bank dummy rows, >= DUMMY_CLEARANCE away from the action."""
        if config.dummy_row_count == 0:
            return {}
        protected = self._protected_rows(config)
        banks = sorted({a.bank for a in config.aggressors}
                       or {g.bank for g in self.groups})
        return {
            bank: self._host.pick_rows_away_from(
                bank, protected.get(bank, ()), config.dummy_row_count,
                self.DUMMY_CLEARANCE, self._rng)
            for bank in banks
        }

    # -- TRR state reset (Requirement 4) --------------------------------------

    def reset_trr_state(self, config: ExperimentConfig | None = None,
                        rounds: int = 24, dummy_rows: int = 24,
                        dummy_hammers: int = 64,
                        refs_per_round: int = 16) -> None:
        """Flush TRR-internal state by hammering far-away dummies between
        refresh bursts (§5.2).

        The defaults issue 384 REFs with heavy dummy pressure — enough to
        cycle a 16-entry per-bank counter table twice at a 1/9 TRR-to-REF
        ratio, replace any sampled address, and drain any detection
        window.  (The paper hammers 128 dummies over ten full 64 ms
        refresh periods; this is the time-scaled equivalent and is
        validated against longer resets in the integration tests.)
        """
        protected = self._protected_rows(config or ExperimentConfig())
        banks = sorted(protected) or [self.groups[0].bank]
        dummies = {
            bank: self._host.pick_rows_away_from(
                bank, protected.get(bank, ()), dummy_rows,
                self.DUMMY_CLEARANCE, self._rng)
            for bank in banks
        }
        for _ in range(rounds):
            for bank, rows in dummies.items():
                self._host.hammer(
                    bank, [(row, dummy_hammers) for row in rows],
                    HammerMode.CASCADED)
            self._host.refresh(refs_per_round)

    # -- the experiment (Fig. 7) ----------------------------------------------

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        host = self._host
        dummies = self._pick_dummies(config)

        # Step 1: initialize victims and aggressors; optionally reset TRR.
        for group in self.groups:
            for logical in group.logical_rows:
                host.write_row(group.bank, logical, group.pattern)
        if config.init_aggressors:
            for aggressor in config.aggressors:
                host.write_row(aggressor.bank, aggressor.logical_row,
                               config.aggressor_pattern)
        if config.reset_state:
            self.reset_trr_state(config)
            # The reset's regular refreshes recharge the victims; re-init
            # to anchor every victim's decay clock at this instant.
            for group in self.groups:
                for logical in group.logical_rows:
                    host.write_row(group.bank, logical, group.pattern)
        if config.align_refs:
            self._align_refs_clear(config.rounds * config.refs_per_round)

        half = self.retention_ps // 2
        host.wait(half)

        # Step 2: hammer rounds, each ending with REF commands.
        ref_indices: list[int] = []
        per_bank_aggressors: dict[int, list[tuple[int, int]]] = {}
        for aggressor in config.aggressors:
            per_bank_aggressors.setdefault(aggressor.bank, []).append(
                (aggressor.logical_row, aggressor.count))
        for _ in range(config.rounds):
            if config.dummies_first:
                self._hammer_dummies(dummies, config)
            for bank, rows in per_bank_aggressors.items():
                if any(count > 0 for _, count in rows):
                    host.hammer(bank, rows, config.hammer_mode)
            if not config.dummies_first:
                self._hammer_dummies(dummies, config)
            for _ in range(config.refs_per_round):
                ref_indices.append(host.ref_count)
                host.refresh(1)

        # Step 3: wait out the remaining retention time and read back.
        host.wait(self.retention_ps - half)
        observations = []
        for group in self.groups:
            for logical, physical in group.row_pairs():
                flipped = bool(host.read_row_mismatches(group.bank, logical))
                regular = self._regular_possible(group.bank, logical,
                                                 ref_indices)
                if flipped and regular:
                    # The schedule says a REF should have covered this
                    # row, yet it decayed: either the phase window is
                    # stale or the rig lost the REF.  Either way the
                    # calibration deserves a second look.
                    key = (group.bank, logical)
                    self.schedule_suspects[key] = (
                        self.schedule_suspects.get(key, 0) + 1)
                    self.stats.schedule_violations += 1
                    self._obs.metrics.inc("analyzer.schedule_violations")
                observations.append(RowObservation(
                    bank=group.bank, logical_row=logical,
                    physical_row=physical, flipped=flipped,
                    regular_possible=regular))
        if self.verify_hits:
            observations = self._verify_hits(observations)
        self.stats.experiments += 1
        obs_bundle = self._obs
        obs_bundle.metrics.inc("analyzer.experiments")
        obs_bundle.metrics.observe("analyzer.refs_per_experiment",
                                   len(ref_indices))
        for observation in observations:
            if observation.trr_refreshed:
                obs_bundle.metrics.inc("analyzer.trr_hits")
                obs_bundle.event(
                    "trr-hit", ps=host.now_ps,
                    bank=observation.bank,
                    row=observation.logical_row,
                    physical=observation.physical_row,
                    ref_lo=ref_indices[0] if ref_indices else -1,
                    ref_hi=ref_indices[-1] if ref_indices else -1)
            elif observation.inconclusive:
                obs_bundle.metrics.inc("analyzer.inconclusive")
            if observation.flipped:
                obs_bundle.metrics.inc("analyzer.flipped_rows")
        return ExperimentResult(observations=observations,
                                ref_indices=ref_indices,
                                dummy_rows=dummies)

    def _verify_hits(self, observations: list[RowObservation]
                     ) -> list[RowObservation]:
        """Re-probe apparent TRR hits: the row must decay with zero REFs.

        All suspect rows are probed in one batch (one extra T wait per
        experiment at most).  A row that fails to decay is no longer in
        its retention bucket, so its survival is disavowed — reported as
        inconclusive rather than as a (phantom) TRR-induced refresh.
        """
        suspects = [obs for obs in observations if obs.trr_refreshed]
        if not suspects:
            return observations
        host = self._host
        patterns = {(group.bank, logical): group.pattern
                    for group in self.groups
                    for logical in group.logical_rows}
        for obs in suspects:
            host.write_row(obs.bank, obs.logical_row,
                           patterns[(obs.bank, obs.logical_row)])
        host.wait(self.retention_ps)
        verified = []
        disavowed: list[tuple[int, int]] = []
        for obs in observations:
            if obs.trr_refreshed and not host.read_row_mismatches(
                    obs.bank, obs.logical_row):
                self.stats.hits_disavowed += 1
                self._obs.metrics.inc("analyzer.hits_disavowed")
                disavowed.append((obs.bank, obs.logical_row))
                obs = dataclasses.replace(obs, regular_possible=True,
                                          confidence=0.0)
            verified.append(obs)
        if disavowed:
            self._obs.evidence.decide(
                "trr_hits", len(disavowed), outcome="rejected",
                stage="analyzer.verify_hits", confidence=0.0,
                evidence=[ev_value("disavowed-rows",
                                   [list(pair) for pair in disavowed])],
                detail={"suspects": len(suspects),
                        "note": "apparent TRR hits failed the zero-REF "
                                "decay probe"},
                host=host)
        return verified

    # -- robust execution (majority vote + re-validation) ---------------------

    def run_robust(self, config: ExperimentConfig, votes: int = 3,
                   revalidate: bool = True) -> ExperimentResult:
        """Run the experiment *votes* times and majority-vote every row.

        Round-level outliers (one run disagreeing with the consensus on
        a row's flip or regular-refresh attribution) are rejected; each
        consensus observation carries the agreement fraction as its
        ``confidence``.  Groups whose flip votes are split are
        re-validated against their retention bucket and reported in
        ``unstable_groups`` when the re-validation fails — the caller's
        cue to replace them (``RowScout.replace_group``).

        Only ``reset_state`` experiments may be repeated: a stateful
        probe (``reset_state=False``) would measure a different TRR
        state on every vote.
        """
        if votes <= 1:
            return self.run(config)
        if not config.reset_state:
            raise ConfigError(
                "run_robust needs reset_state=True: a stateful probe "
                "cannot be repeated without changing what it measures")
        runs = [self.run(config) for _ in range(votes)]
        self.stats.vote_rounds += votes - 1
        self._obs.metrics.inc("analyzer.vote_rounds", votes - 1)
        consensus: list[RowObservation] = []
        outliers = 0
        split_rows: set[tuple[int, int]] = set()
        for index, base in enumerate(runs[0].observations):
            flips = [run.observations[index].flipped for run in runs]
            regulars = [run.observations[index].regular_possible
                        for run in runs]
            flipped = sum(flips) * 2 > votes
            regular = sum(regulars) * 2 > votes
            agree = (sum(1 for f in flips if f == flipped)
                     + sum(1 for r in regulars if r == regular))
            disagreeing_flips = sum(1 for f in flips if f != flipped)
            outliers += disagreeing_flips
            if disagreeing_flips:
                split_rows.add((base.bank, base.logical_row))
            consensus.append(RowObservation(
                bank=base.bank, logical_row=base.logical_row,
                physical_row=base.physical_row, flipped=flipped,
                regular_possible=regular,
                confidence=agree / (2 * votes)))
        self.stats.outliers_rejected += outliers
        self._obs.metrics.inc("analyzer.outliers_rejected", outliers)
        unstable: list[int] = []
        if revalidate and split_rows:
            for group_index, group in enumerate(self.groups):
                if not any((group.bank, logical) in split_rows
                           for logical in group.logical_rows):
                    continue
                if not self.revalidate_group(group):
                    unstable.append(group_index)
        if outliers or unstable:
            # Only anomalous vote rounds leave a provenance node; clean
            # consensus runs would flood the sidecar at one node per
            # experiment.
            self._obs.evidence.decide(
                "vote_consensus", votes, outcome="degraded",
                stage="analyzer.run_robust",
                confidence=1.0 - outliers / (2 * votes * len(consensus)),
                evidence=[
                    ev_value("split-rows",
                             [list(pair) for pair in sorted(split_rows)]),
                    ev_refs(runs[-1].ref_indices,
                            label="experiment-refs"),
                ],
                detail={"outliers": outliers,
                        "unstable_groups": list(unstable)},
                host=self._host)
        return ExperimentResult(observations=consensus,
                                ref_indices=runs[-1].ref_indices,
                                dummy_rows=runs[-1].dummy_rows,
                                votes=votes, outliers=outliers,
                                unstable_groups=tuple(unstable))

    def revalidate_group(self, group: RowGroup, rounds: int = 2) -> bool:
        """Re-check that every profiled row still sits in its bucket.

        The same write/wait/read consistency round Row Scout validated
        with: fail by T, retain past T_lo.  A row whose retention
        wandered (VRT excursion, temperature shift, profile staleness)
        fails, telling the caller the group's observations can no longer
        be trusted.
        """
        host = self._host
        self.stats.groups_revalidated += 1
        self._obs.metrics.inc("analyzer.groups_revalidated")
        for _ in range(rounds):
            for logical in group.logical_rows:
                host.write_row(group.bank, logical, group.pattern)
            host.wait(self.retention_ps)
            for logical in group.logical_rows:
                if not host.read_row_mismatches(group.bank, logical):
                    self._reject_group(group, logical, "retained past T")
                    return False
            for logical in group.logical_rows:
                host.write_row(group.bank, logical, group.pattern)
            host.wait(group.retention_lo_ps)
            for logical in group.logical_rows:
                if host.read_row_mismatches(group.bank, logical):
                    self._reject_group(group, logical, "failed by T_lo")
                    return False
        return True

    def _reject_group(self, group: RowGroup, logical: int,
                      reason: str) -> None:
        """Provenance node for a failed group re-validation."""
        self._obs.evidence.decide(
            "group_stability", False, outcome="rejected",
            stage="analyzer.revalidate", confidence=0.0,
            evidence=[ev_rows(group.logical_rows,
                              label="group-rows"),
                      ev_value("failed-row",
                               {"bank": group.bank, "row": logical,
                                "reason": reason})],
            detail={"bank": group.bank,
                    "retention_ps": group.retention_ps},
            host=self._host)

    def _hammer_dummies(self, dummies: dict[int, list[int]],
                        config: ExperimentConfig) -> None:
        if not dummies or config.dummy_hammers == 0:
            return
        for bank, rows in dummies.items():
            self._host.hammer(
                bank, [(row, config.dummy_hammers) for row in rows],
                HammerMode.CASCADED)

    def _align_refs_clear(self, planned_refs: int) -> None:
        """Advance the REF counter so the next *planned_refs* REF indices
        fall outside every victim's regular-refresh window.

        The burned REFs execute while the victims are freshly initialized
        (their decay clocks barely move), so this only re-times the
        experiment.  When the windows plus the planned burst cannot fit
        inside one refresh cycle, alignment is impossible and the result
        simply reports the affected rows as inconclusive.
        """
        if self.schedule is None or planned_refs == 0:
            return
        cycle = self.schedule.cycle_refs
        windows = []
        total_width = 0
        for group in self.groups:
            for logical in group.logical_rows:
                window = self.schedule.covering_window(group.bank, logical)
                if window is None:
                    continue
                start, width = window
                width += 2 * self.schedule.slack
                start -= self.schedule.slack
                windows.append((start % cycle, width))
                total_width += width
        if not windows or planned_refs + total_width >= cycle:
            return
        host = self._host
        for shift in range(cycle):
            burst_start = (host.ref_count + shift) % cycle
            if not any(self._intervals_overlap(burst_start, planned_refs,
                                               start, width, cycle)
                       for start, width in windows):
                if shift:
                    host.refresh(shift)
                return
        # No clear slot found (should be unreachable given the width
        # check); fall through without alignment.

    @staticmethod
    def _intervals_overlap(a_start: int, a_len: int, b_start: int,
                           b_len: int, cycle: int) -> bool:
        """Do [a, a+a_len) and [b, b+b_len) overlap modulo cycle?"""
        delta = (b_start - a_start) % cycle
        return delta < a_len or (cycle - delta) < b_len

    def _regular_possible(self, bank: int, logical: int,
                          ref_indices: list[int]) -> bool:
        if self.schedule is None:
            return False
        return any(self.schedule.may_cover(bank, logical, index)
                   for index in ref_indices)

    # -- hammer-safety pre-check (§5.3, second method) ------------------------

    def verify_hammer_count_harmless(self, config: ExperimentConfig) -> bool:
        """Check that the configured hammer counts alone (no REFs) do not
        flip the victims — required so observed flips measure *refresh
        absence*, not direct RowHammer damage (§6.1.1)."""
        host = self._host
        for group in self.groups:
            for logical in group.logical_rows:
                host.write_row(group.bank, logical, group.pattern)
        if config.init_aggressors:
            for aggressor in config.aggressors:
                host.write_row(aggressor.bank, aggressor.logical_row,
                               config.aggressor_pattern)
        for _ in range(config.rounds):
            for aggressor in config.aggressors:
                if aggressor.count:
                    host.hammer_single(aggressor.bank, aggressor.logical_row,
                                       aggressor.count)
        for group in self.groups:
            for logical in group.logical_rows:
                if host.read_row_mismatches(group.bank, logical):
                    return False
        return True
