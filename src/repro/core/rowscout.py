"""Row Scout (RS): the retention-time profiler (§4).

RS finds row groups whose retention behaviour makes them usable as
TRR Analyzer victims:

* every profiled row fails **by** the bucket time T but **retains past**
  the bucket's lower edge T_lo (so a refresh at T/2 always saves it —
  footnote 4 requires T_lo >= T/2);
* rows within a group share the bucket and sit at the layout's relative
  *physical* positions (``R-R`` etc.), placed via the reverse-engineered
  row mapping;
* retention is validated over many write/wait/read rounds to reject
  Variable Retention Time rows (§4.1).

The scan loop follows Fig. 6: scan the row range at T, form candidate
groups from newly failing rows, escalate T when too few groups pass
validation.  Escalation is geometric (T *= growth) so the bucket
(T_prev, T] always satisfies T_prev >= T/2.

Hardening against a noisy substrate
-----------------------------------
On real rigs the profiler must survive transient readback noise, VRT
storms and flaky modules.  The hardened loop therefore supports:

* **retry-with-escalation** — an inconsistent validation round is
  re-probed ``round_retries`` times before it rejects the row.  Genuine
  VRT excursions persist across the re-probe (the VRT state is sticky),
  while one-shot read noise does not, so VRT rejection keeps the
  paper's strictness;
* **per-row flakiness scoring and quarantine** — rows that repeatedly
  need retries accumulate a flakiness score; past
  ``quarantine_after`` they enter a quarantine list and are never
  considered again (not even in later scans or replacements);
* **mid-run group replacement** — :meth:`RowScout.replace_group`
  substitutes a group whose behaviour shifted under the analyzer,
  re-scanning the same retention bucket;
* **whole-scan retries** — ``scan_attempts`` full Fig. 6 escalations
  run before giving up; :class:`~repro.errors.RetryExhaustedError`
  (a :class:`~repro.errors.ProfilingError`) is raised only after every
  retry budget is spent.

All recovery work is counted in :attr:`RowScout.stats`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable

from ..dram.mapping import DirectMapping, RowMapping
from ..dram.patterns import AllOnes, DataPattern
from ..errors import ConfigError, RetryExhaustedError
from ..obs.evidence import ev_rows, ev_value
from ..softmc import SoftMCHost
from ..units import ms
from .resilience import RowScoutStats
from .rowgroup import RowGroup, RowGroupLayout


@dataclass(frozen=True)
class ProfilingConfig:
    """What Row Scout should find (Fig. 3 "profiling configuration")."""

    bank: int
    layout: RowGroupLayout
    group_count: int
    row_range: tuple[int, int] | None = None  #: physical rows [start, end)
    pattern: DataPattern = field(default_factory=AllOnes)
    initial_t_ms: float = 100.0
    #: Geometric bucket growth; must stay <= 2 so T_lo >= T/2.
    growth: float = 1.5
    max_t_ms: float = 8000.0
    #: Write/wait/read rounds per candidate row (paper: 1000).
    validation_rounds: int = 40
    #: Minimum physical distance between two groups' spans, so one
    #: group's aggressors (and their TRR-refresh blast radius) cannot
    #: touch another group's profiled rows.
    group_spacing: int = 8
    #: Re-probes of an inconsistent validation round before it rejects
    #: the row (0 = paper-strict: first inconsistency rejects).
    round_retries: int = 0
    #: Retried rounds before a row is quarantined outright.
    quarantine_after: int = 3
    #: Full Fig. 6 escalations to attempt before giving up.
    scan_attempts: int = 1

    def __post_init__(self) -> None:
        if self.group_count < 1:
            raise ConfigError("group_count must be >= 1")
        if not 1.0 < self.growth <= 2.0:
            raise ConfigError("growth must be in (1, 2] (footnote 4)")
        if self.initial_t_ms <= 0 or self.max_t_ms <= self.initial_t_ms:
            raise ConfigError("need 0 < initial_t_ms < max_t_ms")
        if self.validation_rounds < 1:
            raise ConfigError("validation_rounds must be >= 1")
        if self.group_spacing < 0:
            raise ConfigError("group_spacing must be >= 0")
        if self.round_retries < 0:
            raise ConfigError("round_retries must be >= 0")
        if self.quarantine_after < 1:
            raise ConfigError("quarantine_after must be >= 1")
        if self.scan_attempts < 1:
            raise ConfigError("scan_attempts must be >= 1")


class RowScout:
    """Finds retention-profiled row groups through the side channel only."""

    def __init__(self, host: SoftMCHost,
                 mapping: RowMapping | None = None) -> None:
        self._host = host
        #: Logical<->physical mapping discovered by §5.3 reverse
        #: engineering (identity if the module needs none).
        self._mapping = mapping or DirectMapping(host.rows_per_bank)
        #: The host's observability bundle (all calls no-ops when
        #: it is the shared null bundle).
        self._obs = host.obs
        #: Recovery-work counters (chaos harness reporting).
        self.stats = RowScoutStats()
        #: Physical rows banned from profiling, per bank.
        self.quarantine: dict[int, set[int]] = {}
        #: (bank, physical) -> retried-round count feeding the quarantine.
        self.flaky_scores: dict[tuple[int, int], int] = {}

    # -- quarantine bookkeeping ---------------------------------------------

    def _is_quarantined(self, bank: int, physical_rows) -> bool:
        banned = self.quarantine.get(bank)
        if not banned:
            return False
        return any(row in banned for row in physical_rows)

    def quarantine_row(self, bank: int, physical: int) -> None:
        """Ban *physical* from all future profiling in *bank*."""
        banned = self.quarantine.setdefault(bank, set())
        if physical not in banned:
            banned.add(physical)
            self.stats.rows_quarantined += 1
            self._obs.metrics.inc("rowscout.rows_quarantined")
            self._obs.evidence.decide(
                "row_quarantine", physical, outcome="rejected",
                stage="rowscout.quarantine", confidence=0.0,
                evidence=[ev_value(
                    "flaky-score",
                    {"bank": bank, "physical": physical,
                     "retries": self.flaky_scores.get((bank, physical),
                                                      0)})],
                detail={"bank": bank},
                host=self._host)

    def _note_flaky(self, bank: int, physical: int,
                    config: ProfilingConfig) -> None:
        key = (bank, physical)
        score = self.flaky_scores.get(key, 0) + 1
        self.flaky_scores[key] = score
        if score >= config.quarantine_after:
            self.quarantine_row(bank, physical)

    # -- scan pass -----------------------------------------------------------

    def _scan_failing_rows(self, bank: int, physical_rows: list[int],
                           pattern: DataPattern, t_ps: int) -> set[int]:
        """One Fig. 6 step-1 pass: which physical rows fail within t_ps?"""
        host = self._host
        self.stats.scan_passes += 1
        self._obs.metrics.inc("rowscout.scan_passes")
        logical = [self._mapping.to_logical(p) for p in physical_rows]
        host.write_rows(bank, logical, pattern)
        host.wait(t_ps)
        return {physical for physical, mismatches
                in zip(physical_rows, host.read_rows_mismatches(bank, logical))
                if mismatches}

    # -- validation (Fig. 6 step 4, hardened) --------------------------------

    def _probe_round(self, bank: int, logical: int, pattern: DataPattern,
                     t_lo_ps: int, t_ps: int) -> bool:
        """One consistency round: fail at T *and* retain at T_lo."""
        host = self._host
        host.write_row(bank, logical, pattern)
        host.wait(t_ps)
        if not host.read_row_mismatches(bank, logical):
            return False
        host.write_row(bank, logical, pattern)
        host.wait(t_lo_ps)
        if host.read_row_mismatches(bank, logical):
            return False
        return True

    def _validate_row(self, config: ProfilingConfig, bank: int,
                      physical: int, t_lo_ps: int, t_ps: int) -> bool:
        """The row must pass every consistency round (rejects VRT rows).

        An inconsistent round is re-probed up to ``config.round_retries``
        times: VRT state is sticky across observations so a genuine VRT
        excursion is corroborated, while transient read noise is not.
        """
        logical = self._mapping.to_logical(physical)
        stats = self.stats
        metrics = self._obs.metrics
        for _ in range(config.validation_rounds):
            stats.rounds_validated += 1
            metrics.inc("rowscout.rounds_validated")
            if self._probe_round(bank, logical, config.pattern,
                                 t_lo_ps, t_ps):
                continue
            for _ in range(config.round_retries):
                stats.round_retries += 1
                metrics.inc("rowscout.round_retries")
                self._note_flaky(bank, physical, config)
                if self._is_quarantined(bank, (physical,)):
                    stats.rows_rejected += 1
                    metrics.inc("rowscout.rows_rejected")
                    return False
                if self._probe_round(bank, logical, config.pattern,
                                     t_lo_ps, t_ps):
                    break
            else:
                stats.rows_rejected += 1
                metrics.inc("rowscout.rows_rejected")
                return False
        return True

    @staticmethod
    def _candidate_bases(layout: RowGroupLayout, bucket_rows: set[int],
                         range_lo: int, range_hi: int) -> list[int]:
        """Base rows where every layout 'R' lands on a bucket row."""
        bases = []
        for base in sorted(bucket_rows):
            if base + layout.span > range_hi or base < range_lo:
                continue
            if all(base + off in bucket_rows
                   for off in layout.profiled_offsets):
                bases.append(base)
        return bases

    # -- main loop (Fig. 6) ---------------------------------------------------

    def find_groups(self, config: ProfilingConfig) -> list[RowGroup]:
        """Run the Fig. 6 loop until ``group_count`` validated groups exist.

        All returned groups share one retention bucket (a TRR Analyzer
        experiment waits a single global time, so mixed buckets would
        break footnote 4's timing constraints).
        """
        return self.find_groups_joint([config])[0]

    def find_groups_joint(self, configs: list[ProfilingConfig]
                          ) -> list[list[RowGroup]]:
        """Satisfy several profiling configurations in one shared bucket.

        Needed by experiments that compare TRR behaviour across banks:
        the victim rows of all banks must share one retention time so a
        single TRR-A experiment can cover them.  All configs must agree
        on pattern and escalation parameters.

        Retries the whole escalation up to ``scan_attempts`` times (VRT
        states and transient noise differ between passes) and raises
        :class:`RetryExhaustedError` only once every attempt failed.
        """
        if not configs:
            raise ConfigError("need at least one profiling configuration")
        reference = configs[0]
        for config in configs[1:]:
            same = (config.pattern == reference.pattern
                    and config.initial_t_ms == reference.initial_t_ms
                    and config.growth == reference.growth
                    and config.max_t_ms == reference.max_t_ms)
            if not same:
                raise ConfigError(
                    "joint profiling requires identical pattern and "
                    "escalation parameters across configurations")

        host = self._host
        ranges = []
        for config in configs:
            range_lo, range_hi = config.row_range or (0, host.rows_per_bank)
            if not 0 <= range_lo < range_hi <= host.rows_per_bank:
                raise ConfigError(f"bad row range [{range_lo}, {range_hi})")
            ranges.append((range_lo, range_hi))

        with self._obs.span("rowscout.find_groups",
                            banks=len(configs),
                            groups=sum(c.group_count for c in configs)):
            for attempt in range(reference.scan_attempts):
                if attempt:
                    self.stats.scan_restarts += 1
                    self._obs.metrics.inc("rowscout.scan_restarts")
                    self._obs.evidence.decide(
                        "scan_attempt", attempt, outcome="degraded",
                        stage="rowscout.find_groups",
                        evidence=[ev_value(
                            "escalation-budget",
                            {"max_t_ms": reference.max_t_ms,
                             "attempts": reference.scan_attempts})],
                        detail={"banks": [c.bank for c in configs]},
                        host=self._host)
                results = self._escalate_once(configs, ranges, reference)
                if results is not None:
                    return results
        raise RetryExhaustedError(
            "could not satisfy all profiling configurations in one bucket "
            f"up to T={reference.max_t_ms} ms "
            f"(after {reference.scan_attempts} scan attempt(s)): "
            + ", ".join(f"bank {c.bank} needs {c.group_count} x "
                        f"'{c.layout.notation}'" for c in configs))

    def _escalate_once(self, configs: list[ProfilingConfig],
                       ranges: list[tuple[int, int]],
                       reference: ProfilingConfig
                       ) -> list[list[RowGroup]] | None:
        """One full Fig. 6 T escalation; None when the budget runs out."""
        t_lo_ps = 0
        t_ms_value = reference.initial_t_ms
        already_failing: list[set[int]] = [set() for _ in configs]
        first_pass = True
        while t_ms_value <= reference.max_t_ms:
            t_ps = ms(t_ms_value)
            failing = [
                self._scan_failing_rows(
                    config.bank, list(range(lo, hi)), config.pattern, t_ps)
                for config, (lo, hi) in zip(configs, ranges)
            ]
            if first_pass:
                # Rows failing at the *initial* T have unknown (possibly
                # tiny) retention; footnote 4 excludes them.
                already_failing = failing
                first_pass = False
            else:
                results = []
                for config, fails, previous, (lo, hi) in zip(
                        configs, failing, already_failing, ranges):
                    bucket = fails - previous
                    results.append(self._form_groups(
                        config, bucket, t_lo_ps, t_ps, lo, hi))
                if all(len(groups) >= config.group_count
                       for groups, config in zip(results, configs)):
                    return [groups[:config.group_count]
                            for groups, config in zip(results, configs)]
                already_failing = failing
            t_lo_ps = t_ps
            t_ms_value *= reference.growth
        return None

    def _form_groups(self, config: ProfilingConfig, bucket: set[int],
                     t_lo_ps: int, t_ps: int, range_lo: int,
                     range_hi: int,
                     used: set[int] | None = None) -> list[RowGroup]:
        groups: list[RowGroup] = []
        used = set(used or ())
        for base in self._candidate_bases(config.layout, bucket,
                                          range_lo, range_hi):
            span_rows = range(base - config.group_spacing,
                              base + config.layout.span
                              + config.group_spacing)
            if any(row in used for row in span_rows):
                continue
            rows = [base + off for off in config.layout.profiled_offsets]
            if self._is_quarantined(config.bank, rows):
                continue
            if all(self._validate_row(config, config.bank, row,
                                      t_lo_ps, t_ps)
                   for row in rows):
                group = RowGroup(
                    bank=config.bank,
                    base_physical=base,
                    layout=config.layout,
                    logical_rows=tuple(self._mapping.to_logical(r)
                                       for r in rows),
                    retention_ps=t_ps,
                    retention_lo_ps=t_lo_ps,
                    pattern=config.pattern,
                )
                groups.append(group)
                self.stats.groups_formed += 1
                self._obs.metrics.inc("rowscout.groups_formed")
                self._obs.evidence.decide(
                    "row_group", group.layout.notation,
                    stage="rowscout.form_groups", confidence=1.0,
                    evidence=[ev_rows(rows, label="physical-rows"),
                              ev_value("retention-bucket",
                                       {"t_lo_ps": t_lo_ps,
                                        "t_ps": t_ps})],
                    detail={"bank": config.bank, "base": base,
                            "rounds": config.validation_rounds},
                    host=self._host)
                used.update(span_rows)
                if len(groups) >= config.group_count:
                    break
        return groups

    # -- mid-run group replacement --------------------------------------------

    def replace_group(self, config: ProfilingConfig, bad_group: RowGroup,
                      keep: Iterable[RowGroup] = ()) -> RowGroup:
        """Find a substitute for a group whose behaviour shifted mid-run.

        The bad group's profiled rows are quarantined, its retention
        bucket is re-scanned (two passes: failing at T minus failing at
        T_lo reconstructs the bucket without the original escalation
        history), and a fresh group is validated clear of every group in
        *keep*.  Raises :class:`RetryExhaustedError` when the bucket has
        no replacement to offer.
        """
        for physical in bad_group.physical_rows:
            self.quarantine_row(bad_group.bank, physical)
        range_lo, range_hi = config.row_range or (0,
                                                  self._host.rows_per_bank)
        rows = list(range(range_lo, range_hi))
        t_ps = bad_group.retention_ps
        t_lo_ps = bad_group.retention_lo_ps
        failing_hi = self._scan_failing_rows(bad_group.bank, rows,
                                             config.pattern, t_ps)
        failing_lo = self._scan_failing_rows(bad_group.bank, rows,
                                             config.pattern, t_lo_ps)
        bucket = failing_hi - failing_lo
        used: set[int] = set()
        for group in (*keep, bad_group):
            used.update(range(group.base_physical - config.group_spacing,
                              group.base_physical + group.layout.span
                              + config.group_spacing))
        replacement = self._form_groups(
            dataclasses.replace(config, group_count=1), bucket,
            t_lo_ps, t_ps, range_lo, range_hi, used=used)
        if not replacement:
            raise RetryExhaustedError(
                f"no replacement group available in bank {bad_group.bank}'s "
                f"bucket ({t_lo_ps}, {t_ps}] ps")
        self.stats.groups_replaced += 1
        self._obs.metrics.inc("rowscout.groups_replaced")
        self._obs.evidence.decide(
            "group_replacement", replacement[0].base_physical,
            stage="rowscout.replace_group", confidence=1.0,
            evidence=[ev_rows(bad_group.physical_rows,
                              label="quarantined-rows"),
                      ev_rows(replacement[0].physical_rows,
                              label="replacement-rows")],
            detail={"bank": bad_group.bank,
                    "bucket_ps": [t_lo_ps, t_ps]},
            host=self._host)
        return replacement[0]
