"""Regular-refresh schedule calibration (the TRR/regular discriminator).

TRR Analyzer attributes a surviving victim row to a TRR-induced refresh
*only* when no regular refresh can explain it (§3.2).  Regular refreshes
are periodic in the REF-command index: each row is covered by exactly one
REF per refresh cycle (``cycle_refs`` REFs long — nominally ~8K, but
3758 on vendor A chips, Obs A8).  Neither the cycle length nor a row's
phase is documented, so both are measured through the same retention
side channel:

* A **probe** writes the row, waits half its retention time, issues a
  burst of REFs, waits the other half, and reads back.  The row survives
  iff one of the burst's REFs covered it (any earlier/later refresh
  leaves a gap longer than the retention time).
* :meth:`RefreshCalibrator.find_cycle` locates one covering REF index
  exactly (coarse scan then single-REF probes), then the next one: the
  distance is the cycle length.
* :meth:`RefreshCalibrator.calibrate_rows` sweeps one cycle and records
  each profiled row's phase to within a small window.

All measured phases are expressed in the host's own REF counter
(:attr:`SoftMCHost.ref_count`), which is the only REF clock the
experimenter has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dram.patterns import DataPattern
from ..errors import ExperimentError, TransientFaultError
from ..obs.evidence import ev_refs, ev_value, ev_window
from ..softmc import SoftMCHost


@dataclass
class RefreshSchedule:
    """Measured regular-refresh timing of a set of rows."""

    cycle_refs: int
    #: (bank, logical_row) -> (phase_start, window_width); the covering
    #: REF index satisfies ref_index = phase_start + d (mod cycle) with
    #: 0 <= d < window_width.
    phase_windows: dict[tuple[int, int], tuple[int, int]] = field(
        default_factory=dict)
    #: Extra slack applied on both sides when classifying (guards against
    #: measurement granularity).
    slack: int = 2
    #: (bank, logical_row) -> calibration confidence: 0.0 for rows
    #: dropped as uncovered, 1.0 for re-measured ones (1.0 when absent).
    confidence: dict[tuple[int, int], float] = field(default_factory=dict)

    def confidence_for(self, bank: int, row: int) -> float:
        """Calibration confidence for one row (1.0 when unmeasured)."""
        return self.confidence.get((bank, row), 1.0)

    def may_cover(self, bank: int, row: int, ref_index: int) -> bool:
        """Could a regular refresh have covered *row* at *ref_index*?

        Unknown rows conservatively return True (cannot be ruled out).
        """
        window = self.phase_windows.get((bank, row))
        if window is None:
            return True
        start, width = window
        offset = (ref_index - (start - self.slack)) % self.cycle_refs
        return offset < width + 2 * self.slack

    def covering_window(self, bank: int, row: int) -> tuple[int, int] | None:
        return self.phase_windows.get((bank, row))


class RefreshCalibrator:
    """Measures the regular-refresh cycle and per-row phases.

    Every probe ends with a heavy burst on a far-away *diversion row*
    before its REFs: the TRR mechanism's detector (sampler, window,
    counter table) then points at the diversion row, so any TRR-induced
    refreshes during the probe land on the diversion row's neighbors and
    never on the calibrated rows — survival can only mean *regular*
    refresh.  (This is the paper's own dummy-row technique, Requirement
    2, applied to the methodology's calibration step itself.)
    """

    #: Minimum distance between the diversion row and calibrated rows.
    DIVERSION_CLEARANCE = 100
    #: Burst size: large enough to win any sampler/window w.h.p.
    DIVERSION_HAMMERS = 2048

    def __init__(self, host: SoftMCHost, pattern: DataPattern) -> None:
        self._host = host
        self._pattern = pattern
        self._obs = host.obs
        self._diversion: dict[int, int] = {}
        self._protected: dict[int, set[int]] = {}

    def protect(self, bank: int, rows) -> None:
        """Register rows the diversion row must keep clear of."""
        self._protected.setdefault(bank, set()).update(rows)

    def _diversion_row(self, bank: int, near: int) -> int:
        protected = self._protected.setdefault(bank, set())
        protected.add(near)
        existing = self._diversion.get(bank)
        if (existing is not None
                and all(abs(existing - row) >= self.DIVERSION_CLEARANCE
                        for row in protected)):
            return existing
        row = self._host.pick_rows_away_from(
            bank, protected, 1, self.DIVERSION_CLEARANCE)[0]
        self._diversion[bank] = row
        return row

    def _divert(self, bank: int, near: int) -> None:
        self._host.hammer_single(bank, self._diversion_row(bank, near),
                                 self.DIVERSION_HAMMERS)

    # -- probing primitive ---------------------------------------------------

    def probe(self, bank: int, row: int, retention_ps: int,
              burst: int) -> bool:
        """Return True iff a REF within the next *burst* REFs covers *row*.

        The row must have a known retention time in ``(retention/2,
        retention]`` — exactly what Row Scout guarantees for its buckets.
        """
        host = self._host
        self._obs.metrics.inc("calibrator.probes")
        host.write_row(bank, row, self._pattern)
        self._divert(bank, row)
        host.wait(retention_ps // 2)
        if burst:
            host.refresh(burst)
        host.wait(retention_ps - retention_ps // 2)
        return not host.read_row_mismatches(bank, row)

    def _scan_for_coverage(self, bank: int, row: int, retention_ps: int,
                           step: int, max_refs: int) -> int:
        """Scan forward in *step*-REF probes; return the host REF index of
        the first chunk that covered the row (chunk start)."""
        host = self._host
        scanned = 0
        while scanned < max_refs:
            chunk_start = host.ref_count
            if self.probe(bank, row, retention_ps, step):
                return chunk_start
            scanned += step
        raise ExperimentError(
            f"row {row} (bank {bank}) never regularly refreshed within "
            f"{max_refs} REFs — wrong retention time or broken refresh?")

    def _find_exact_covering(self, bank: int, row: int, retention_ps: int,
                             coarse_start: int, coarse_step: int) -> int:
        """Pinpoint the covering REF inside a coarse chunk, one REF at a
        time, during the *next* pass over that chunk's phase."""
        host = self._host
        # The coarse probe consumed the chunk; the covering REF recurs one
        # cycle later, but the cycle is unknown here.  Instead, walk
        # forward probing single REFs: the next covering REF is the first
        # single-REF probe that survives.  Bound the walk generously.
        limit = host.ref_count + 4 * max(coarse_step, 1) + 2 ** 16
        while host.ref_count < limit:
            index = host.ref_count
            if self.probe(bank, row, retention_ps, 1):
                return index
        raise ExperimentError("single-REF scan failed to find coverage")

    # -- public calibration API --------------------------------------------

    def find_cycle(self, bank: int, row: int, retention_ps: int,
                   coarse_step: int = 64, max_cycle: int = 20_000,
                   check_decay: bool = False) -> int:
        """Measure the regular-refresh cycle length in REF commands.

        Finds two consecutive exact covering REF indices of one profiled
        row; their distance is the cycle.

        ``check_decay`` first verifies the row still decays with *no*
        REFs issued.  A row whose retention drifted past its bucket (VRT
        excursion, temperature drift, stale profile) survives every
        probe and would measure an absurd cycle of 1; the pre-check
        turns that into a :class:`~repro.errors.TransientFaultError` so
        a hardened caller can try another profiled row.
        """
        evidence = self._obs.evidence
        with self._obs.span("calibrator.find_cycle", bank=bank, row=row):
            if check_decay and self.probe(bank, row, retention_ps, 0):
                evidence.decide(
                    "refresh_cycle", None, outcome="rejected",
                    stage="calibrator.find_cycle",
                    evidence=[ev_value("decay-check",
                                       {"bank": bank, "row": row,
                                        "survived_without_refs": True})],
                    host=self._host)
                raise TransientFaultError(
                    f"row {row} (bank {bank}) no longer decays within its "
                    "retention bucket — unusable for cycle measurement")
            coarse = self._scan_for_coverage(bank, row, retention_ps,
                                             coarse_step, 2 * max_cycle)
            del coarse  # only needed to get near the phase
            first = self._find_exact_covering(bank, row, retention_ps,
                                              coarse_start=0,
                                              coarse_step=coarse_step)
            second = self._find_exact_covering(bank, row, retention_ps,
                                               coarse_start=0,
                                               coarse_step=coarse_step)
            cycle = second - first
            covering = [ev_refs([first, second], label="covering-refs")]
            if cycle <= 0 or cycle > max_cycle:
                evidence.decide(
                    "refresh_cycle", cycle, outcome="rejected",
                    stage="calibrator.find_cycle", evidence=covering,
                    detail={"bank": bank, "row": row,
                            "max_cycle": max_cycle},
                    host=self._host)
                raise ExperimentError(f"implausible refresh cycle {cycle}")
            if check_decay and cycle < coarse_step:
                # Two back-to-back "coverings" this close mean the row
                # went immortal mid-measurement, not that the cycle is
                # tiny.
                evidence.decide(
                    "refresh_cycle", cycle, outcome="rejected",
                    stage="calibrator.find_cycle", evidence=covering,
                    detail={"bank": bank, "row": row,
                            "coarse_step": coarse_step,
                            "drifted": True},
                    host=self._host)
                raise TransientFaultError(
                    f"row {row} (bank {bank}) measured cycle {cycle} < "
                    f"{coarse_step}: retention drifted mid-measurement")
            evidence.decide(
                "refresh_cycle", cycle, stage="calibrator.find_cycle",
                confidence=1.0, evidence=covering,
                detail={"bank": bank, "row": row},
                host=self._host)
            return cycle

    def calibrate_rows(self, rows: list[tuple[int, int]], retention_ps: int,
                       cycle: int, window: int = 8,
                       drop_uncovered: bool = False) -> RefreshSchedule:
        """Measure each row's phase to within *window* REFs.

        All rows must share the retention bucket *retention_ps* (Row
        Scout groups guarantee this).  One coarse pass assigns every row
        a cycle/32 chunk; a second pass narrows each to *window*.

        ``drop_uncovered`` degrades gracefully when a row is never seen
        covered (its retention drifted out of the bucket on a noisy
        substrate): the row is left out of the schedule with confidence
        0.0 — :meth:`RefreshSchedule.may_cover` then conservatively
        reports it as always coverable, so its survivals are counted
        inconclusive rather than misattributed to TRR.  Without the flag
        an uncovered row raises :class:`~repro.errors.ExperimentError`.
        """
        host = self._host
        for bank, row in rows:
            self.protect(bank, [row])
        if drop_uncovered:
            # Immortal rows (retention drifted past the bucket) survive
            # every probe and would be assigned an arbitrary first-chunk
            # window; weed them out with one REF-free decay check so they
            # are *dropped* (conservative) instead of miscalibrated.
            immortal = [(bank, row) for bank, row in rows
                        if self.probe(bank, row, retention_ps, 0)]
            rows = [key for key in rows if key not in immortal]
            if immortal:
                self._obs.evidence.decide(
                    "refresh_phases", None, outcome="rejected",
                    stage="calibrator.calibrate",
                    evidence=[ev_value("immortal-rows", immortal)],
                    detail={"reason": "survived a REF-free decay check"},
                    host=self._host)
        else:
            immortal = []
        coarse_step = max(cycle // 32, window)
        # Pass 1: probe all rows simultaneously, chunk by chunk.
        coarse_phase: dict[tuple[int, int], int] = {}
        probed = 0
        while len(coarse_phase) < len(rows) and probed < 2 * cycle:
            chunk_start = host.ref_count
            for bank, row in rows:
                if (bank, row) not in coarse_phase:
                    host.write_row(bank, row, self._pattern)
            for bank in {bank for bank, _ in rows}:
                self._divert(bank, max(row for b, row in rows if b == bank))
            host.wait(retention_ps // 2)
            host.refresh(coarse_step)
            host.wait(retention_ps - retention_ps // 2)
            for bank, row in rows:
                if (bank, row) in coarse_phase:
                    continue
                if not host.read_row_mismatches(bank, row):
                    coarse_phase[(bank, row)] = chunk_start % cycle
            probed += coarse_step
        missing = [key for key in rows if tuple(key) not in coarse_phase]
        schedule = RefreshSchedule(cycle_refs=cycle)
        for bank, row in immortal:
            schedule.confidence[(bank, row)] = 0.0
        if missing:
            self._obs.evidence.decide(
                "refresh_phases", None, outcome="rejected",
                stage="calibrator.calibrate",
                evidence=[ev_value("uncovered-rows", missing)],
                detail={"reason": "never covered within 2 cycles",
                        "dropped": drop_uncovered},
                host=self._host)
            if not drop_uncovered:
                raise ExperimentError(
                    f"rows never covered by regular refresh: {missing}")
            for bank, row in missing:
                schedule.confidence[(bank, row)] = 0.0
        # Pass 2: narrow each row's chunk to `window` REFs, sweeping the
        # cycle once in phase order.
        ordered = sorted((key for key in rows if tuple(key) in coarse_phase),
                         key=lambda key: (
                             (coarse_phase[tuple(key)] - host.ref_count)
                             % cycle))
        for bank, row in ordered:
            target = coarse_phase[(bank, row)]
            # Position just before the row's coarse chunk (with margin).
            margin = window
            distance = (target - margin - host.ref_count) % cycle
            host.refresh(distance)
            found = None
            for _ in range((coarse_step + 2 * margin) // window + 1):
                chunk_start = host.ref_count
                if self.probe(bank, row, retention_ps, window):
                    found = chunk_start % cycle
                    break
            if found is None:
                self._obs.evidence.decide(
                    "refresh_phases", None, outcome="rejected",
                    stage="calibrator.calibrate",
                    evidence=[ev_value("refinement-lost",
                                       {"bank": bank, "row": row,
                                        "coarse_phase": target})],
                    detail={"dropped": drop_uncovered},
                    host=self._host)
                if drop_uncovered:
                    schedule.confidence[(bank, row)] = 0.0
                    continue
                raise ExperimentError(
                    f"row {row} lost its coarse phase during refinement")
            schedule.phase_windows[(bank, row)] = (found, window)
        windows = {f"{bank}:{row}": list(entry) for (bank, row), entry
                   in sorted(schedule.phase_windows.items())}
        self._obs.evidence.decide(
            "refresh_phases", len(schedule.phase_windows),
            stage="calibrator.calibrate",
            confidence=(min(schedule.confidence.values())
                        if schedule.confidence else 1.0),
            evidence=[ev_value("phase-windows", windows),
                      ev_value("cycle-refs", cycle)],
            host=self._host)
        return schedule

    def recalibrate_row(self, schedule: RefreshSchedule, bank: int,
                        row: int, retention_ps: int,
                        window: int | None = None) -> tuple[int, int]:
        """Re-measure one row's phase window in place.

        The drifted-schedule repair: when TRR Analyzer flags a row as a
        schedule suspect (it decayed although a supposedly covering REF
        was issued), the inference driver calls this to sweep one refresh
        cycle in *window*-sized probes and overwrite the stale entry.
        Returns the new ``(phase_start, width)`` window.
        """
        host = self._host
        cycle = schedule.cycle_refs
        if window is None:
            old = schedule.phase_windows.get((bank, row))
            window = old[1] if old is not None else 8
        self.protect(bank, [row])
        probed = 0
        while probed < 2 * cycle:
            chunk_start = host.ref_count
            if self.probe(bank, row, retention_ps, window):
                entry = (chunk_start % cycle, window)
                schedule.phase_windows[(bank, row)] = entry
                schedule.confidence[(bank, row)] = 1.0
                self._obs.evidence.decide(
                    "refresh_phase", list(entry),
                    stage="calibrator.recalibrate", confidence=1.0,
                    evidence=[ev_window(chunk_start,
                                        chunk_start + window,
                                        label="covering-ref-window")],
                    detail={"bank": bank, "row": row},
                    host=self._host)
                return entry
            probed += window
        self._obs.evidence.decide(
            "refresh_phase", None, outcome="rejected",
            stage="calibrator.recalibrate",
            evidence=[ev_value("uncovered",
                               {"bank": bank, "row": row,
                                "probed_refs": probed})],
            host=self._host)
        raise ExperimentError(
            f"row {row} (bank {bank}) found no covering REF during "
            f"recalibration — broken refresh or wrong retention bucket?")
