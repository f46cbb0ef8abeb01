"""SoftMC-style host interface.

The paper implements Row Scout and TRR Analyzer on SoftMC, an FPGA-based
infrastructure giving the experimenter command-level control over a DDR4
module (§3.3).  :class:`SoftMCHost` is that boundary in this
reproduction: it owns the experimenter's view of time and REF counts, and
forwards DDR-shaped operations to the device under test.

Everything in :mod:`repro.core` and :mod:`repro.attacks` talks to the
chip exclusively through this class — never through the chip's internals
— which is what keeps the reverse-engineering honest: the only
observables are read-back data and the host's own clock.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..dram import (ActBatch, DataPattern, DramChip, HammerMode,
                    pattern_spec, single_row_batch)
from ..errors import ConfigError
from ..obs import NULL_OBS, Observability
from ..obs.recorder import data_digest, mismatch_digest
from ..units import ms, us

if TYPE_CHECKING:
    from ..faults import FaultInjector


class SoftMCHost:
    """Command-level host access to one DRAM module.

    An optional :class:`~repro.faults.FaultInjector` perturbs the
    boundary this class models: commands may be dropped or duplicated
    and readback data transiently corrupted, while the injector drives
    the chip's physical environment (VRT storms, temperature drift).
    Without an injector every operation reaches the chip verbatim.

    An optional :class:`~repro.obs.Observability` bundle records the
    command stream the host issues (the experimenter's only window into
    the module) and the activation pressure per REF window; it is also
    where every pipeline component driving this host reaches its
    instruments (:attr:`obs`, :data:`~repro.obs.NULL_OBS` when absent).
    The recorder and metrics slots are resolved once at construction: a
    disabled instrument caches to ``None`` and every per-command hook
    reduces to a single ``is not None`` check, keeping the disabled path
    within the benchmarked overhead bound.  A bundle's command profiler
    wraps this instance's opcode methods from outside
    (:meth:`~repro.obs.CommandProfiler.attach`); the methods themselves
    never time anything.
    """

    def __init__(self, chip: DramChip,
                 faults: "FaultInjector | None" = None,
                 obs: Observability | None = None) -> None:
        self._chip = chip
        self._faults = faults
        if obs is None:
            obs = NULL_OBS
        self._obs = obs
        self._rec = obs.recorder if obs.recorder.enabled else None
        self._metrics = obs.metrics if obs.metrics.enabled else None
        #: ACTs accumulated since the last REF burst (metrics only).
        self._window_acts = 0
        #: Identity-keyed memo of written-pattern trace specs (recording
        #: only): aggressor data patterns are reused across many writes,
        #: so each is serialized once, not per WR record.
        self._pattern_specs: dict[int, tuple] = {}
        if faults is not None:
            faults.attach(chip)
            faults.bind_observability(obs)
        #: REF commands issued by this host (the experimenter's counter;
        #: regular-refresh periodicity is expressed in this index).
        self.ref_count = 0
        #: Activations issued per bank (the experimenter's own ledger —
        #: phase-locked attacks track the deterministic sampler with it).
        self.acts_per_bank: dict[int, int] = {}
        if obs.profiler is not None:
            obs.profiler.attach(self)

    @property
    def faults(self) -> "FaultInjector | None":
        return self._faults

    @property
    def obs(self) -> Observability:
        """The observability bundle every pipeline component records
        into (never None: :data:`~repro.obs.NULL_OBS` when disabled)."""
        return self._obs

    def ledger(self) -> dict:
        """The host's own counts, in trace-summary shape."""
        return {"ref_count": self.ref_count,
                "acts_per_bank": {str(bank): count for bank, count
                                  in sorted(self.acts_per_bank.items())}}

    def _tick(self) -> None:
        if self._faults is not None:
            self._faults.advance(self._chip.now_ps)

    def _count_acts(self, bank: int, count: int) -> None:
        self.acts_per_bank[bank] = self.acts_per_bank.get(bank, 0) + count
        if self._metrics is not None:
            self._window_acts += count
            self._metrics.inc("host.acts", count)

    # -- experimenter-visible module facts ---------------------------------

    @property
    def now_ps(self) -> int:
        """The host's wall clock (it drives the bus, so it knows time)."""
        return self._chip.now_ps

    @property
    def num_banks(self) -> int:
        return self._chip.config.num_banks

    @property
    def rows_per_bank(self) -> int:
        return self._chip.config.rows_per_bank

    @property
    def row_bits(self) -> int:
        return self._chip.config.row_bits

    @property
    def timing(self):
        return self._chip.config.timing

    def hammers_per_ref_interval(self) -> int:
        """Single-bank ACT budget between two nominal REFs (footnote 10)."""
        return self.timing.hammers_per_ref_interval()

    # -- data movement -------------------------------------------------------

    def _pattern_spec(self, pattern: DataPattern):
        """Memoized :func:`repro.dram.pattern_spec` (identity-keyed)."""
        key = id(pattern)
        hit = self._pattern_specs.get(key)
        if hit is not None and hit[0] is pattern:
            return hit[1]
        spec = pattern_spec(pattern)
        if len(self._pattern_specs) >= 128:
            self._pattern_specs.clear()
        self._pattern_specs[key] = (pattern, spec)
        return spec

    # Each row command has one validated core (``_write``,
    # ``_read_mismatches``) shared by its single-row and its range entry
    # point, and no entry point calls another, so a wrapper around each
    # counts every command once.

    def write_row(self, bank: int, row: int, pattern: DataPattern) -> None:
        """Write *pattern* into the row (logical addressing)."""
        self._chip.check_row(bank, row)
        self._write(bank, row, pattern)

    def write_rows(self, bank: int, rows: Sequence[int],
                   pattern: DataPattern) -> None:
        """Write *pattern* into each of *rows* in order: the commands
        :meth:`write_row` would issue per row, in one chip call.

        The whole range is validated before anything is recorded,
        counted or run.  A fault injector draws per command (a dropped
        write does not even move the clock), so a faulty host issues
        the rows one by one.
        """
        chip = self._chip
        chip.check_rows(bank, rows)
        if self._faults is not None or not rows:
            for row in rows:
                self._write(bank, row, pattern)
            return
        if self._rec is not None:
            spec = self._pattern_spec(pattern)
            now_ps, step_ps = chip.now_ps, self.timing.row_write_ps
            for row in rows:
                self._rec.on_write(now_ps, bank, row, pattern=spec)
                now_ps += step_ps
        self._count_acts(bank, len(rows))
        chip.write_rows(bank, rows, pattern)

    def _write(self, bank: int, row: int, pattern: DataPattern) -> None:
        """Issue one validated WR: record, count, tick, write (unless
        the injector drops it)."""
        if self._rec is not None:
            self._rec.on_write(self._chip.now_ps, bank, row,
                               pattern=self._pattern_spec(pattern))
        self._count_acts(bank, 1)
        self._tick()
        if self._faults is None or not self._faults.drop_write(
                self._chip.now_ps):
            self._chip.write_row(bank, row, pattern)

    def read_row(self, bank: int, row: int) -> np.ndarray:
        """Read the row's current bits."""
        self._chip.check_row(bank, row)
        issue_ps = self._chip.now_ps if self._rec is not None else 0
        self._count_acts(bank, 1)
        self._tick()
        bits = self._chip.read_row(bank, row)
        if self._faults is not None:
            bits = self._faults.corrupt_bits(bits)
        if self._rec is not None:
            # Recorded after the data round-trip so the record can carry
            # the payload digest; ``ps`` is still the issue-time clock.
            self._rec.on_read(issue_ps, bank, row,
                              digest=data_digest(bits))
        return bits

    def read_row_mismatches(self, bank: int, row: int) -> list[int]:
        """Bit positions differing from the last written data."""
        self._chip.check_row(bank, row)
        return self._read_mismatches(bank, row)

    def read_rows_mismatches(self, bank: int,
                             rows: Sequence[int]) -> list[list[int]]:
        """:meth:`read_row_mismatches` of each of *rows* in order, in
        one chip call; returns one mismatch list per row.  Validated and
        issued as :meth:`write_rows` is."""
        chip = self._chip
        chip.check_rows(bank, rows)
        if self._faults is not None or not rows:
            return [self._read_mismatches(bank, row) for row in rows]
        issue_ps = chip.now_ps
        self._count_acts(bank, len(rows))
        mismatches = chip.read_rows_mismatches(bank, rows)
        if self._rec is not None:
            step_ps = self.timing.row_read_ps
            for row, positions in zip(rows, mismatches):
                self._rec.on_read(issue_ps, bank, row,
                                  digest=mismatch_digest(positions),
                                  mismatches=True)
                issue_ps += step_ps
        return mismatches

    def _read_mismatches(self, bank: int, row: int) -> list[int]:
        """Issue one validated mismatch RD: count, tick, read, corrupt
        (with an injector), record."""
        issue_ps = self._chip.now_ps if self._rec is not None else 0
        self._count_acts(bank, 1)
        self._tick()
        mismatches = self._chip.read_row_mismatches(bank, row)
        if self._faults is not None:
            mismatches = self._faults.corrupt_mismatches(
                self._chip.config.row_bits, mismatches)
        if self._rec is not None:
            self._rec.on_read(issue_ps, bank, row,
                              digest=mismatch_digest(mismatches),
                              mismatches=True)
        return mismatches

    # -- hammering ------------------------------------------------------------
    # Entry points only build or forward an operand for one of the two
    # issue cores, and never call each other (a wrapper around each
    # then counts every command once).

    def hammer(self, bank: int, pattern: Iterable[tuple[int, int]],
               mode: HammerMode = HammerMode.INTERLEAVED) -> None:
        """Hammer rows of one bank with per-row counts in *mode* order."""
        self._issue_hammer(ActBatch(
            bank=bank, pattern=tuple((row, count) for row, count in pattern),
            mode=mode))

    def hammer_single(self, bank: int, row: int, count: int) -> None:
        """Hammer one row *count* times (a cascaded run)."""
        self._issue_hammer(single_row_batch(bank, row, count))

    def _hammer_prebuilt(self, batch: ActBatch) -> None:
        """:meth:`hammer` with a precompiled batch (payload executor)."""
        self._issue_hammer(batch)

    def hammer_multi(self, per_bank: Mapping[int, Iterable[tuple[int, int]]],
                     mode: HammerMode = HammerMode.CASCADED) -> None:
        """Hammer several banks in parallel (at most 4: tFAW)."""
        self._issue_hammer_multi([
            ActBatch(bank=bank,
                     pattern=tuple((row, count) for row, count in rows),
                     mode=mode)
            for bank, rows in per_bank.items()])

    def _hammer_multi_prebuilt(self, batches: tuple[ActBatch, ...]) -> None:
        """:meth:`hammer_multi` with precompiled batches (payload path);
        the interned tuple itself reaches the chip's group memo."""
        self._issue_hammer_multi(batches)

    def _issue_hammer(self, batch: ActBatch) -> None:
        """Issue one single-bank hammer: validate, record, count, tick,
        run (twice if the injector duplicates it).

        The chip validates first, so a command it rejects leaves the
        ledger, the trace and the injector untouched.
        """
        chip = self._chip
        chip.check_batch(batch)
        if self._rec is not None:
            self._rec.on_act(chip.now_ps, batch.bank, batch.pattern,
                             batch.mode)
        self._count_acts(batch.bank, batch.total)
        self._tick()
        chip.hammer(batch)
        if self._faults is not None and self._faults.duplicate_hammer(
                chip.now_ps):
            chip.hammer(batch)

    def _issue_hammer_multi(self, batches: Sequence[ActBatch]) -> None:
        """Issue one multi-bank hammer group: validate, record and count
        each batch, tick, run."""
        chip = self._chip
        chip.check_group(batches)
        for batch in batches:
            if self._rec is not None:
                self._rec.on_act(chip.now_ps, batch.bank, batch.pattern,
                                 batch.mode, group=len(batches))
            self._count_acts(batch.bank, batch.total)
        self._tick()
        chip.hammer_multi(batches)

    def _try_fused_hammer(self, batch: ActBatch, repeats: int,
                          step_ps: int) -> bool:
        """Execute *repeats* identical hammer commands in one fused pass.

        Returns ``False`` — having done nothing — unless fusion is
        provably equivalent to the per-command loop: no fault injector
        (whose per-command RNG draws fusion would skip), and the chip
        certifies the intermediate settles as no-ops
        (:meth:`~repro.dram.DramChip.fusion_safe`).  On the fused path
        the trace records are emitted with the same computed timestamps
        the per-command loop would have stamped.
        """
        if (self._faults is not None or repeats < 2
                or step_ps != self.timing.hammer_duration_ps(batch.total)
                or not self._chip.fusion_safe(batch, step_ps)):
            return False
        if self._rec is not None:
            now = self._chip.now_ps
            for index in range(repeats):
                self._rec.on_act(now + index * step_ps, batch.bank,
                                 batch.pattern, batch.mode)
        self._count_acts(batch.bank, batch.total * repeats)
        self._chip.hammer_repeated(batch, repeats)
        return True

    # -- refresh and time -----------------------------------------------------

    def refresh(self, count: int = 1, at_nominal_rate: bool = False) -> None:
        """Issue *count* REF commands.

        ``at_nominal_rate`` spaces them at tREFI (one per 7.8 us), as a
        standard memory controller would; otherwise they are issued
        back-to-back (each still occupying tRFC).
        """
        spacing = self.timing.trefi_ps if at_nominal_rate else None
        # Validated before anything is recorded, counted or ticked: the
        # injector's one-REF-at-a-time path never asks the chip about
        # *count* itself.
        self._chip.check_refresh(count, spacing)
        if self._rec is not None:
            self._rec.on_ref(self._chip.now_ps, self.ref_count, count,
                             nominal=at_nominal_rate)
        if self._metrics is not None:
            self._metrics.observe("host.acts_per_ref_window",
                                  self._window_acts)
            self._metrics.inc("host.refs", count)
            self._window_acts = 0
        self._tick()
        if self._faults is not None and self._faults.perturbs_refs:
            self._refresh_faulty(count, spacing)
        else:
            self._chip.refresh(count=count, spacing_ps=spacing)
        self.ref_count += count

    def _refresh_faulty(self, count: int, spacing: int | None) -> None:
        """Issue REFs one at a time so each can be dropped or duplicated.

        The host's own ledger (:attr:`ref_count`) advances by the full
        *count* regardless: a flaky rig desynchronizes the experimenter's
        REF index from the chip's refresh engine, which is precisely the
        fault the hardened calibrator must survive.
        """
        chip = self._chip
        for _ in range(count):
            repeats = self._faults.ref_repeats(chip.now_ps)
            if repeats == 0:
                # The command was lost but its bus slot still passes.
                chip.wait(spacing if spacing is not None
                          else self.timing.trfc_ps)
                continue
            chip.refresh(count=1, spacing_ps=spacing)
            for _ in range(repeats - 1):
                chip.raw_refresh()

    def wait(self, duration_ps: int) -> None:
        """Idle without issuing any command (refresh stays disabled)."""
        self._chip.check_wait(duration_ps)
        if self._rec is not None:
            self._rec.on_wait(self._chip.now_ps, duration_ps)
        self._chip.wait(duration_ps)
        self._tick()

    def wait_us(self, duration_us: float) -> None:
        self.wait(us(duration_us))

    def wait_ms(self, duration_ms: float) -> None:
        self.wait(ms(duration_ms))

    # -- convenience for dummy-row selection ---------------------------------

    def pick_rows_away_from(self, bank: int, keep_clear: Iterable[int],
                            count: int, min_distance: int = 100,
                            rng: np.random.Generator | None = None
                            ) -> list[int]:
        """Pick *count* rows at least *min_distance* away from every row in
        *keep_clear* (TRR Analyzer's dummy-row rule, §5.2)."""
        protected = sorted(set(keep_clear))
        if rng is None:
            rng = np.random.default_rng(0)
        candidates = []
        seen: set[int] = set()
        attempts = 0
        limit = 200 * max(count, 1)
        while len(candidates) < count:
            attempts += 1
            if attempts > limit:
                raise ConfigError(
                    f"cannot find {count} rows {min_distance} away from "
                    f"{len(protected)} protected rows in bank {bank}")
            row = int(rng.integers(0, self.rows_per_bank))
            if row in seen:
                continue
            seen.add(row)
            if all(abs(row - p) >= min_distance for p in protected):
                candidates.append(row)
        return candidates
