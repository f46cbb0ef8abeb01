"""The simulated DRAM chip: virtual clock, banks, refresh, TRR hook.

:class:`DramChip` is the device-under-test.  Hosts (the SoftMC layer)
drive it through logical row addresses and DDR-shaped operations; the
chip internally decodes logical to physical addresses, applies
disturbance and retention physics, executes regular refresh slots, and
gives its TRR mechanism the chance to piggyback victim refreshes on
every REF command — all invisible to the host except through data.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ConfigError
from ..rng import SeedSequenceFactory
from ..trr.base import NoTrr, TrrContext, TrrMechanism
from ..units import NOMINAL_REFS_PER_WINDOW
from .bank import Bank
from .commands import ActBatch, HammerMode
from .disturbance import DisturbanceConfig
from .environment import ChipEnvironment
from .mapping import RowMapping, make_mapping
from .patterns import DataPattern
from .refresh import RefreshEngine
from .retention import RetentionConfig
from .timing import DDR4_DEFAULT, TimingParameters

#: Bound of each per-chip identity memo (cleared when full).
_MEMO_ENTRIES = 32


@dataclass(frozen=True)
class DeviceConfig:
    """Static description of a simulated DRAM chip."""

    name: str = "generic-ddr4"
    serial: int = 0
    num_banks: int = 16
    rows_per_bank: int = 32_768
    row_bits: int = 8_192
    timing: TimingParameters = DDR4_DEFAULT
    mapping_scheme: str = "direct"
    retention: RetentionConfig = field(default_factory=RetentionConfig)
    disturbance: DisturbanceConfig = field(
        default_factory=DisturbanceConfig)
    #: REF commands per full regular-refresh pass (Vendor A: 3758).
    refresh_cycle_refs: int = NOMINAL_REFS_PER_WINDOW

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ConfigError("num_banks must be positive")
        if self.rows_per_bank <= 0:
            raise ConfigError("rows_per_bank must be positive")
        if self.row_bits <= 0 or self.row_bits % 64:
            raise ConfigError("row_bits must be a positive multiple of 64")

    def scaled(self, **overrides) -> "DeviceConfig":
        """Return a copy with some fields replaced (bench scaling helper)."""
        return replace(self, **overrides)


class ChipStats:
    """Mutable command counters (reads by tests and benchmarks)."""

    __slots__ = ("activates", "refreshes", "row_reads", "row_writes",
                 "trr_refreshes")

    def __init__(self) -> None:
        self.activates = 0
        self.refreshes = 0
        self.row_reads = 0
        self.row_writes = 0
        self.trr_refreshes = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class DramChip:
    """A simulated DDR4 chip with an (optional, hidden) TRR mechanism."""

    def __init__(self, config: DeviceConfig,
                 trr: TrrMechanism | None = None) -> None:
        self.config = config
        self.now_ps = 0
        self.stats = ChipStats()
        self._seeds = SeedSequenceFactory("chip", config.name, config.serial)
        self.refresh_engine = RefreshEngine(
            config.rows_per_bank, config.refresh_cycle_refs)
        self.mapping: RowMapping = make_mapping(
            config.mapping_scheme, config.rows_per_bank)
        #: Physical environment seam for fault injection; neutral (and a
        #: strict no-op) unless a FaultInjector drives it.
        self.environment = ChipEnvironment()
        self.banks = [
            Bank(index, config.rows_per_bank, config.row_bits,
                 config.retention, config.disturbance, self._seeds,
                 self.refresh_engine, environment=self.environment)
            for index in range(config.num_banks)
        ]
        self.trr = trr if trr is not None else NoTrr()
        self.trr.bind(TrrContext(
            num_banks=config.num_banks,
            num_rows=config.rows_per_bank,
            paired_rows=config.disturbance.paired_coupling))
        #: Whether the mechanism refreshes victims during an ACT batch
        #: (PARA): only such mechanisms override the base class's empty
        #: ``immediate_refreshes``, so the others skip the call.
        self._act_coupled = (type(self.trr).immediate_refreshes
                             is not TrrMechanism.immediate_refreshes)
        #: Identity-keyed memos of state-independent command work, as
        #: ``(key object, value)``: host batch -> physical twin, and
        #: interned multi-bank group -> (physical batches, duration).
        #: Batches are frozen and the mapping is fixed, so a translation
        #: (and its range checks) holds for this chip's lifetime; the
        #: held key keeps its id from being reused.  Replayed attack
        #: windows hit them; fresh live batches only churn them, hence
        #: the small bound.
        self._physical: dict[int, tuple] = {}
        self._groups: dict[int, tuple] = {}

    # -- clock ---------------------------------------------------------------

    def wait(self, duration_ps: int) -> None:
        """Let the chip sit idle (no refresh!) for *duration_ps*."""
        self.check_wait(duration_ps)
        self.now_ps += duration_ps

    # -- internal helpers -----------------------------------------------------

    def _bank(self, bank: int) -> Bank:
        if 0 <= bank < self.config.num_banks:
            return self.banks[bank]
        raise ConfigError(
            f"bank {bank} out of range [0, {self.config.num_banks})")

    def _physical_batch(self, batch: ActBatch) -> ActBatch:
        """*batch*'s physical twin, translated once per batch object."""
        memo = self._physical
        hit = memo.get(id(batch))
        if hit is not None and hit[0] is batch:
            return hit[1]
        # Check the bank with the rows, so a multi-bank group is fully
        # validated before any of it is ingested.
        self._check_bank(batch.bank)
        to_physical = self.mapping.to_physical
        physical = ActBatch(
            bank=batch.bank,
            pattern=tuple((to_physical(row), count)
                          for row, count in batch.pattern),
            mode=batch.mode)
        if len(memo) >= _MEMO_ENTRIES:
            memo.clear()
        memo[id(batch)] = (batch, physical)
        return physical

    def _ingest(self, physical_batch: ActBatch,
                overwrite: bool = False) -> None:
        """Feed one physical ACT batch to physics and TRR (*overwrite*:
        see :meth:`Bank.absorb_hammering`)."""
        bank = physical_batch.bank
        self._bank(bank).absorb_hammering(physical_batch, self.now_ps,
                                          overwrite)
        self.trr.on_activations(bank, physical_batch, self.now_ps)
        if self._act_coupled:
            for victim_bank, victim_row in self.trr.immediate_refreshes(
                    bank, physical_batch):
                self._bank(victim_bank).refresh_rows([victim_row],
                                                     self.now_ps)
                self.stats.trr_refreshes += 1
        self.stats.activates += physical_batch.total

    def _regular_refresh(self) -> None:
        """One REF's regular slot, in the banks that track a row in it."""
        now_ps = self.now_ps
        slot = self.refresh_engine.on_ref(now_ps)
        for bank in self.banks:
            if slot in bank.slot_rows:
                bank.regular_refresh(slot, now_ps)

    def _single_act(self, bank: int, logical_row: int,
                    overwrite: bool = False) -> int:
        """Account for the implicit ACT of a row read/write; returns the
        physical row."""
        physical = self.mapping.to_physical(logical_row)
        batch = ActBatch(bank=bank, pattern=((physical, 1),),
                         mode=HammerMode.CASCADED)
        self._ingest(batch, overwrite)
        return physical

    # -- command validation (no side effect) ----------------------------------

    def _check_address(self, logical_row: int) -> None:
        # A float or numpy row would pass the range check and fail only
        # inside the bank (or in the trace's JSON), after the host had
        # already counted and recorded the command.
        if not isinstance(logical_row, int):
            raise ConfigError(
                f"row address must be an int, got {logical_row!r}")
        self.mapping._check(logical_row)

    def _check_bank(self, bank: int) -> None:
        # As for a row address: a numpy bank would pass the range check
        # and fail only in the trace's JSON, and a float one in the bank
        # list, after the host had already recorded and counted.
        if not isinstance(bank, int):
            raise ConfigError(f"bank must be an int, got {bank!r}")
        self._bank(bank)

    def check_row(self, bank: int, logical_row: int) -> None:
        """Raise unless a row read or write of *logical_row* in *bank*
        would be accepted: an int row and an int bank in range, nothing
        else."""
        self._check_address(logical_row)
        self._check_bank(bank)

    def check_rows(self, bank: int, logical_rows: Sequence[int]) -> None:
        """Raise unless :meth:`write_rows` or
        :meth:`read_rows_mismatches` would accept the whole range."""
        num_rows = self.mapping.num_rows
        for row in logical_rows:
            # Accepts what _check_address accepts; it raises the error.
            if not (isinstance(row, int) and 0 <= row < num_rows):
                self._check_address(row)
        self._check_bank(bank)

    def check_batch(self, batch: ActBatch) -> None:
        """Raise unless :meth:`hammer` would accept *batch*.  The
        translation is memoized, so the hammer that follows reuses it."""
        self._physical_batch(batch)

    def check_group(self, batches: Sequence[ActBatch]) -> None:
        """Raise unless :meth:`hammer_multi` would accept *batches*; an
        interned group's plan is memoized (see :meth:`_multi_group`)."""
        if batches:
            self._multi_group(batches)

    def check_refresh(self, count: int,
                      spacing_ps: int | None = None) -> None:
        """Raise unless :meth:`refresh` would accept its arguments."""
        if not isinstance(count, (int, np.integer)) or count < 0:
            raise ConfigError("refresh count must be a non-negative "
                              f"integer, got {count!r}")
        if (spacing_ps is not None
                and spacing_ps < self.config.timing.trfc_ps):
            raise ConfigError("REF spacing below tRFC")

    def check_wait(self, duration_ps: int) -> None:
        """Raise unless :meth:`wait` would accept *duration_ps*."""
        if not isinstance(duration_ps, (int, np.integer)) or duration_ps < 0:
            raise ConfigError("wait duration must be a non-negative "
                              f"integer of picoseconds, got "
                              f"{duration_ps!r}")

    # -- host-visible operations (logical addressing) -------------------------

    def write_row(self, bank: int, logical_row: int,
                  pattern: DataPattern) -> None:
        """Activate *logical_row* and overwrite it with *pattern*."""
        physical = self._single_act(bank, logical_row, overwrite=True)
        self._bank(bank).write(physical, pattern, self.now_ps)
        self.now_ps += self.config.timing.row_write_ps
        self.stats.row_writes += 1

    def read_row(self, bank: int, logical_row: int) -> np.ndarray:
        """Activate and read the full row; returns a 0/1 uint8 bit array."""
        physical = self._single_act(bank, logical_row)
        bits = self._bank(bank).read(physical, self.now_ps)
        self.now_ps += self.config.timing.row_read_ps
        self.stats.row_reads += 1
        return bits

    def read_row_mismatches(self, bank: int, logical_row: int) -> list[int]:
        """Read the row and return bit positions differing from the data
        last written to it (the retention side channel's raw signal)."""
        physical = self._single_act(bank, logical_row)
        mismatches = self._bank(bank).read_mismatches(physical, self.now_ps)
        self.now_ps += self.config.timing.row_read_ps
        self.stats.row_reads += 1
        return mismatches

    # A range command is the per-row commands back to back: row i's ACT
    # and data transfer happen at ``start + i * step``, and the TRR
    # mechanism sees the same one-ACT sequence through one hook call.
    # The mechanism's and the bank's state never read each other, so the
    # bank may take the whole range before the mechanism does.  A
    # mechanism that refreshes during ACTs (PARA) draws per ACT and
    # refreshes rows the next ACT may touch, so its chip keeps the
    # per-row loop.

    def write_rows(self, bank: int, logical_rows: Sequence[int],
                   pattern: DataPattern) -> None:
        """:meth:`write_row` each of *logical_rows* in order."""
        if self._act_coupled:
            for row in logical_rows:
                self.write_row(bank, row, pattern)
            return
        to_physical = self.mapping.to_physical
        physical = [to_physical(row) for row in logical_rows]
        start, step = self.now_ps, self.config.timing.row_write_ps
        self._bank(bank).write_rows(physical, pattern, start, step)
        self._range_activated(bank, physical, step)
        self.stats.row_writes += len(physical)

    def read_rows_mismatches(self, bank: int, logical_rows: Sequence[int]
                             ) -> list[list[int]]:
        """:meth:`read_row_mismatches` each of *logical_rows* in order;
        returns one mismatch list per row."""
        if self._act_coupled:
            return [self.read_row_mismatches(bank, row)
                    for row in logical_rows]
        to_physical = self.mapping.to_physical
        physical = [to_physical(row) for row in logical_rows]
        start, step = self.now_ps, self.config.timing.row_read_ps
        mismatches = self._bank(bank).read_rows_mismatches(physical, start,
                                                           step)
        self._range_activated(bank, physical, step)
        self.stats.row_reads += len(physical)
        return mismatches

    def _range_activated(self, bank: int, physical: list[int],
                         step_ps: int) -> None:
        """Feed a range's ACTs, one per *step_ps* from now, to TRR and
        the stats, and move the clock past the range."""
        self.trr.on_row_activations(bank, physical, self.now_ps, step_ps)
        self.stats.activates += len(physical)
        self.now_ps += len(physical) * step_ps

    def hammer(self, batch: ActBatch) -> None:
        """Execute an ordered ACT/PRE batch against one bank."""
        physical = self._physical_batch(batch)
        self._ingest(physical)
        self.now_ps += self.config.timing.hammer_duration_ps(batch.total)

    def fusion_safe(self, batch: ActBatch, step_ps: int) -> bool:
        """Whether repeating *batch* back-to-back may run fused.

        Requires a TRR mechanism that declares batch-merge associativity
        (only stateless mechanisms do) and a bank-level proof that the
        skipped intermediate settles commit nothing.  Any validation
        error — e.g. an out-of-range aggressor — answers ``False`` so
        the per-command path raises it at the exact command it belongs
        to.
        """
        if not getattr(self.trr, "merge_associative", False):
            return False
        if batch.total == 0:
            return False
        try:
            physical = self._physical_batch(batch)
            return self._bank(physical.bank).fusion_safe(physical, step_ps)
        except ConfigError:
            return False

    def hammer_repeated(self, batch: ActBatch, repeats: int) -> None:
        """Execute *repeats* identical hammer batches in one fused pass.

        Caller contract: :meth:`fusion_safe` answered ``True`` for this
        batch at the per-command step.  TRR hooks are skipped — safe
        precisely because ``merge_associative`` mechanisms have no-op
        hooks — and the physics collapses into
        :meth:`Bank.absorb_repeated`.
        """
        if repeats <= 0:
            return
        if not getattr(self.trr, "merge_associative", False):
            raise ConfigError(
                "hammer_repeated requires a merge-associative TRR")
        physical = self._physical_batch(batch)
        step = self.config.timing.hammer_duration_ps(batch.total)
        self._bank(physical.bank).absorb_repeated(
            physical, self.now_ps, repeats, step)
        self.stats.activates += repeats * physical.total
        self.now_ps += repeats * step

    def hammer_multi(self, batches: Sequence[ActBatch]) -> None:
        """Hammer several banks in parallel (tFAW-limited, max 4 banks).

        The whole group is validated before any bank ingests anything,
        so a rejected group leaves the chip untouched.
        """
        if not batches:
            return
        physical, duration_ps = self._multi_group(batches)
        for batch in physical:
            self._ingest(batch)
        self.now_ps += duration_ps

    def _multi_group(self, batches: Sequence[ActBatch]
                     ) -> tuple[tuple[ActBatch, ...], int]:
        """Validate a multi-bank group; return its physical batches and
        tFAW-limited duration.  An interned (tuple) group is planned
        once per chip; a list may change between calls, so it is not."""
        groups = self._groups
        hit = groups.get(id(batches))
        if hit is not None and hit[0] is batches:
            return hit[1]
        if len({batch.bank for batch in batches}) != len(batches):
            raise ConfigError("hammer_multi requires distinct banks")
        duration_ps = self.config.timing.multi_bank_hammer_duration_ps(
            max(batch.total for batch in batches), len(batches))
        plan = (tuple(self._physical_batch(batch) for batch in batches),
                duration_ps)
        if isinstance(batches, tuple):
            if len(groups) >= _MEMO_ENTRIES:
                groups.clear()
            groups[id(batches)] = (batches, plan)
        return plan

    def refresh(self, count: int = 1, spacing_ps: int | None = None) -> None:
        """Issue *count* REF commands.

        ``spacing_ps`` is the time between consecutive REF issue points
        (defaults to back-to-back: each REF only consumes tRFC).  Pass
        ``timing.trefi_ps`` to refresh at the nominal controller cadence.
        """
        self.check_refresh(count, spacing_ps)
        timing = self.config.timing
        for _ in range(count):
            start = self.now_ps
            self.now_ps += timing.trfc_ps
            self._regular_refresh()
            for victim_bank, victim_row in self.trr.on_refresh():
                self._bank(victim_bank).refresh_rows(
                    [victim_row], self.now_ps)
                self.stats.trr_refreshes += 1
            self.stats.refreshes += 1
            if spacing_ps is not None:
                self.now_ps = start + spacing_ps

    # -- raw command primitives (no clock movement; used by DdrBus) -----------

    def raw_activate(self, bank: int, logical_row: int) -> int:
        """One ACT's physics (disturb neighbors, feed TRR, recharge the
        row) without advancing the clock — the caller owns DDR timing."""
        return self._single_act(bank, logical_row)

    def raw_read(self, bank: int, logical_row: int) -> np.ndarray:
        """Read an (already activated) row's bits; no clock movement, no
        extra ACT — the activation happened at raw_activate time."""
        physical = self.mapping.to_physical(logical_row)
        bits = self._bank(bank).read(physical, self.now_ps)
        self.stats.row_reads += 1
        return bits

    def raw_write(self, bank: int, logical_row: int,
                  pattern: DataPattern) -> None:
        """Overwrite an (already activated) row; no clock movement."""
        physical = self.mapping.to_physical(logical_row)
        self._bank(bank).write(physical, pattern, self.now_ps)
        self.stats.row_writes += 1

    def raw_refresh(self) -> None:
        """One REF's internal work (regular slot + TRR piggyback) without
        advancing the clock."""
        self._regular_refresh()
        for victim_bank, victim_row in self.trr.on_refresh():
            self._bank(victim_bank).refresh_rows([victim_row], self.now_ps)
            self.stats.trr_refreshes += 1
        self.stats.refreshes += 1

    # -- ground truth (tests / evaluation reporting only) ---------------------

    def true_retention_ps(self, bank: int, logical_row: int,
                          pattern: DataPattern) -> int:
        physical = self.mapping.to_physical(logical_row)
        return self._bank(bank).true_retention_ps(physical, pattern)

    def true_min_hammer_threshold(self, bank: int, logical_row: int,
                                  pattern: DataPattern | None = None
                                  ) -> float:
        physical = self.mapping.to_physical(logical_row)
        return self._bank(bank).true_min_hammer_threshold(physical, pattern)
