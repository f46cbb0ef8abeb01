"""Counter-based TRR — vendor A (§6.1).

Reverse-engineered behaviour this implementation reproduces exactly:

* **Obs A1** — only every ``trr_ref_period``-th REF (9th for A_TRR1/2) can
  perform a TRR-induced refresh.
* **Obs A2** — a detected aggressor's ``neighbor_radius`` closest rows on
  each side are refreshed (radius 2 for A_TRR1, radius 1 for A_TRR2).
* **Obs A3** — two refresh types alternate across TRR-capable REFs:
  ``TREFa`` detects the table entry with the highest counter, ``TREFb``
  walks the table with a pointer, one entry per instance.
* **Obs A4** — a per-bank counter table tracks ``table_size`` (16) rows;
  every activation increments the corresponding counter.
* **Obs A5** — inserting into a full table evicts the entry with the
  smallest counter value.
* **Obs A6** — detection (by either type) resets the detected entry's
  counter to zero.
* **Obs A7** — entries persist until evicted; the table is never aged.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..dram.commands import ActBatch
from ..errors import ConfigError
from .base import TrrGroundTruth, TrrMechanism, neighbor_victims


@dataclass
class _TableEntry:
    row: int
    counter: int


class _BankTable:
    """One bank's counter table plus its TREFb pointer."""

    __slots__ = ("entries", "pointer")

    def __init__(self) -> None:
        self.entries: list[_TableEntry] = []
        self.pointer = 0

    def observe(self, row: int, count: int, capacity: int,
                allow_insert: bool = True) -> None:
        for entry in self.entries:
            if entry.row == row:
                entry.counter += count
                return
        if not allow_insert:
            return
        if len(self.entries) < capacity:
            self.entries.append(_TableEntry(row, count))
            return
        # Evict the smallest counter (Obs A5); replace in place so the
        # TREFb pointer keeps walking a stable 16-slot structure.
        victim_index = min(range(len(self.entries)),
                           key=lambda i: (self.entries[i].counter,
                                          self.entries[i].row))
        self.entries[victim_index] = _TableEntry(row, count)

    def detect_max(self) -> int | None:
        """TREFa: entry with the highest non-zero counter (Obs A3/A6)."""
        if not self.entries:
            return None
        best = max(self.entries, key=lambda e: (e.counter, -e.row))
        if best.counter == 0:
            return None
        best.counter = 0
        return best.row

    def detect_next(self) -> int | None:
        """TREFb: the entry under the pointer; advances the pointer."""
        if not self.entries:
            return None
        self.pointer %= len(self.entries)
        entry = self.entries[self.pointer]
        self.pointer += 1
        entry.counter = 0
        return entry.row


class CounterBasedTrr(TrrMechanism):
    """Vendor A's per-bank counter-table TRR."""

    def __init__(self, trr_ref_period: int = 9, table_size: int = 16,
                 neighbor_radius: int = 2, min_insert_count: int = 2) -> None:
        super().__init__()
        if trr_ref_period < 1:
            raise ConfigError("trr_ref_period must be >= 1")
        if table_size < 1:
            raise ConfigError("table_size must be >= 1")
        if neighbor_radius < 1:
            raise ConfigError("neighbor_radius must be >= 1")
        if min_insert_count < 1:
            raise ConfigError("min_insert_count must be >= 1")
        self.trr_ref_period = trr_ref_period
        self.table_size = table_size
        self.neighbor_radius = neighbor_radius
        #: Burst filter: a row is only *inserted* once it shows
        #: hammer-like behaviour — ``min_insert_count`` activations in
        #: one batch, or back-to-back single activations within the
        #: burst window below (existing entries always count every ACT).
        #: A real counter table needs such a filter: ordinary row
        #: accesses (spaced-out reads/writes) would otherwise thrash all
        #: 16 entries between any two REF commands, and RowHammer only
        #: arises from *rapid* activation in the first place.
        self.min_insert_count = min_insert_count
        #: Two consecutive ACTs to one row count as a burst only when
        #: closer than this (an ACT/PRE hammer cycle is ~50 ns; ordinary
        #: row operations are spaced by data bursts, >= ~500 ns).
        self.burst_window_ps = 200_000
        self._tables: dict[int, _BankTable] = {}
        #: Per-bank (last single-ACT row, its timestamp) for the
        #: cross-batch burst filter.
        self._last_single: dict[int, tuple[int, int]] = {}
        self._ref_count = 0
        self._next_is_tref_a = False  # first TRR-capable REF runs TREFb

    def _table(self, bank: int) -> _BankTable:
        table = self._tables.get(bank)
        if table is None:
            table = _BankTable()
            self._tables[bank] = table
        return table

    def on_activations(self, bank: int, batch: ActBatch,
                       now_ps: int = 0) -> None:
        table = self._table(bank)
        counts = batch.counts_by_row().items()
        for row, count in counts:
            if count <= 0:
                continue
            allow = count >= self.min_insert_count
            if not allow:
                previous = self._last_single.get(bank)
                allow = (previous is not None and previous[0] == row
                         and now_ps - previous[1] <= self.burst_window_ps)
            table.observe(row, count, self.table_size, allow)
        if batch.total == 1:
            self._last_single[bank] = (batch.row_at(0), now_ps)
        else:
            self._last_single.pop(bank, None)

    def on_row_activations(self, bank: int, rows: Sequence[int],
                           first_ps: int, step_ps: int) -> None:
        if not rows:
            return
        table = self._table(bank)
        # Each ACT is a one-ACT batch: it may insert only as a repeat of
        # the previous single ACT inside the burst window.
        insert_any = self.min_insert_count <= 1
        window = self.burst_window_ps
        last_row, last_ps = self._last_single.get(bank, (None, 0))
        now_ps = first_ps
        for row in rows:
            allow = insert_any or (row == last_row
                                   and now_ps - last_ps <= window)
            table.observe(row, 1, self.table_size, allow)
            last_row, last_ps = row, now_ps
            now_ps += step_ps
        self._last_single[bank] = (last_row, last_ps)

    def on_refresh(self) -> list[tuple[int, int]]:
        self._ref_count += 1
        if self._ref_count % self.trr_ref_period != 0:
            return []
        use_tref_a = self._next_is_tref_a
        self._next_is_tref_a = not use_tref_a
        victims: list[tuple[int, int]] = []
        for bank in range(self.context.num_banks):
            table = self._table(bank)
            detected = (table.detect_max() if use_tref_a
                        else table.detect_next())
            if detected is None:
                continue
            for victim in neighbor_victims(detected, self.neighbor_radius,
                                           self.context):
                victims.append((bank, victim))
        return victims

    def power_cycle(self) -> None:
        self._tables.clear()
        self._last_single.clear()
        self._ref_count = 0
        self._next_is_tref_a = False

    @property
    def ground_truth(self) -> TrrGroundTruth:
        return TrrGroundTruth(
            kind="counter",
            trr_ref_period=self.trr_ref_period,
            neighbors_refreshed=2 * self.neighbor_radius,
            aggressor_capacity=self.table_size,
            per_bank=True,
            extra={"tref_types": ("TREFa", "TREFb"),
                   "eviction": "min-counter",
                   "counter_reset_on_detect": True,
                   "min_insert_count": self.min_insert_count},
        )
