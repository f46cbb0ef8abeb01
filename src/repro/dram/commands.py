"""Compact representations of DDR command sequences.

The simulator never materializes one object per ACT — a single Row Scout
pass over a 64K-row bank already needs ~128K activations, and a
vulnerability sweep needs billions.  Instead, hammering is expressed as an
:class:`ActBatch`: an exact, ordered description of an activation sequence
(``[(row, count), ...]`` plus an ordering mode) that every consumer
(the disturbance model, each TRR mechanism) can ingest in O(#rows) while
preserving the *order-dependent* semantics the paper shows matter:

* sampling-based TRR keeps the **last** sampled activation (§6.2.2);
* window-based TRR consumes activation *slots* in order (§6.3);
* interleaved vs. cascaded hammering disturb victims differently (§5.2).
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from ..errors import ConfigError


class HammerMode(enum.Enum):
    """Ordering of activations when several rows are hammered together.

    INTERLEAVED hammers each row one activation at a time, round-robin,
    until all rows reach their counts.  CASCADED hammers one row until its
    full count before moving to the next (§5.2).
    """

    INTERLEAVED = "interleaved"
    CASCADED = "cascaded"


@dataclass(frozen=True)
class ActBatch:
    """An ordered batch of activations to one bank.

    ``pattern`` is a sequence of ``(row, count)`` pairs.  Under CASCADED
    mode the concrete ACT sequence is the runs concatenated in order.
    Under INTERLEAVED mode rows are activated round-robin: the i-th ACT
    goes to the row with the smallest index among those that still have
    activations left (counts may differ).
    """

    bank: int
    pattern: tuple[tuple[int, int], ...]
    mode: HammerMode = HammerMode.CASCADED
    #: ACT-order facts the hot path consults per batch (disturbance,
    #: TRR, timing), derived once in ``__post_init__``: the batch is
    #: frozen, so they never change.  ``first_row``/``last_row`` receive
    #: the first/last activation (``None`` when ``total == 0``).
    total: int = field(init=False, repr=False, compare=False)
    first_row: int | None = field(init=False, repr=False, compare=False)
    last_row: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pattern = self.pattern
        if not pattern:
            raise ConfigError("ActBatch pattern must not be empty")
        interleaved = self.mode is HammerMode.INTERLEAVED
        total = 0
        first_row = last_row = None
        peak = 0
        for row, count in pattern:
            if count < 0:
                raise ConfigError(f"negative hammer count for row {row}")
            if count:
                total += count
                if first_row is None:
                    first_row = row
                # A cascade ends on its last non-empty run; round-robin
                # ends on the last row holding the largest count.
                if not interleaved or count >= peak:
                    peak = count
                    last_row = row
        # Frozen: write the derived facts straight into the instance
        # dict (cheaper than object.__setattr__ on a per-ACT path).
        facts = self.__dict__
        facts["total"] = total
        facts["first_row"] = first_row
        facts["last_row"] = last_row
        if interleaved:
            rows = [row for row, _ in pattern]
            if len(set(rows)) != len(rows):
                raise ConfigError(
                    "INTERLEAVED batches require distinct rows "
                    "(interleaving a row with itself is a cascaded run)")

    #: Memo of :meth:`run_stats`, set on first use (not a field).
    _run_stats = None

    def counts_by_row(self) -> dict[int, int]:
        """Aggregate activation counts per row (order-insensitive view)."""
        counts: dict[int, int] = {}
        for row, count in self.pattern:
            counts[row] = counts.get(row, 0) + count
        return counts

    def row_at(self, index: int) -> int:
        """Return the row receiving the *index*-th activation (0-based).

        This realizes the exact ACT ordering without materializing it.
        """
        if index < 0 or index >= self.total:
            raise IndexError(f"activation index {index} out of range")
        if self.mode is HammerMode.CASCADED:
            offset = index
            for row, count in self.pattern:
                if offset < count:
                    return row
                offset -= count
            raise AssertionError("unreachable")
        return self._interleaved_row_at(index)

    def _interleaved_row_at(self, index: int) -> int:
        # Round-robin over rows; a row drops out once its count is spent.
        # Walk whole "rounds" at a time so cost is O(#rows * #distinct counts).
        remaining = [(row, count) for row, count in self.pattern]
        offset = index
        while True:
            active = [(row, count) for row, count in remaining if count > 0]
            width = len(active)
            min_count = min(count for _, count in active)
            full_rounds_acts = width * min_count
            if offset < full_rounds_acts:
                return active[offset % width][0]
            offset -= full_rounds_acts
            remaining = [(row, count - min_count) for row, count in active]

    def run_stats(self) -> Mapping[int, tuple[int, int]]:
        """Return ``{row: (num_runs, total_acts)}`` for the ACT sequence.

        A *run* is a maximal stretch of consecutive activations to the
        same row.  The disturbance model weights the first activation of
        each run at full strength and the rest at the reduced cascaded
        weight (§5.2: interleaved hammering disturbs victims far more per
        activation than cascaded hammering).  Computed analytically in
        O(#rows x #distinct counts) — never by expanding the sequence —
        and only once per batch, which is frozen; every call returns the
        same read-only view.
        """
        stats = self._run_stats
        if stats is None:
            stats = self.__dict__["_run_stats"] = MappingProxyType(
                self._count_runs())
        return stats

    def _count_runs(self) -> dict[int, tuple[int, int]]:
        stats: dict[int, list[int]] = {}

        def add(row: int, runs: int, acts: int) -> None:
            entry = stats.setdefault(row, [0, 0])
            entry[0] += runs
            entry[1] += acts

        if self.mode is HammerMode.CASCADED:
            previous_row: int | None = None
            for row, count in self.pattern:
                if count == 0:
                    continue
                # Adjacent same-row entries merge into one run.
                add(row, 0 if row == previous_row else 1, count)
                previous_row = row
            return {row: (runs, acts) for row, (runs, acts) in stats.items()}

        remaining = [(row, count) for row, count in self.pattern if count > 0]
        previous_last: int | None = None
        while remaining:
            if len(remaining) == 1:
                row, count = remaining[0]
                # A solo tail is one cascaded run — merged with the last
                # activation of the previous round if it was the same row.
                add(row, 0 if row == previous_last else 1, count)
                break
            min_count = min(count for _, count in remaining)
            # All remaining rows alternate for min_count rounds: every
            # activation starts a new run, except the block's first one
            # when it continues the previous block's final row.
            for i, (row, _count) in enumerate(remaining):
                runs = min_count
                if i == 0 and row == previous_last:
                    runs -= 1
                add(row, runs, min_count)
            previous_last = remaining[-1][0]
            remaining = [(row, count - min_count)
                         for row, count in remaining if count > min_count]
        return {row: (runs, acts) for row, (runs, acts) in stats.items()}


def single_row_batch(bank: int, row: int, count: int) -> ActBatch:
    """Convenience constructor for hammering a single row."""
    return ActBatch(bank=bank, pattern=((row, count),),
                    mode=HammerMode.CASCADED)
