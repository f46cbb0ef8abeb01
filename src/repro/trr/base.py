"""Interface between the DRAM chip and its in-DRAM TRR mechanism.

A Target Row Refresh mechanism observes the chip's activation stream and,
when the chip executes a REF command, may piggyback *TRR-induced*
refreshes of rows it believes are RowHammer victims (§2.4).  The
mechanism lives entirely behind the chip boundary: U-TRR's tools never
see this interface — they infer its behaviour through the retention side
channel.

Concrete mechanisms (:mod:`repro.trr.counter`, :mod:`repro.trr.sampling`,
:mod:`repro.trr.window`) implement the vendor behaviours the paper
reverse-engineered.  Each also carries a :class:`TrrGroundTruth`
descriptor used **only** by tests and the evaluation report to check what
the methodology recovered.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..dram.commands import ActBatch, single_row_batch
from ..errors import ConfigError


@dataclass(frozen=True)
class TrrContext:
    """Chip facts a TRR mechanism needs to compute victim rows."""

    num_banks: int
    num_rows: int
    #: Pair-isolated row organization (vendor C modules C0-8): a detected
    #: odd aggressor protects only its even pair row.
    paired_rows: bool = False

    def __post_init__(self) -> None:
        if self.num_banks <= 0 or self.num_rows <= 0:
            raise ConfigError("num_banks and num_rows must be positive")


@dataclass(frozen=True)
class TrrGroundTruth:
    """What a perfect reverse-engineering run should recover (Table 1)."""

    kind: str          #: "counter" | "sampling" | "window" | "none"
    trr_ref_period: int            #: every Nth REF is TRR-capable (0 = never)
    neighbors_refreshed: int       #: rows refreshed per TRR-induced refresh
    aggressor_capacity: int | None #: tracked aggressors (None = unknown/n.a.)
    per_bank: bool                 #: independent state per bank?
    extra: dict = field(default_factory=dict)


def neighbor_victims(row: int, radius: int, context: TrrContext) -> list[int]:
    """Victim rows a TRR refresh protects around detected aggressor *row*.

    With pair isolation the only victim is the aggressor's pair row; the
    general layout protects the ``radius`` physically closest rows on each
    side (vendor A refreshes radius 2: rows A-+1 and A-+2).
    """
    if context.paired_rows:
        pair = row ^ 1
        return [pair] if 0 <= pair < context.num_rows else []
    victims = []
    for distance in range(1, radius + 1):
        for victim in (row - distance, row + distance):
            if 0 <= victim < context.num_rows:
                victims.append(victim)
    return victims


class TrrMechanism(ABC):
    """Abstract in-DRAM TRR mechanism."""

    #: Whether observing K identical consecutive ACT batches is
    #: equivalent to observing them one at a time — i.e. the mechanism
    #: keeps no state the batch boundary could perturb.  Only stateless
    #: mechanisms may set this; it licenses the chip's fused hammer path
    #: (:meth:`repro.dram.DramChip.hammer_repeated`) to skip the
    #: per-batch TRR hooks.
    merge_associative = False

    def __init__(self) -> None:
        self._context: TrrContext | None = None

    def bind(self, context: TrrContext) -> None:
        """Attach the mechanism to a chip (called once by the chip)."""
        self._context = context

    @property
    def context(self) -> TrrContext:
        if self._context is None:
            raise ConfigError("TRR mechanism is not bound to a chip")
        return self._context

    @abstractmethod
    def on_activations(self, bank: int, batch: ActBatch,
                       now_ps: int = 0) -> None:
        """Observe an ordered batch of activations to *bank*.

        *now_ps* is the chip clock at the batch; rate-sensitive
        mechanisms (the counter table's burst filter) use it to tell
        rapid hammering from ordinary spaced-out row accesses.
        """

    def on_row_activations(self, bank: int, rows: Sequence[int],
                           first_ps: int, step_ps: int) -> None:
        """Observe one ACT of each of *rows* in order, the i-th at
        ``first_ps + i * step_ps`` (a row-range command's implicit ACTs).

        Defined as :meth:`on_activations` of one one-ACT batch per row;
        a mechanism may override it to skip building those batches, and
        must then keep exactly this effect.
        """
        now_ps = first_ps
        for row in rows:
            self.on_activations(bank, single_row_batch(bank, row, 1), now_ps)
            now_ps += step_ps

    def immediate_refreshes(self, bank: int,
                            batch: ActBatch) -> list[tuple[int, int]]:
        """Victims to refresh *during* the activation batch itself.

        TRR mechanisms piggyback on REF and return nothing here;
        ACT-coupled mitigations (PARA) override it.
        """
        return []

    @abstractmethod
    def on_refresh(self) -> list[tuple[int, int]]:
        """Observe one REF command; return ``(bank, physical_row)`` victims
        the chip must refresh on the mechanism's behalf."""

    @abstractmethod
    def power_cycle(self) -> None:
        """Clear all internal state (test/bench helper, not a DDR command)."""

    @property
    @abstractmethod
    def ground_truth(self) -> TrrGroundTruth:
        """Descriptor of the implanted behaviour (for validation only)."""


class NoTrr(TrrMechanism):
    """A chip with no RowHammer mitigation (pre-TRR behaviour)."""

    merge_associative = True

    def on_activations(self, bank: int, batch: ActBatch,
                       now_ps: int = 0) -> None:
        pass

    def on_row_activations(self, bank: int, rows: Sequence[int],
                           first_ps: int, step_ps: int) -> None:
        pass

    def on_refresh(self) -> list[tuple[int, int]]:
        return []

    def power_cycle(self) -> None:
        pass

    @property
    def ground_truth(self) -> TrrGroundTruth:
        return TrrGroundTruth(kind="none", trr_ref_period=0,
                              neighbors_refreshed=0, aggressor_capacity=0,
                              per_bank=False)
