"""Access-pattern interface and attack context.

An :class:`AccessPattern` describes what the attacker does within one
TRR-period *window* (``trr_period`` REF intervals): which rows get
hammered, in what order, with what dummy-row diversion.  The executor
repeats windows and measures the victim damage.

Patterns address rows physically (that is where adjacency lives) and
translate to logical addresses through the mapping recovered by §5.3
reverse engineering.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable
from dataclasses import dataclass, field

from ..dram.mapping import RowMapping
from ..errors import AttackConfigError
from .session import AttackSession


@dataclass(frozen=True)
class AttackContext:
    """Everything a pattern needs to aim at one victim row."""

    bank: int
    victim_physical: int
    mapping: RowMapping
    trr_period: int
    #: Same-bank dummy rows (physical), far from the victim.
    dummy_rows: tuple[int, ...] = ()
    #: One dummy row per bank (physical) for multi-bank diversion.
    dummy_banks: dict[int, int] = field(default_factory=dict)
    #: Pair-isolated coupling (vendor C modules C0-8): only the victim's
    #: odd-addressed upper neighbor disturbs it, so all hammering budget
    #: goes there (Obs C3, 7.3).
    paired: bool = False

    def __post_init__(self) -> None:
        if self.trr_period < 1:
            raise AttackConfigError("trr_period must be >= 1")
        if not 0 <= self.victim_physical < self.mapping.num_rows:
            raise AttackConfigError("victim row out of range")

    def logical(self, physical: int) -> int:
        return self.mapping.to_logical(physical)

    def aggressor_pair(self) -> tuple[int, int]:
        """Physical double-sided aggressors around the victim."""
        victim = self.victim_physical
        low = victim - 1 if victim > 0 else victim + 2
        high = victim + 1 if victim + 1 < self.mapping.num_rows \
            else victim - 2
        return low, high

    def aggressors(self) -> tuple[int, ...]:
        """Physical aggressors hammered for this victim.

        Always the double-sided pair: on pair-isolated chips an *even*
        victim's pair (v-1, v+1) is exactly the two odd-addressed
        aggressors of 7.3 — only v+1 couples to v, but alternating
        between the two keeps every activation at full disturbance
        strength (no cascaded-run attenuation).
        """
        if self.paired and self.victim_physical % 2:
            raise AttackConfigError(
                f"victim {self.victim_physical} is odd; pair-isolated "
                "chips only expose even victims (their aggressors are "
                "odd-addressed)")
        return self.aggressor_pair()

    def dummy_logical_rows(self) -> tuple[int, ...]:
        return tuple(self.logical(row) for row in self.dummy_rows)


def default_context(bank: int, victim_physical: int, mapping: RowMapping,
                    trr_period: int, num_banks: int,
                    dummy_count: int = 16,
                    paired: bool = False) -> AttackContext:
    """Build a context with deterministic dummy rows far from the victim.

    Dummies sit >= 1000 rows away (modulo bank size), spaced so their own
    blast radii never overlap the victim or each other.
    """
    num_rows = mapping.num_rows
    dummies = []
    base = (victim_physical + num_rows // 2) % num_rows
    for i in range(dummy_count):
        row = (base + 8 * i) % num_rows
        dummies.append(row)
    dummy_banks = {b: (victim_physical + num_rows // 3) % num_rows
                   for b in range(min(4, num_banks))}
    return AttackContext(bank=bank, victim_physical=victim_physical,
                         mapping=mapping, trr_period=trr_period,
                         dummy_rows=tuple(dummies),
                         dummy_banks=dummy_banks, paired=paired)


class AccessPattern(ABC):
    """One attacker strategy, executed window by window."""

    name: str = "pattern"

    @abstractmethod
    def aggressor_physical(self, context: AttackContext) -> tuple[int, ...]:
        """Rows whose data the executor should initialize as aggressors."""

    @abstractmethod
    def run_window(self, session: AttackSession,
                   context: AttackContext) -> None:
        """Execute one TRR-period window (must end REF-aligned)."""

    def window_key(self, session: AttackSession,
                   context: AttackContext) -> Hashable:
        """The host-visible state the next window reads.

        Beyond the pattern's own parameters, *context* and the timing
        (all constant within one executor run), a window's command
        stream may depend only on the state this key returns: the
        executor captures and compiles a window once per distinct key
        in a run and replays the stored payload whenever the key
        repeats.  The default is what :class:`AttackSession`'s pacing
        reads — the REF index within the TRR period and the time left
        in the current REF interval.  A pattern whose window reads any
        other host state must extend the key.
        """
        return (session.refs_into_window(), session.remaining_ps)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
