"""Window capture: record a pattern's commands, replay them compiled.

Custom access patterns (§7) decide what to issue from *host-visible
bookkeeping only* — the timing parameters, the REF ledger, and the
per-bank ACT counters.  That makes a window's command stream computable
without touching the chip: run the pattern against a
:class:`_VirtualHost` that mirrors those counters and records every
command into a :class:`~repro.softmc.SoftMCProgram`, then compile the
program and execute it on the real host in one batch.

The replayed stream is the exact stream the live pattern would have
issued, so traces, ledger and chip state are byte-identical.  A pattern
that needs something the mirror cannot provide (row data, the chip
clock) raises :class:`CaptureUnsupported`; the executor then falls back
to live per-command execution for the rest of the run.

The executor captures a window only when its
:meth:`~repro.attacks.base.AccessPattern.window_key` is new in the run.
A compiled window holds no absolute counter (only logical rows, counts,
modes, REF counts and waits), so while the key repeats the executor
re-executes the stored payload and moves the live session by the stored
deltas instead of capturing again.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..dram import DataPattern, HammerMode
from ..softmc import SoftMCHost, SoftMCProgram
from .session import AttackSession


class CaptureUnsupported(Exception):
    """The pattern consulted state the capture mirror cannot provide."""


class _VirtualHost:
    """Command recorder quacking like :class:`SoftMCHost`.

    Mirrors the bookkeeping attack patterns read (``timing``,
    ``ref_count``, ``acts_per_bank``, geometry) and appends every
    issued command to :attr:`program` instead of touching the chip.
    Data reads and the chip clock raise :class:`CaptureUnsupported` —
    they would require actually executing the commands.
    """

    def __init__(self, host: SoftMCHost) -> None:
        self.timing = host.timing
        self.num_banks = host.num_banks
        self.rows_per_bank = host.rows_per_bank
        self.row_bits = host.row_bits
        self.ref_count = host.ref_count
        self.acts_per_bank = dict(host.acts_per_bank)
        self.program = SoftMCProgram()

    def hammers_per_ref_interval(self) -> int:
        return self.timing.hammers_per_ref_interval()

    def _count_acts(self, bank: int, count: int) -> None:
        self.acts_per_bank[bank] = self.acts_per_bank.get(bank, 0) + count

    # -- recorded commands ----------------------------------------------------

    def hammer(self, bank: int, pattern: Iterable[tuple[int, int]],
               mode: HammerMode = HammerMode.INTERLEAVED) -> None:
        entries = tuple((row, count) for row, count in pattern)
        self._count_acts(bank, sum(count for _, count in entries))
        self.program.hammer(bank, entries, mode)

    def hammer_single(self, bank: int, row: int, count: int) -> None:
        self._count_acts(bank, count)
        self.program.hammer(bank, ((row, count),), HammerMode.CASCADED)

    def hammer_multi(self, per_bank: Mapping[int, Iterable[tuple[int, int]]],
                     mode: HammerMode = HammerMode.CASCADED) -> None:
        entries = {bank: tuple((row, count) for row, count in rows)
                   for bank, rows in per_bank.items()}
        for bank, rows in entries.items():
            self._count_acts(bank, sum(count for _, count in rows))
        self.program.hammer_multi(entries, mode)

    def refresh(self, count: int = 1, at_nominal_rate: bool = False) -> None:
        self.ref_count += count
        self.program.refresh(count, at_nominal_rate)

    def wait(self, duration_ps: int) -> None:
        self.program.wait(duration_ps)

    # -- unsupported: needs the real chip -------------------------------------

    def _unsupported(self, what: str) -> None:
        raise CaptureUnsupported(
            f"pattern consulted {what}; window is not capturable")

    @property
    def now_ps(self) -> int:
        self._unsupported("the chip clock")
        raise AssertionError  # pragma: no cover

    def write_row(self, bank: int, row: int, pattern: DataPattern) -> None:
        self._unsupported("row writes")

    def read_row(self, bank: int, row: int):
        self._unsupported("row data")

    def read_row_mismatches(self, bank: int, row: int):
        self._unsupported("row data")


def capture_window(pattern, session: AttackSession,
                   context) -> tuple[SoftMCProgram, AttackSession]:
    """Run one window of *pattern* against a virtual session.

    Returns the recorded program and the virtual session whose budget
    counters reflect the window's end state (seeded from *session* so
    absolute counter reads inside the pattern match the live run).
    Raises :class:`CaptureUnsupported` without side effects on the real
    host if the pattern is not capturable.
    """
    vhost = _VirtualHost(session._host)
    vsession = AttackSession(vhost, session.trr_period)
    vsession.adopt(session)
    pattern.run_window(vsession, context)
    return vhost.program, vsession
