"""Attack executor: run a pattern for many windows, measure the damage.

Mirrors §7.2's setup: the SoftMC program executes a custom access
pattern for a fixed stretch of REF intervals while REF commands keep
flowing at the default rate; afterwards the victim rows are read back
and their bit flips counted.

Like the real rig, which compiles a pattern's payload once and loops it,
the executor compiles each distinct window once per run: a window is
captured and compiled only when the session starts it in a state
(:meth:`~repro.attacks.base.AccessPattern.window_key`) not yet seen in
the run; otherwise the stored payload is re-executed.  A window the
capture mirror cannot record
(:class:`~repro.attacks.capture.CaptureUnsupported`) sends the rest of
the run live, per command.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import NamedTuple

from ..dram.mapping import RowMapping
from ..dram.patterns import AllOnes, DataPattern, inverted
from ..errors import AttackConfigError
from ..program import CompiledPayload, compile_program, execute_payload
from ..softmc import SoftMCHost
from .base import AccessPattern, AttackContext
from .capture import CaptureUnsupported, capture_window
from .session import AttackSession


@dataclass
class AttackResult:
    """Outcome of one pattern execution."""

    pattern: str
    windows: int
    refs_issued: int
    acts_issued: int
    #: physical victim row -> flipped bit positions.
    victim_flips: dict[int, list[int]] = field(default_factory=dict)

    @property
    def total_flips(self) -> int:
        return sum(len(flips) for flips in self.victim_flips.values())

    def flips_at(self, physical_row: int) -> int:
        return len(self.victim_flips.get(physical_row, []))


class _CompiledWindow(NamedTuple):
    """One window's payload and how it moves the session's counters."""

    payload: CompiledPayload
    refs_issued: int
    acts_issued: int
    #: The session's ``_used_ps`` when the window ends.
    used_ps: int


class AttackExecutor:
    """Runs access patterns against a module through the host interface."""

    def __init__(self, host: SoftMCHost, mapping: RowMapping,
                 victim_pattern: DataPattern | None = None) -> None:
        self._host = host
        self._mapping = mapping
        self._victim_pattern = victim_pattern or AllOnes()
        self._obs = host.obs

    def run(self, pattern: AccessPattern, context: AttackContext,
            windows: int,
            extra_victims: tuple[int, ...] = ()) -> AttackResult:
        """Execute *windows* TRR-period windows of *pattern*.

        Victim rows (the context victim plus *extra_victims*, physical)
        are initialized with the victim data pattern; aggressor rows with
        its complement (RowHammer flips are data-dependent, §5.2).
        """
        if windows < 1:
            raise AttackConfigError("windows must be >= 1")
        host = self._host
        victims = (context.victim_physical, *extra_victims)
        aggressor_data = inverted(self._victim_pattern, host.row_bits)
        for row in pattern.aggressor_physical(context):
            host.write_row(context.bank, context.mapping.to_logical(row),
                           aggressor_data)
        for row in victims:
            host.write_row(context.bank, context.mapping.to_logical(row),
                           self._victim_pattern)

        session = AttackSession(host, context.trr_period)
        with self._obs.span("attack.run", pattern=pattern.name,
                            windows=windows):
            session.align_to_period()
            live = False
            # One pattern, one context, one host: nothing outlives the run.
            compiled: dict[Hashable, _CompiledWindow] = {}
            for _ in range(windows):
                if not live:
                    try:
                        self._replay_window(pattern, session, context,
                                            compiled)
                        continue
                    except CaptureUnsupported:
                        # Capture has no side effects on the real host,
                        # so the same window can run live instead.
                        live = True
                pattern.run_window(session, context)

        flips = {
            row: host.read_row_mismatches(context.bank,
                                          context.mapping.to_logical(row))
            for row in victims
        }
        result = AttackResult(pattern=pattern.name, windows=windows,
                              refs_issued=session.refs_issued,
                              acts_issued=session.acts_issued,
                              victim_flips=flips)
        metrics = self._obs.metrics
        metrics.inc("attack.runs")
        metrics.inc("attack.refs_issued", result.refs_issued)
        metrics.inc("attack.acts_issued", result.acts_issued)
        metrics.observe("attack.flips_per_run", result.total_flips)
        return result

    def _replay_window(self, pattern: AccessPattern, session: AttackSession,
                       context: AttackContext,
                       compiled: dict[Hashable, _CompiledWindow]) -> None:
        """Run one window compiled, capturing it first if its key is new.

        Windows with equal keys issue equal command streams, so the
        stored payload is re-executed on the real host (which advances
        its own REF and ACT ledgers) and the session's counters move by
        the stored deltas.
        """
        key = pattern.window_key(session, context)
        window = compiled.get(key)
        if window is None:
            program, vsession = capture_window(pattern, session, context)
            with self._obs.span("payload.compile",
                                instructions=len(program.instructions)):
                payload = compile_program(program.instructions,
                                          self._host.timing)
            window = compiled[key] = _CompiledWindow(
                payload, vsession.refs_issued - session.refs_issued,
                vsession.acts_issued - session.acts_issued,
                vsession._used_ps)
        execute_payload(self._host, window.payload)
        session.refs_issued += window.refs_issued
        session.acts_issued += window.acts_issued
        session._used_ps = window.used_ps
