"""Declarative SoftMC programs.

Real SoftMC experiments are compiled instruction sequences shipped to the
FPGA and looped.  This module mirrors that shape for the one thing this
repository compiles, attack windows: a :class:`SoftMCProgram` holds the
commands a captured window issues — hammers, multi-bank hammers, REFs
and waits — and the attack executor compiles it with
:func:`repro.program.compile_program` and re-executes the payload.  The
imperative :class:`~repro.softmc.interface.SoftMCHost` API remains the
primary interface; :meth:`SoftMCProgram.run` is the per-command
reference the compiled engines are held to.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dram import HammerMode
from ..errors import ConfigError
from .interface import SoftMCHost


@dataclass(frozen=True)
class Hammer:
    bank: int
    pattern: tuple[tuple[int, int], ...]
    mode: HammerMode = HammerMode.INTERLEAVED


@dataclass(frozen=True)
class MultiHammer:
    """Hammer up to four banks in parallel (tFAW-limited).

    ``per_bank`` is an ordered tuple of ``(bank, ((row, count), ...))``
    entries — the same shape :meth:`SoftMCHost.hammer_multi` takes as a
    mapping, frozen for the instruction stream.
    """

    per_bank: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    mode: HammerMode = HammerMode.CASCADED

    def __post_init__(self) -> None:
        if not self.per_bank:
            raise ConfigError("MultiHammer needs at least one bank")
        banks = [bank for bank, _ in self.per_bank]
        if len(set(banks)) != len(banks):
            raise ConfigError("MultiHammer requires distinct banks")


@dataclass(frozen=True)
class Refresh:
    count: int = 1
    at_nominal_rate: bool = False


@dataclass(frozen=True)
class Wait:
    duration_ps: int


Instruction = Hammer | MultiHammer | Refresh | Wait


class SoftMCProgram:
    """An ordered list of instructions executable on a host."""

    def __init__(self, instructions: list[Instruction] | None = None) -> None:
        self.instructions: list[Instruction] = list(instructions or [])

    # Builder-style helpers -------------------------------------------------

    def hammer(self, bank: int, pattern, mode=HammerMode.INTERLEAVED
               ) -> "SoftMCProgram":
        self.instructions.append(Hammer(bank, tuple(pattern), mode))
        return self

    def hammer_multi(self, per_bank, mode=HammerMode.CASCADED
                     ) -> "SoftMCProgram":
        """Queue a parallel multi-bank hammer; *per_bank* maps bank ->
        iterable of ``(row, count)`` pairs (insertion order preserved)."""
        entries = tuple(
            (bank, tuple((row, count) for row, count in rows))
            for bank, rows in per_bank.items())
        self.instructions.append(MultiHammer(entries, mode))
        return self

    def refresh(self, count: int = 1, at_nominal_rate: bool = False
                ) -> "SoftMCProgram":
        self.instructions.append(Refresh(count, at_nominal_rate))
        return self

    def wait(self, duration_ps: int) -> "SoftMCProgram":
        self.instructions.append(Wait(duration_ps))
        return self

    # Execution -----------------------------------------------------------

    def run(self, host: SoftMCHost) -> None:
        """Execute the program per command (the reference interpreter).

        ``repro.program.execute_payload(host, compile_program(
        program.instructions, host.timing))`` issues the byte-identical
        command stream in one batch.
        """
        for instruction in self.instructions:
            if isinstance(instruction, Hammer):
                host.hammer(instruction.bank, instruction.pattern,
                            instruction.mode)
            elif isinstance(instruction, MultiHammer):
                host.hammer_multi(
                    {bank: rows for bank, rows in instruction.per_bank},
                    instruction.mode)
            elif isinstance(instruction, Refresh):
                host.refresh(instruction.count, instruction.at_nominal_rate)
            elif isinstance(instruction, Wait):
                host.wait(instruction.duration_ps)
            else:
                raise ConfigError(
                    f"unknown instruction {type(instruction).__name__}")
