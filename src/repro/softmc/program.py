"""Declarative SoftMC programs.

Real SoftMC experiments are compiled instruction sequences shipped to the
FPGA; results (read-back rows) come back when the program completes.
This module mirrors that shape: build a :class:`SoftMCProgram` out of
instructions, run it against a host, and collect the read results.  The
imperative :class:`~repro.softmc.interface.SoftMCHost` API remains the
primary interface — programs are for experiments that want an auditable,
replayable command list: the attack executor captures each attack window
into one and compiles it (:mod:`repro.program`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..dram import DataPattern, HammerMode
from ..errors import ConfigError
from .interface import SoftMCHost

if TYPE_CHECKING:
    from ..program import CompiledPayload


@dataclass(frozen=True)
class WriteRow:
    bank: int
    row: int
    pattern: DataPattern


@dataclass(frozen=True)
class ReadRow:
    bank: int
    row: int
    #: Key under which the result is stored; defaults to (bank, row).
    label: str | None = None


@dataclass(frozen=True)
class CheckRow:
    """Read a row and record only its mismatch positions."""

    bank: int
    row: int
    label: str | None = None


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


@dataclass(frozen=True)
class Loop:
    """Repeat a block of instructions *times* times."""

    times: int
    body: tuple["Instruction", ...]


Instruction = (WriteRow | ReadRow | CheckRow | Hammer | MultiHammer
               | Refresh | Wait | Loop)


@dataclass
class ProgramResult:
    """Read-backs produced by one program run."""

    rows: dict[str, np.ndarray] = field(default_factory=dict)
    mismatches: dict[str, list[int]] = field(default_factory=dict)
    #: Host clock at program start/end.
    started_ps: int = 0
    finished_ps: int = 0

    @property
    def duration_ps(self) -> int:
        return self.finished_ps - self.started_ps


class SoftMCProgram:
    """An ordered list of instructions executable on a host."""

    def __init__(self, instructions: list[Instruction] | None = None) -> None:
        self.instructions: list[Instruction] = list(instructions or [])

    # Builder-style helpers -------------------------------------------------

    def write(self, bank: int, row: int, pattern: DataPattern
              ) -> "SoftMCProgram":
        self.instructions.append(WriteRow(bank, row, pattern))
        return self

    def read(self, bank: int, row: int, label: str | None = None
             ) -> "SoftMCProgram":
        self.instructions.append(ReadRow(bank, row, label))
        return self

    def check(self, bank: int, row: int, label: str | None = None
              ) -> "SoftMCProgram":
        self.instructions.append(CheckRow(bank, row, label))
        return self

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

    def loop(self, times: int, body: "SoftMCProgram") -> "SoftMCProgram":
        self.instructions.append(Loop(times, tuple(body.instructions)))
        return self

    # Execution -----------------------------------------------------------

    def compile(self, timing) -> "CompiledPayload":  # noqa: A003
        """Compile to a flat :class:`~repro.program.CompiledPayload`.

        Loops are unrolled, labels resolved, operands interned, and each
        command's fault-free clock advance scheduled from *timing* (the
        host's :class:`~repro.dram.TimingParameters`).
        """
        from ..program import compile_program
        return compile_program(self.instructions, timing)

    def run(self, host: SoftMCHost) -> ProgramResult:
        """Execute the program per command; duplicate labels are
        rejected up front.

        This is the reference interpreter.  To batch-execute instead,
        run ``repro.program.execute_payload(host,
        program.compile(host.timing))``: the command stream is
        byte-identical.
        """
        labels: set[str] = set()
        self._collect_labels(self.instructions, labels)
        result = ProgramResult(started_ps=host.now_ps)
        self._run_block(host, self.instructions, result)
        result.finished_ps = host.now_ps
        return result

    @staticmethod
    def _label(instruction: ReadRow | CheckRow) -> str:
        if instruction.label is not None:
            return instruction.label
        return f"{instruction.bank}:{instruction.row}"

    def _collect_labels(self, block, labels: set[str]) -> None:
        for instruction in block:
            if isinstance(instruction, (ReadRow, CheckRow)):
                label = self._label(instruction)
                if label in labels:
                    raise ConfigError(
                        f"duplicate read label {label!r}; results would "
                        "silently overwrite each other")
                labels.add(label)
            elif isinstance(instruction, Loop) and instruction.times > 0:
                # A loop that never runs reads nothing, as in the
                # compiler's ``unroll``.
                if instruction.times > 1:
                    inner: set[str] = set()
                    self._collect_labels(instruction.body, inner)
                    if inner:
                        raise ConfigError(
                            "reads inside a multi-iteration loop need "
                            "iteration-unique labels; unroll the loop")
                else:
                    self._collect_labels(instruction.body, labels)

    def _run_block(self, host: SoftMCHost, block, result: ProgramResult
                   ) -> None:
        for instruction in block:
            if isinstance(instruction, WriteRow):
                host.write_row(instruction.bank, instruction.row,
                               instruction.pattern)
            elif isinstance(instruction, ReadRow):
                result.rows[self._label(instruction)] = host.read_row(
                    instruction.bank, instruction.row)
            elif isinstance(instruction, CheckRow):
                result.mismatches[self._label(instruction)] = (
                    host.read_row_mismatches(instruction.bank,
                                             instruction.row))
            elif isinstance(instruction, Hammer):
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
            elif isinstance(instruction, Loop):
                for _ in range(instruction.times):
                    self._run_block(host, instruction.body, result)
            else:
                raise ConfigError(
                    f"unknown instruction {type(instruction).__name__}")
