"""Compile :class:`~repro.softmc.SoftMCProgram` instructions to payloads.

The pipeline mirrors the intern → schedule shape of real payload
compilers: hammer batches are interned into side tables, and each
command's fault-free clock advance (``dt``) scheduled from the module's
:class:`~repro.dram.TimingParameters`.  Interning means N copies of
one ``Hammer`` instruction share a single prebuilt
:class:`~repro.dram.ActBatch`, which is also how the compiler discovers
fusion groups — runs of identical consecutive ACT commands the executor
may hand to the chip in one pass.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..softmc.program import (Hammer, Instruction, MultiHammer, Refresh,
                              Wait)
from .ops import (FLAG_NOMINAL, OP_ACT, OP_MULTI, OP_REF, OP_WAIT,
                  CompiledPayload)


class _Emitter:
    """Accumulates payload columns and interned operand tables."""

    def __init__(self, timing) -> None:
        from ..dram import ActBatch

        self._act_batch = ActBatch
        self.timing = timing
        self.opcode: list[int] = []
        self.arg: list[int] = []
        self.dt: list[int] = []
        self.flags: list[int] = []
        self._batches: list = []
        self._batch_ids: dict = {}
        self._multis: list = []
        self._multi_ids: dict = {}

    def emit(self, opcode: int, arg: int, dt: int, flags: int = 0) -> None:
        self.opcode.append(opcode)
        self.arg.append(arg)
        self.dt.append(dt)
        self.flags.append(flags)

    def intern_batch(self, bank: int, pattern, mode) -> int:
        key = (bank, pattern, mode)
        ident = self._batch_ids.get(key)
        if ident is None:
            ident = len(self._batches)
            self._batches.append(
                self._act_batch(bank=bank, pattern=pattern, mode=mode))
            self._batch_ids[key] = ident
        return ident

    def intern_multi(self, per_bank, mode) -> int:
        key = (per_bank, mode)
        ident = self._multi_ids.get(key)
        if ident is None:
            batches = tuple(
                self._act_batch(bank=bank, pattern=pattern, mode=mode)
                for bank, pattern in per_bank)
            ident = len(self._multis)
            self._multis.append(batches)
            self._multi_ids[key] = ident
        return ident

    def walk(self, block) -> None:
        timing = self.timing
        for instruction in block:
            if isinstance(instruction, Hammer):
                batch_id = self.intern_batch(
                    instruction.bank, instruction.pattern, instruction.mode)
                batch = self._batches[batch_id]
                self.emit(OP_ACT, batch_id,
                          timing.hammer_duration_ps(batch.total))
            elif isinstance(instruction, MultiHammer):
                multi_id = self.intern_multi(instruction.per_bank,
                                             instruction.mode)
                batches = self._multis[multi_id]
                max_count = max(batch.total for batch in batches)
                self.emit(OP_MULTI, multi_id,
                          timing.multi_bank_hammer_duration_ps(
                              max_count, len(batches)))
            elif isinstance(instruction, Refresh):
                # Per REF the clock advances tRFC, or tREFI at the
                # nominal cadence (the spacing subsumes the tRFC).
                per_ref = (timing.trefi_ps if instruction.at_nominal_rate
                           else timing.trfc_ps)
                self.emit(OP_REF, instruction.count,
                          instruction.count * per_ref,
                          FLAG_NOMINAL if instruction.at_nominal_rate
                          else 0)
            elif isinstance(instruction, Wait):
                self.emit(OP_WAIT, instruction.duration_ps,
                          instruction.duration_ps)
            else:
                raise ConfigError(
                    f"unknown instruction {type(instruction).__name__}")

    def finish(self) -> CompiledPayload:
        opcode = np.asarray(self.opcode, dtype=np.uint8)
        arg = np.asarray(self.arg, dtype=np.int64)
        return CompiledPayload(
            opcode=opcode,
            arg=arg,
            dt=np.asarray(self.dt, dtype=np.int64),
            flags=np.asarray(self.flags, dtype=np.uint8),
            batches=tuple(self._batches),
            multis=tuple(self._multis),
            fuse_groups=_fuse_groups(opcode, arg),
        )


def _fuse_groups(opcode: np.ndarray, arg: np.ndarray
                 ) -> tuple[tuple[int, int], ...]:
    """Runs of >= 2 identical consecutive ACT commands (same batch)."""
    size = len(opcode)
    act = opcode == OP_ACT
    # continues[i]: command i is an ACT of the same batch as command i-1
    # (the two sentinels are False: nothing continues into or past the
    # payload).
    continues = np.zeros(size + 1, dtype=bool)
    continues[1:size] = act[1:] & act[:-1] & (arg[1:] == arg[:-1])
    starts = np.flatnonzero(act & ~continues[:size])
    lasts = np.flatnonzero(act & ~continues[1:])
    lengths = lasts - starts + 1
    runs = lengths >= 2
    return tuple(zip(starts[runs].tolist(), lengths[runs].tolist()))


def compile_program(instructions: "list[Instruction]", timing
                    ) -> CompiledPayload:
    """Compile an instruction list into a :class:`CompiledPayload`."""
    emitter = _Emitter(timing)
    emitter.walk(instructions)
    return emitter.finish()
