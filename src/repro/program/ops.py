"""Flat compiled-payload representation.

Real rigs do not interpret experiment scripts command by command: U-TRR's
SoftMC programs and the LiteX ``payload_executor`` both *compile* the
experiment into a flat instruction payload first, then execute that.
:class:`CompiledPayload` is this repository's payload format for attack
windows — parallel numpy columns, one slot per DDR command, plus
interned side tables of prebuilt :class:`~repro.dram.ActBatch` operands.

Columns (all the same length):

``opcode``
    One of :data:`OP_ACT`, :data:`OP_MULTI`, :data:`OP_REF`,
    :data:`OP_WAIT` (uint8).
``arg``
    Opcode-specific operand (int64): batch id for ACT, multi-batch id
    for MULTI, REF count for REF, duration in ps for WAIT.
``dt``
    The host-clock advance of the command in the fault-free case (int64
    ps).  The executor does not *apply* these — the chip owns the clock
    — but the compiler exposes them so payload duration is a closed-form
    ``dt.sum()`` and so the fused-ACT path knows each command's step.
``flags``
    Bit :data:`FLAG_NOMINAL` marks a REF issued at the nominal tREFI
    rate (uint8).

``fuse_groups`` lists runs of identical consecutive ACT commands (same
interned batch), the unit the executor may hand to the chip's fused
hammer path when that is provably equivalent (see
:meth:`repro.dram.DramChip.fusion_safe`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dram import ActBatch

OP_ACT, OP_MULTI, OP_REF, OP_WAIT = range(4)

#: REF issued at the nominal tREFI rate rather than back-to-back.
FLAG_NOMINAL = 0x01


@dataclass(frozen=True)
class CompiledPayload:
    """A compiled command payload."""

    opcode: np.ndarray
    arg: np.ndarray
    dt: np.ndarray
    flags: np.ndarray
    #: Prebuilt logical-row hammer batches (ACT ``arg`` indexes here).
    batches: tuple[ActBatch, ...] = ()
    #: Prebuilt multi-bank batch groups (MULTI ``arg`` indexes here).
    multis: tuple[tuple[ActBatch, ...], ...] = ()
    #: ``(start_index, run_length)`` for every run of >= 2 identical
    #: consecutive ACT commands — fusion candidates.
    fuse_groups: tuple[tuple[int, int], ...] = ()

    def __len__(self) -> int:
        return int(self.opcode.shape[0])
