"""Batch interpreter for :class:`~repro.program.CompiledPayload`.

Executes a compiled payload against a :class:`~repro.softmc.SoftMCHost`.
Two engines, one command stream:

* The **guarded engine** walks the flat columns (plain Python scalars —
  no per-command dataclass or isinstance dispatch) and issues each
  command through the host's prebuilt-operand entry points.  It is
  byte-identical to the per-command interpreter by construction under
  every configuration, including fault injection.
* The **fused engine** additionally hands each precomputed fusion group
  (a run of identical consecutive ACT commands) to
  :meth:`SoftMCHost._try_fused_hammer`, which executes the whole run in
  one pass through the chip when — and only when — the chip can prove
  the intermediate settles commit nothing (no fault injector, stateless
  TRR, no VRT cells on the aggressors, retention slack, cross-coupled
  disturbance below threshold).  When the proof fails the run falls
  back to the guarded engine mid-payload, so fusion is a pure
  performance decision, never a semantic one.

Fusion is enabled by default exactly when the host has no fault
injector; ``fuse=False`` forces the guarded engine.  The attack
executor is the one production caller: it compiles each distinct
attack window once per run and re-executes the payload.
"""

from __future__ import annotations

from .ops import OP_ACT, OP_REF, OP_WAIT, CompiledPayload


def execute_payload(host, payload: CompiledPayload, *,
                    fuse: bool | None = None) -> None:
    """Run *payload* on *host*.

    ``fuse=None`` resolves to "the host has no fault injector".
    """
    if fuse is None:
        fuse = host.faults is None
    opcodes = payload.opcode.tolist()
    args = payload.arg.tolist()
    dts = payload.dt.tolist()
    flags = payload.flags.tolist()
    batches = payload.batches
    multis = payload.multis
    fuse_starts = ({start: length for start, length in payload.fuse_groups}
                   if fuse else {})

    hammer_prebuilt = host._hammer_prebuilt
    index = 0
    total = len(opcodes)
    while index < total:
        op = opcodes[index]
        arg = args[index]
        if op == OP_ACT:
            length = fuse_starts.get(index, 0)
            if length and host._try_fused_hammer(batches[arg], length,
                                                 dts[index]):
                index += length
                continue
            hammer_prebuilt(batches[arg])
        elif op == OP_REF:
            host.refresh(arg, bool(flags[index] & 1))
        elif op == OP_WAIT:
            host.wait(arg)
        else:  # OP_MULTI
            host._hammer_multi_prebuilt(multis[arg])
        index += 1
