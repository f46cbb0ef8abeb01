"""Compiled command payloads — the DDR program DSL's payload layer.

``repro.program`` turns a :class:`~repro.softmc.SoftMCProgram` (or any
instruction list) into a flat :class:`CompiledPayload` — loop-unrolled,
label-resolved, ``dt``-scheduled numpy command columns plus interned
operand tables — and executes it with a batch interpreter whose command
stream is byte-identical to the per-command reference interpreter
(:meth:`SoftMCProgram.run <repro.softmc.SoftMCProgram.run>`).  The
attack executor is the one production caller.  See
``docs/PERFORMANCE.md`` ("Compiled payloads") for when fusion kicks in
and how to force either engine.
"""

from .compiler import compile_program
from .executor import execute_payload, payloads_enabled
from .ops import (FLAG_NOMINAL, OP_ACT, OP_CHK, OP_MULTI, OP_RD, OP_REF,
                  OP_WAIT, OP_WR, OPCODE_NAMES, CompiledPayload)

__all__ = [
    "CompiledPayload",
    "FLAG_NOMINAL",
    "OPCODE_NAMES",
    "OP_ACT",
    "OP_CHK",
    "OP_MULTI",
    "OP_RD",
    "OP_REF",
    "OP_WAIT",
    "OP_WR",
    "compile_program",
    "execute_payload",
    "payloads_enabled",
]
