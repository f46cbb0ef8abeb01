"""Compiled command payloads — the DDR program DSL's payload layer.

``repro.program`` turns a :class:`~repro.softmc.SoftMCProgram`'s
instruction list into a flat :class:`CompiledPayload` —
``dt``-scheduled numpy command columns plus interned operand tables —
and executes it with a batch interpreter whose command stream is
byte-identical to the per-command reference interpreter
(:meth:`SoftMCProgram.run <repro.softmc.SoftMCProgram.run>`).  The
attack executor is the one production caller.  See
``docs/PERFORMANCE.md`` ("Compiled payloads") for when fusion kicks in.
"""

from .compiler import compile_program
from .executor import execute_payload
from .ops import (FLAG_NOMINAL, OP_ACT, OP_MULTI, OP_REF, OP_WAIT,
                  CompiledPayload)

__all__ = [
    "CompiledPayload",
    "FLAG_NOMINAL",
    "OP_ACT",
    "OP_MULTI",
    "OP_REF",
    "OP_WAIT",
    "compile_program",
    "execute_payload",
]
