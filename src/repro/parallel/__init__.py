"""repro.parallel — deterministic process-pool execution engine.

Shards independent work units (one module × scale × seed each) across a
process pool with ordered result merging, per-unit seed derivation,
worker crash→retry, and quarantine for units that keep failing, so
parallel artifacts diff byte-for-byte against sequential ones.  See
:mod:`repro.parallel.engine`.
"""

from .engine import (ENGINE_SEEDS, ParallelRun, UnitOutcome, WorkUnit,
                     default_workers, run_units, unit_observability,
                     unit_seed)

__all__ = [
    "ENGINE_SEEDS",
    "ParallelRun",
    "UnitOutcome",
    "WorkUnit",
    "default_workers",
    "run_units",
    "unit_observability",
    "unit_seed",
]
