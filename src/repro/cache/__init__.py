"""Content-addressed result cache for evaluation work units.

The ROADMAP's evaluation-as-a-service item starts here: PR 2's run
manifests prove a unit's result is a pure function of its recipe (seed
+ git revision + chip recipe + scale + fault profile + entry-point
code), so that recipe can *be* the storage key.  :mod:`repro.parallel`
consults this store before dispatching each :class:`WorkUnit` and
publishes the result envelope on completion, which buys two things:

* **unit-level resume** — a killed sweep re-run with the same arguments
  skips every unit that already completed;
* **byte-identity** — a warm run's stdout, folded metrics, and history
  rows equal the cold run's, because hits replay the stored per-unit
  metrics and evidence dump through the same submission-order merge.

``python -m repro.cache`` provides ``stats`` / ``prune`` / ``verify``
maintenance; the eval CLI's ``--cache DIR`` / ``--resume`` /
``--cache-verify`` flags are the front door (see docs/PERFORMANCE.md).
"""

from .envelope import CacheEnvelope, decode, encode
from .keys import (Uncachable, callable_fingerprint, material_digest,
                   unit_key, unit_key_material)
from .store import ResultCache, value_digest

__all__ = [
    "CacheEnvelope",
    "ResultCache",
    "Uncachable",
    "callable_fingerprint",
    "decode",
    "encode",
    "material_digest",
    "unit_key",
    "unit_key_material",
    "value_digest",
]
