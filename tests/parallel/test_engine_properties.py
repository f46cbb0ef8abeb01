"""Differential property: random unit sets fold to one result.

Each example draws a list of work units — metered units (counters and
histograms), units that record evidence, units that always raise, and
units that record a metric before raising — and runs it under
``quarantine=True`` at workers 1 and 2, with the result cache off, cold
and warm.  Every run must match the uncached ``workers=1`` run on
values, manifests, quarantined ``(id, attempts, error)``, the folded
metrics registry and the folded evidence ledger.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache
from repro.obs import MetricsRegistry, Observability
from repro.obs.evidence import EvidenceLedger
from repro.parallel import WorkUnit, run_units, unit_observability

from .test_engine import always_raises, metered_square
from .test_evidence_engine import deciding_square


def metered_then_raises(value: int) -> int:
    """Records a metric, then fails: nothing of it may reach the fold."""
    unit_observability().metrics.inc("unit.failed_attempts")
    raise RuntimeError(f"partial unit {value}")


KINDS = {"met": metered_square, "ev": deciding_square,
         "bad": always_raises, "partial": metered_then_raises}
FAILING = {"bad", "partial"}

recipe_lists = st.lists(
    st.tuples(st.sampled_from(sorted(KINDS)), st.integers(0, 40)),
    max_size=6)


def _units(recipes) -> list[WorkUnit]:
    return [WorkUnit(unit_id=f"{kind}/{index}", fn=KINDS[kind],
                     args=(value,), meta={"kind": kind})
            for index, (kind, value) in enumerate(recipes)]


def _observed(units, workers: int, cache=None) -> dict:
    metrics = MetricsRegistry()
    ledger = EvidenceLedger()
    run = run_units(units, workers, quarantine=True,
                    obs=Observability(metrics=metrics, evidence=ledger),
                    cache=cache)
    return {
        "values": run.values,
        "manifests": run.manifests(),
        "quarantined": [(outcome.unit_id, outcome.attempts, outcome.error)
                        for outcome in run.quarantined],
        "metrics": metrics.as_dict(),
        "evidence": ledger.dump(),
    }


@settings(max_examples=20, deadline=None)
@given(recipe_lists)
def test_runs_fold_identically_across_workers_and_cache(recipes):
    units = _units(recipes)
    reference = _observed(units, workers=1)
    assert len(reference["quarantined"]) == sum(
        kind in FAILING for kind, _ in recipes)
    assert all(attempts == 2
               for _, attempts, _ in reference["quarantined"])
    for workers in (1, 2):
        assert _observed(units, workers) == reference
        with tempfile.TemporaryDirectory() as store:
            assert _observed(units, workers, ResultCache(store)) == \
                reference
            warm = ResultCache(store)
            assert _observed(units, workers, warm) == reference
            # Failures are never published, so only they run again.
            assert warm.hits == len(units) - len(reference["quarantined"])
