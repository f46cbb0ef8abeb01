"""Differential property: random unit sets fold to one result.

Each example draws a list of work units — metered units (counters and
histograms), units that record evidence, units that profile commands,
units that always raise, and units that record a metric before raising
— plus the instruments the run records (none, evidence, profile, or
both).  It runs the units under ``quarantine=True`` at workers 1 and 2,
with the result cache off, cold, warm and warm with ``verify``.  Every
run must match the uncached ``workers=1`` run on values, quarantined
``(id, attempts, error)``, the folded metrics registry, the folded
evidence ledger and the folded profile counts.  A warm run recording an
instrument its store was written without must miss.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache
from repro.obs import Observability
from repro.parallel import WorkUnit, run_units, unit_observability

from .test_engine import always_raises, metered_square
from .test_evidence_engine import deciding_square
from .test_telemetry import profiled_unit


def metered_then_raises(value: int) -> int:
    """Records a metric, then fails: nothing of it may reach the fold."""
    unit_observability().metrics.inc("unit.failed_attempts")
    raise RuntimeError(f"partial unit {value}")


KINDS = {"met": metered_square, "ev": deciding_square,
         "prof": profiled_unit, "bad": always_raises,
         "partial": metered_then_raises}
FAILING = {"bad", "partial"}
INSTRUMENTS = ((), ("evidence",), ("profile",), ("evidence", "profile"))

recipe_lists = st.lists(
    st.tuples(st.sampled_from(sorted(KINDS)), st.integers(0, 40)),
    max_size=6)


def _units(recipes) -> list[WorkUnit]:
    return [WorkUnit(unit_id=f"{kind}/{index}", fn=KINDS[kind],
                     args=(value,), meta={"kind": kind})
            for index, (kind, value) in enumerate(recipes)]


def _observed(units, workers: int, instruments, cache=None) -> dict:
    obs = Observability.build(instruments)
    run = run_units(units, workers, quarantine=True, obs=obs,
                    cache=cache)
    return {
        "values": run.values,
        "quarantined": [(outcome.unit_id, outcome.attempts, outcome.error)
                        for outcome in run.quarantined],
        "metrics": obs.metrics.as_dict(),
        "evidence": [dict(node) for node in obs.evidence.nodes],
        "profile": obs.profiler.counts,
    }


@settings(max_examples=20, deadline=None)
@given(recipe_lists, st.sampled_from(INSTRUMENTS))
def test_runs_fold_identically_across_workers_and_cache(recipes,
                                                        instruments):
    units = _units(recipes)
    reference = _observed(units, 1, instruments)
    assert len(reference["quarantined"]) == sum(
        kind in FAILING for kind, _ in recipes)
    assert all(attempts == 2
               for _, attempts, _ in reference["quarantined"])
    stored = len(units) - len(reference["quarantined"])
    for workers in (1, 2):
        assert _observed(units, workers, instruments) == reference
        with tempfile.TemporaryDirectory() as store:
            assert _observed(units, workers, instruments,
                             ResultCache(store)) == reference
            for verify in (False, True):
                warm = ResultCache(store, verify=verify)
                assert _observed(units, workers, instruments,
                                 warm) == reference
                # Failures are never published, so only they run again.
                assert warm.hits == stored
            for extra in {"evidence", "profile"} - set(instruments):
                other = ResultCache(store)
                _observed(units, workers,
                          tuple(sorted({*instruments, extra})), other)
                assert other.hits == 0
