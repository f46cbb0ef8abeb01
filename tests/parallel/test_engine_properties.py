"""Differential property: random unit sets fold to one result.

Each example draws a list of work units — metered units (counters and
histograms), units that record evidence, units that profile commands,
units that always raise, and units that record a metric before raising
— and whether the run profiles.  It runs the units under
``quarantine=True`` at workers 1 and 2, with the result cache off,
cold, warm and warm with ``verify``.  Every run must match the
uncached ``workers=1`` run on values, quarantined ``(id, attempts,
error)``, the folded metrics registry and the folded evidence ledger;
cold runs also on the folded profile counts.  Warm runs replay the
evidence but take no profile from their hits, and a store serves a run
whichever profile flag wrote it.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache
from repro.obs import CommandProfiler, Observability
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

recipe_lists = st.lists(
    st.tuples(st.sampled_from(sorted(KINDS)), st.integers(0, 40)),
    max_size=6)


def _units(recipes) -> list[WorkUnit]:
    return [WorkUnit(unit_id=f"{kind}/{index}", fn=KINDS[kind],
                     args=(value,), meta={"kind": kind})
            for index, (kind, value) in enumerate(recipes)]


def _observed(units, workers: int, profile: bool, cache=None) -> dict:
    obs = Observability(profiler=CommandProfiler() if profile else None)
    run = run_units(units, workers, quarantine=True, obs=obs,
                    cache=cache)
    return {
        "values": run.values,
        "quarantined": [(outcome.unit_id, outcome.attempts, outcome.error)
                        for outcome in run.quarantined],
        "metrics": obs.metrics.as_dict(),
        "evidence": [dict(node) for node in obs.evidence.nodes],
        "profile": obs.profiler.counts if profile else None,
    }


@settings(max_examples=20, deadline=None)
@given(recipe_lists, st.booleans())
def test_runs_fold_identically_across_workers_and_cache(recipes,
                                                        profile):
    units = _units(recipes)
    reference = _observed(units, 1, profile)
    assert len(reference["quarantined"]) == sum(
        kind in FAILING for kind, _ in recipes)
    assert all(attempts == 2
               for _, attempts, _ in reference["quarantined"])
    stored = len(units) - len(reference["quarantined"])
    # Only failures run again on a warm store, and they never profile.
    warm_reference = {**reference, "profile": {} if profile else None}
    for workers in (1, 2):
        assert _observed(units, workers, profile) == reference
        with tempfile.TemporaryDirectory() as store:
            assert _observed(units, workers, profile,
                             ResultCache(store)) == reference
            for verify in (False, True):
                warm = ResultCache(store, verify=verify)
                assert _observed(units, workers, profile,
                                 warm) == warm_reference
                # Failures are never published, so only they run again.
                assert warm.hits == stored
            other = ResultCache(store)
            assert _observed(units, workers, not profile, other) == {
                **warm_reference, "profile": None if profile else {}}
            assert other.hits == stored
