"""Survey artifact (full pipeline, one module)."""

from __future__ import annotations

import pytest

from repro.eval import QUICK
from repro.eval.survey import run_survey


@pytest.mark.slow
def test_survey_single_module_renders_and_recovers():
    result = run_survey(["B8"], QUICK)
    text = result.render()
    assert "# U-TRR module survey" in text
    assert "B8" in text
    assert "sampling" in text
    survey = result.surveys[0]
    assert survey.row.ground_truth_matches()
    assert survey.row.evaluation.vulnerable_fraction > 0.8
    assert "datawords by flip count" in survey.render()


def test_survey_runs_table1_units_through_the_engine(tmp_path,
                                                     monkeypatch):
    """Survey rows are Table 1's ``table1/<module>`` units: what a unit
    records folds into the caller's bundle, and a store ``table1``
    wrote serves the survey."""
    from repro.cache import ResultCache
    from repro.eval import table1
    from repro.obs import Observability
    from repro.parallel import unit_observability

    def stub_row(module_id, scale):
        obs = unit_observability()
        obs.metrics.inc("stub.rows")
        obs.evidence.decide("stub", module_id)
        return f"row-{module_id}"

    monkeypatch.setattr(table1, "run_table1_module", stub_row)
    modules = ["A0", "B0"]
    obs = Observability()
    result = run_survey(modules, QUICK, workers=1, obs=obs)
    assert [survey.row for survey in result.surveys] == \
        ["row-A0", "row-B0"]
    assert obs.metrics.counter("stub.rows") == 2
    assert [(node["unit"], node["value"]) for node in obs.evidence.nodes] \
        == [("table1/A0", "A0"), ("table1/B0", "B0")]

    store = tmp_path / "store"
    table1.run_table1(modules, QUICK, workers=1,
                      obs=Observability(),
                      cache=ResultCache(store))
    warm = ResultCache(store)
    replayed = Observability()
    rows = run_survey(modules, QUICK, workers=1, obs=replayed,
                      cache=warm)
    assert warm.hits == 2 and warm.stores == 0
    assert [survey.row for survey in rows.surveys] == \
        ["row-A0", "row-B0"]
    assert replayed.metrics.as_dict() == obs.metrics.as_dict()
    assert replayed.evidence.dump() == obs.evidence.dump()
