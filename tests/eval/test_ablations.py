"""Ablation runners (structure + the cheap AB1 shape)."""

from __future__ import annotations

import pytest

from repro.eval import QUICK, run_hammer_mode_ablation
from repro.eval.ablations import run_mitigation_ablation
from repro.obs import MetricsRegistry, Observability
from repro.parallel import WorkUnit, run_units


def test_hammer_mode_ablation_shape():
    result = run_hammer_mode_ablation(QUICK)
    assert result.headers[0] == "mode"
    by_mode = {row[0]: row[2] for row in result.rows}
    assert set(by_mode) == {"interleaved", "cascaded"}
    assert by_mode["interleaved"] > by_mode["cascaded"]
    assert "AB1" in result.render()


@pytest.mark.slow
def test_mitigation_ablation_shape():
    obs = Observability(metrics=MetricsRegistry())
    unit = WorkUnit(unit_id="ablations/ab4-mitigation",
                    fn=run_mitigation_ablation, args=(QUICK,))
    (result,) = run_units([unit], obs=obs).values
    # Every host AB4 builds records into the unit's bundle, its PARA
    # hosts included: 3 mitigations x 2 patterns x 4 victims.
    assert obs.metrics.counter("attack.runs") == 24
    labels = {row[0] for row in result.rows}
    assert labels == {"A_TRR1", "PARA 1/2000", "PARA 1/250"}
    rows = {(row[0], row[1]): row[2] for row in result.rows}
    assert rows[("A_TRR1", "vendor-a-custom")] > 0
    assert rows[("PARA 1/250", "vendor-a-custom")] == 0
