"""Refresh-calibrator decision branches record provenance nodes."""

from __future__ import annotations

import pytest

from repro.core import ProfilingConfig, RefreshCalibrator, RowGroupLayout, \
    RowScout
from repro.dram import AllOnes
from repro.errors import ExperimentError, TransientFaultError
from repro.obs import Observability
from repro.obs.evidence import EvidenceLedger
from .conftest import make_host


def evidence_obs():
    return Observability(evidence=EvidenceLedger())


def find_group(host, count=1, layout="R-R"):
    return RowScout(host).find_groups(ProfilingConfig(
        bank=0, layout=RowGroupLayout.parse(layout), group_count=count,
        validation_rounds=4))


def nodes_for(obs, parameter):
    return [node for node in obs.evidence.nodes
            if node["parameter"] == parameter]


def test_find_cycle_accepted_node_cites_covering_refs():
    obs = evidence_obs()
    host = make_host(rows=4096, cycle=512, obs=obs)
    group = find_group(host)[0]
    calibrator = RefreshCalibrator(host, AllOnes())
    cycle = calibrator.find_cycle(0, group.logical_rows[0],
                                  group.retention_ps)
    accepted = nodes_for(obs, "refresh_cycle")
    assert len(accepted) == 1
    node = accepted[0]
    assert node["outcome"] == "accepted"
    assert node["value"] == cycle
    assert node["stage"] == "calibrator.find_cycle"
    refs = [obs_item for obs_item in node["evidence"]
            if obs_item["kind"] == "covering-refs"]
    assert refs and refs[0]["count"] == 2
    # The two covering REFs are exactly one measured cycle apart.
    first, second = refs[0]["refs"]
    assert second - first == cycle
    # The stamp reflects real commands spent reaching the conclusion.
    assert node["commands"]["total"] > 0
    assert node["commands_to_discovery"] > 0


def test_find_cycle_decay_check_rejection_records_node():
    obs = evidence_obs()
    host = make_host(rows=4096, cycle=512, obs=obs)
    group = find_group(host)[0]
    row = group.logical_rows[0]
    calibrator = RefreshCalibrator(host, AllOnes())
    # An absurdly short retention claim survives the REF-free decay
    # check (the row cannot decay that fast), which must be recorded as
    # a rejection before the TransientFaultError propagates.
    with pytest.raises(TransientFaultError):
        calibrator.find_cycle(0, row, retention_ps=10 ** 9,
                              check_decay=True)
    rejected = nodes_for(obs, "refresh_cycle")
    assert len(rejected) == 1
    assert rejected[0]["outcome"] == "rejected"
    kinds = [item["kind"] for item in rejected[0]["evidence"]]
    assert "decay-check" in kinds


def test_calibrate_rows_accepted_node_carries_phase_windows():
    obs = evidence_obs()
    host = make_host(rows=4096, cycle=512, obs=obs)
    group = find_group(host)[0]
    calibrator = RefreshCalibrator(host, AllOnes())
    rows = [(0, row) for row in group.logical_rows]
    schedule = calibrator.calibrate_rows(rows, group.retention_ps,
                                         cycle=512)
    nodes = nodes_for(obs, "refresh_phases")
    assert [node["outcome"] for node in nodes] == ["accepted"]
    assert nodes[0]["value"] == len(schedule.phase_windows)
    kinds = {item["kind"] for item in nodes[0]["evidence"]}
    assert {"phase-windows", "cycle-refs"} <= kinds


def test_calibrate_rows_drop_uncovered_records_rejection():
    obs = evidence_obs()
    host = make_host(rows=4096, cycle=512, obs=obs)
    group = find_group(host)[0]
    calibrator = RefreshCalibrator(host, AllOnes())
    rows = [(0, row) for row in group.logical_rows]
    # With an absurdly short retention claim every row survives the
    # REF-free decay check, so all are weeded out as immortal.
    schedule = calibrator.calibrate_rows(rows, retention_ps=10 ** 9,
                                         cycle=512, drop_uncovered=True)
    assert not schedule.phase_windows
    rejections = [node for node in nodes_for(obs, "refresh_phases")
                  if node["outcome"] == "rejected"]
    assert rejections
    kinds = {item["kind"] for node in rejections
             for item in node["evidence"]}
    assert "immortal-rows" in kinds


def test_recalibrate_row_records_accepted_window():
    obs = evidence_obs()
    host = make_host(rows=4096, cycle=512, obs=obs)
    group = find_group(host)[0]
    row = group.logical_rows[0]
    calibrator = RefreshCalibrator(host, AllOnes())
    schedule = calibrator.calibrate_rows([(0, row)], group.retention_ps,
                                         cycle=512)
    obs.evidence.nodes.clear()
    entry = calibrator.recalibrate_row(schedule, 0, row,
                                       group.retention_ps)
    nodes = nodes_for(obs, "refresh_phase")
    assert len(nodes) == 1
    assert nodes[0]["outcome"] == "accepted"
    assert nodes[0]["value"] == list(entry)
    window = [item for item in nodes[0]["evidence"]
              if item["kind"] == "covering-ref-window"]
    assert window and window[0]["hi"] - window[0]["lo"] == entry[1]


def test_recalibrate_row_failure_records_rejection():
    obs = evidence_obs()
    host = make_host(rows=4096, cycle=512, obs=obs)
    group = find_group(host)[0]
    row = group.logical_rows[0]
    calibrator = RefreshCalibrator(host, AllOnes())
    from repro.core import RefreshSchedule
    schedule = RefreshSchedule(cycle_refs=512)
    with pytest.raises(ExperimentError):
        calibrator.recalibrate_row(schedule, 0, row,
                                   retention_ps=10 ** 15)
    nodes = nodes_for(obs, "refresh_phase")
    assert nodes and nodes[-1]["outcome"] == "rejected"
    assert any(item["kind"] == "uncovered"
               for item in nodes[-1]["evidence"])
