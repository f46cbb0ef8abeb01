"""Full end-to-end reverse-engineering runs against Table 1 module specs.

The integration-level validation of the whole methodology: build a real
module from the registry, run the complete inference pipeline, and check
the recovered profile against the mechanism's implanted ground truth.
"""

from __future__ import annotations

import pytest

from repro.core import REDUCED_INFERENCE, CouplingTopology, TrrInference
from repro.softmc import SoftMCHost
from repro.vendors import build_module, get_module


def run_inference(module_id: str):
    spec = get_module(module_id)
    chip = build_module(spec, rows_per_bank=8192, row_bits=1024,
                        weak_cells_per_row_mean=2.0, vrt_fraction=0.0)
    inference = TrrInference(SoftMCHost(chip), REDUCED_INFERENCE)
    return spec, chip, inference.run()


@pytest.mark.slow
def test_full_run_vendor_a_module():
    spec, chip, profile = run_inference("A5")
    truth = chip.trr.ground_truth
    assert profile.detection == "counter"
    assert profile.trr_ref_period == truth.trr_ref_period == 9
    assert profile.neighbors_refreshed == truth.neighbors_refreshed == 4
    assert profile.aggressor_capacity == truth.aggressor_capacity == 16
    assert profile.per_bank is True
    assert profile.regular_refresh_cycle == 3758
    assert profile.mapping_scheme == spec.mapping_scheme == "bit_swap_0_1"
    assert profile.persists_without_activity is True


@pytest.mark.slow
def test_full_run_vendor_b_module():
    spec, chip, profile = run_inference("B0")
    truth = chip.trr.ground_truth
    assert profile.detection == "sampling"
    assert profile.trr_ref_period == truth.trr_ref_period == 4
    assert profile.neighbors_refreshed == truth.neighbors_refreshed == 2
    assert profile.aggressor_capacity == 1
    assert profile.per_bank is False
    assert profile.regular_refresh_cycle == 8192
    assert profile.persists_without_activity is True


@pytest.mark.slow
def test_full_run_vendor_c_paired_module():
    spec, chip, profile = run_inference("C7")
    assert profile.detection == "window"
    assert profile.trr_ref_period == 17
    assert profile.coupling is CouplingTopology.PAIRED
    assert profile.neighbors_refreshed == 1
    assert profile.aggressor_capacity is None
    assert profile.persists_without_activity is False
