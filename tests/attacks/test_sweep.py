"""Sweep machinery: HC_first, pattern synthesis, vulnerability sweeps."""

from __future__ import annotations

import pytest

from repro.attacks import (choose_pattern, measure_hc_first,
                           run_hammer_sweep, run_vulnerability_sweep,
                           victim_positions, VendorAPattern)
from repro.attacks.sweep import HammerSweepResult
from repro.core.mapping_re import CouplingTopology
from repro.errors import AttackConfigError
from .conftest import profile_for, scaled_host


def test_measure_hc_first_recovers_implant():
    spec, host = scaled_host("A0")  # implant hc_first // 8
    implanted = host._chip.config.disturbance.hc_first
    mapping = host._chip.mapping
    measured = measure_hc_first(host, mapping, hi=20 * implanted)
    # The bank minimum threshold is ~2x hc_first effective hammers with a
    # lognormal row factor; double-sided measurement halves it again.
    assert 0.8 * implanted <= measured <= 2.5 * implanted


def test_measure_hc_first_paired_module():
    spec, host = scaled_host("C12")
    implanted = host._chip.config.disturbance.hc_first
    measured = measure_hc_first(host._chip and host, host._chip.mapping,
                                hi=20 * implanted,
                                paired=spec.paired_rows)
    assert measured < 20 * implanted


def test_choose_pattern_by_detection_kind():
    spec_a, _ = scaled_host("A0")
    spec_b, _ = scaled_host("B13")
    spec_c, _ = scaled_host("C9")
    assert choose_pattern(profile_for(spec_a)).name == "vendor-a-custom"
    pattern_b = choose_pattern(profile_for(spec_b))
    assert pattern_b.name == "vendor-b-custom"
    assert pattern_b.same_bank_dummy is True  # B_TRR3 samples per bank
    assert choose_pattern(profile_for(spec_c)).name == "vendor-c-custom"
    bad = profile_for(spec_a)
    import dataclasses
    with pytest.raises(AttackConfigError):
        choose_pattern(dataclasses.replace(bad, detection="none"))


def test_victim_positions_paired_are_even():
    rows = victim_positions(4096, 32, CouplingTopology.PAIRED)
    assert rows
    assert all(row % 2 == 0 for row in rows)
    spread = victim_positions(4096, 32, CouplingTopology.STANDARD)
    assert len(spread) == 32


def _fresh_hosts(module_id: str):
    """A ``new_host`` factory: a freshly built scaled module per call."""
    def new_host():
        _, host = scaled_host(module_id)
        return host, host._chip.mapping
    return new_host


def test_hammer_sweep_shows_interior_optimum_for_vendor_a():
    positions = [900, 2100, 3000]
    result = run_hammer_sweep(
        _fresh_hosts("A0"),
        pattern_factory=lambda h: VendorAPattern(aggressor_hammers=h),
        hammer_counts=(8, 72, 640), positions=positions,
        trr_period=9, windows=113)
    low = sum(result.flips_by_hammers[8])
    mid = sum(result.flips_by_hammers[72])
    high = sum(result.flips_by_hammers[640])
    # Figure 8 (vendor A): interior optimum — too few hammers cannot
    # flip, too many keep the aggressors in the counter table.
    assert mid > low
    assert mid > high


def test_quartiles_helper():
    result = HammerSweepResult(flips_by_hammers={10: [0, 2, 4, 6, 8]})
    q1, median, q3 = result.quartiles(10)
    assert q1 == 2 and median == 4 and q3 == 6


def test_vulnerability_sweep_counts_fraction():
    spec, _ = scaled_host("A0")
    pattern = choose_pattern(profile_for(spec))
    positions = victim_positions(4096, 8, CouplingTopology.STANDARD)
    result = run_vulnerability_sweep(_fresh_hosts("A0"), pattern,
                                     positions, trr_period=9, windows=113)
    assert 0.0 <= result.vulnerable_fraction <= 1.0
    assert result.vulnerable_fraction > 0.5  # A0 is highly vulnerable
    assert result.total_flips >= result.max_flips_per_row()
