"""RowHammer disturbance model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.commands import ActBatch, HammerMode
from repro.dram.disturbance import DisturbanceConfig, generate_hammer_profile
from repro.errors import ConfigError
from repro.rng import SeedSequenceFactory
from repro.vendors import all_modules

SEEDS = SeedSequenceFactory("disturbance-test")


def test_victims_default_blast_radius_two():
    config = DisturbanceConfig()
    victims = dict(config.victims_of(100, 1000))
    assert victims[99] == 1.0 and victims[101] == 1.0
    assert victims[98] == pytest.approx(0.025)
    assert victims[102] == pytest.approx(0.025)
    assert len(victims) == 4


def test_victims_clip_at_bank_edges():
    config = DisturbanceConfig()
    victims = dict(config.victims_of(0, 1000))
    assert set(victims) == {1, 2}
    victims = dict(config.victims_of(999, 1000))
    assert set(victims) == {997, 998}


def test_paired_coupling_only_odd_aggressors_disturb():
    config = DisturbanceConfig(paired_coupling=True)
    assert config.victims_of(101, 1000) == [(100, 1.0)]
    assert config.victims_of(100, 1000) == []


def test_effective_acts_interleaved_beats_cascaded():
    config = DisturbanceConfig(cascade_weight=0.35)
    interleaved = ActBatch(bank=0, pattern=((1, 1000), (3, 1000)),
                           mode=HammerMode.INTERLEAVED)
    cascaded = ActBatch(bank=0, pattern=((1, 1000), (3, 1000)),
                        mode=HammerMode.CASCADED)
    eff_i = config.effective_acts(interleaved)
    eff_c = config.effective_acts(cascaded)
    assert eff_i[1] == pytest.approx(1000.0)  # every ACT at full strength
    assert eff_c[1] == pytest.approx(1 + 999 * 0.35)
    assert eff_i[1] > eff_c[1]


def test_blast_radius_property():
    config = DisturbanceConfig(neighbor_weights={1: 1.0, 2: 0.0, 3: 0.1})
    assert config.blast_radius == 3
    assert DisturbanceConfig().blast_radius == 2


def test_profile_generation_deterministic_and_calibrated():
    config = DisturbanceConfig(hc_first=20_000)
    a = generate_hammer_profile(SEEDS, 0, 5, config, 8192)
    b = generate_hammer_profile(SEEDS, 0, 5, config, 8192)
    assert np.array_equal(a.thresholds, b.thresholds)
    # Weakest cell sits at the row base: ~2x HC_first x lognormal factor.
    assert a.base_threshold >= 2 * 20_000 * 0.5
    assert a.base_threshold <= 2 * 20_000 * 3.0


def test_bank_minimum_threshold_approximates_hc_first():
    config = DisturbanceConfig(hc_first=20_000)
    minima = [generate_hammer_profile(SEEDS, 0, row, config, 8192
                                      ).base_threshold
              for row in range(2000)]
    bank_min = min(minima)
    # Double-sided HC_first = bank_min / 2 should land near hc_first.
    assert 0.85 * 20_000 <= bank_min / 2 <= 1.6 * 20_000


def test_flip_count_grows_with_hammers():
    config = DisturbanceConfig(hc_first=10_000)
    profile = generate_hammer_profile(SEEDS, 1, 7, config, 8192)
    low = profile.flip_count_at(profile.base_threshold)
    high = profile.flip_count_at(profile.base_threshold * 3)
    assert low >= 1
    assert high > low
    assert profile.flip_count_at(0) == 0


def test_flipped_cells_respect_polarity():
    config = DisturbanceConfig(hc_first=10_000, victim_cells_mean=40)
    profile = generate_hammer_profile(SEEDS, 2, 9, config, 8192)
    everything = profile.flipped_cells(profile.thresholds.max())
    assert len(everything) == len(profile)
    none = profile.flipped_cells(profile.thresholds.max(),
                                 1 - profile.polarity)
    assert len(none) == 0


def test_positions_within_row():
    config = DisturbanceConfig(victim_cells_mean=200)
    profile = generate_hammer_profile(SEEDS, 3, 11, config, 1024)
    assert (profile.positions >= 0).all()
    assert (profile.positions < 1024).all()


def test_config_validation():
    with pytest.raises(ConfigError):
        DisturbanceConfig(hc_first=0)
    with pytest.raises(ConfigError):
        DisturbanceConfig(cascade_weight=0.0)
    with pytest.raises(ConfigError):
        DisturbanceConfig(neighbor_weights={})
    with pytest.raises(ConfigError):
        DisturbanceConfig(neighbor_weights={-1: 1.0})
    with pytest.raises(ConfigError):
        DisturbanceConfig(cluster_fraction=2.0)
    with pytest.raises(ConfigError):
        DisturbanceConfig(row_threshold_sigma=-0.1)


# -- the threshold floor ------------------------------------------------------

def untruncated_base(bank: int, row: int, config: DisturbanceConfig) -> float:
    """A row's base threshold as drawn, before the floor truncates it."""
    rng = SEEDS.stream("hammer", bank, row)
    return 2.0 * config.hc_first * float(np.exp(rng.normal(
        config.row_threshold_mu, config.row_threshold_sigma)))


def check_floor(config: DisturbanceConfig, rows) -> None:
    """No cell threshold lies below the floor, and the floor never
    truncated a drawn base threshold."""
    floor = config.row_threshold_floor
    for row in rows:
        profile = generate_hammer_profile(SEEDS, 1, row, config, 1024)
        assert profile.thresholds.min() >= floor
        assert profile.base_threshold == untruncated_base(1, row, config)


@pytest.mark.parametrize("spec", all_modules(),
                         ids=lambda spec: spec.module_id)
def test_module_thresholds_sit_above_the_floor(spec):
    config = spec.device_config().disturbance
    assert 0 < config.row_threshold_floor < 2 * config.hc_first
    check_floor(config, range(400))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**7), st.floats(-3.0, 3.0), st.floats(0.0, 1.5),
       st.integers(0, 10**6))
def test_drawn_thresholds_sit_above_the_floor(hc_first, mu, sigma, first):
    config = DisturbanceConfig(hc_first=hc_first, row_threshold_mu=mu,
                               row_threshold_sigma=sigma)
    check_floor(config, range(first, first + 40))
