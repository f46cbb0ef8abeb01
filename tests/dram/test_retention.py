"""Retention model: weak cells, polarity, VRT, temperature."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.retention import RetentionConfig, generate_profile
from repro.errors import ConfigError
from repro.rng import SeedSequenceFactory
from repro.units import ms

SEEDS = SeedSequenceFactory("retention-test")
ROW_BITS = 4096


def profile_with_cells(config: RetentionConfig, min_cells: int = 1):
    """Scan rows until one has at least *min_cells* weak cells."""
    for row in range(10_000):
        profile = generate_profile(SEEDS, 0, row, config, ROW_BITS)
        if len(profile) >= min_cells:
            return profile
    raise AssertionError("no weak row found")


def test_generation_is_deterministic():
    config = RetentionConfig(weak_cells_per_row_mean=2.0)
    a = generate_profile(SEEDS, 1, 42, config, ROW_BITS)
    b = generate_profile(SEEDS, 1, 42, config, ROW_BITS)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.base_retention_ps, b.base_retention_ps)
    c = generate_profile(SEEDS, 1, 43, config, ROW_BITS)
    assert (len(a) != len(c)
            or not np.array_equal(a.base_retention_ps, c.base_retention_ps))


def test_retention_times_within_configured_range():
    config = RetentionConfig(weak_cells_per_row_mean=3.0,
                             min_retention_ms=100, max_retention_ms=500)
    profile = profile_with_cells(config, min_cells=2)
    assert (profile.base_retention_ps >= ms(100)).all()
    assert (profile.base_retention_ps <= ms(500)).all()


def test_failed_cells_threshold_semantics():
    config = RetentionConfig(weak_cells_per_row_mean=3.0, vrt_fraction=0.0)
    profile = profile_with_cells(config, min_cells=2)
    shortest = int(profile.base_retention_ps.min())
    assert len(profile.failed_cells(shortest - 1)) == 0
    assert len(profile.failed_cells(shortest)) >= 1
    assert len(profile.failed_cells(int(profile.base_retention_ps.max()))
               ) == len(profile)


def test_polarity_gates_failures():
    config = RetentionConfig(weak_cells_per_row_mean=5.0, vrt_fraction=0.0)
    profile = profile_with_cells(config, min_cells=3)
    elapsed = int(profile.base_retention_ps.max())
    # Store exactly the charged polarity -> all cells fail.
    assert len(profile.failed_cells(elapsed, profile.polarity.copy())
               ) == len(profile)
    # Store the complement -> no cell is exposed.
    assert len(profile.failed_cells(elapsed, 1 - profile.polarity)) == 0


def test_vrt_toggle_changes_effective_retention():
    config = RetentionConfig(weak_cells_per_row_mean=4.0, vrt_fraction=1.0,
                             vrt_ratio_range=(0.3, 0.3))
    profile = profile_with_cells(config, min_cells=2)
    assert profile.is_vrt.all()
    base = profile.current_retention_ps.copy()
    profile.vrt_state[:] = True
    alt = profile.current_retention_ps
    assert (alt < base).all()
    np.testing.assert_allclose(alt / base, 0.3, rtol=0.01)


def test_vrt_toggling_is_stochastic_but_bounded():
    config = RetentionConfig(weak_cells_per_row_mean=8.0, vrt_fraction=1.0)
    profile = profile_with_cells(config, min_cells=4)
    rng = np.random.default_rng(7)
    toggles = 0
    for _ in range(200):
        before = profile.vrt_state.copy()
        profile.toggle_vrt(rng, 0.5)
        toggles += int((before != profile.vrt_state).sum())
    assert toggles > 0
    # Probability 0 never toggles.
    before = profile.vrt_state.copy()
    profile.toggle_vrt(rng, 0.0)
    assert np.array_equal(before, profile.vrt_state)


def test_non_vrt_cells_never_toggle():
    config = RetentionConfig(weak_cells_per_row_mean=5.0, vrt_fraction=0.0)
    profile = profile_with_cells(config, min_cells=2)
    rng = np.random.default_rng(3)
    profile.toggle_vrt(rng, 1.0)
    assert not profile.vrt_state.any()


def test_temperature_factor_halves_per_10c():
    hot = RetentionConfig(temperature_c=95.0)
    cold = RetentionConfig(temperature_c=75.0)
    ref = RetentionConfig(temperature_c=85.0)
    assert ref.temperature_factor() == pytest.approx(1.0)
    assert hot.temperature_factor() == pytest.approx(0.5)
    assert cold.temperature_factor() == pytest.approx(2.0)


def test_min_retention_sentinel_for_strong_rows():
    config = RetentionConfig(weak_cells_per_row_mean=0.0)
    profile = generate_profile(SEEDS, 0, 0, config, ROW_BITS)
    assert len(profile) == 0
    assert profile.min_retention_ps() == np.iinfo(np.int64).max


def test_config_validation():
    with pytest.raises(ConfigError):
        RetentionConfig(weak_cells_per_row_mean=-1)
    with pytest.raises(ConfigError):
        RetentionConfig(min_retention_ms=100, max_retention_ms=50)
    with pytest.raises(ConfigError):
        RetentionConfig(vrt_fraction=1.5)
    with pytest.raises(ConfigError):
        RetentionConfig(vrt_ratio_range=(0.0, 0.5))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 50.0), st.floats(1.0, 4.0), st.floats(40.0, 130.0),
       st.integers(0, 10**6))
def test_retention_times_round_like_units_ms(low_ms, decades, temperature,
                                            first):
    # Reference: the profile's own draws, converted cell by cell with
    # ``units.ms``.
    config = RetentionConfig(weak_cells_per_row_mean=3.0,
                             min_retention_ms=low_ms,
                             max_retention_ms=low_ms * 10**decades,
                             temperature_c=temperature)
    log_min = np.log(config.min_retention_ms)
    log_max = np.log(config.max_retention_ms)
    for row in range(first, first + 20):
        profile = generate_profile(SEEDS, 2, row, config, ROW_BITS)
        rng = SEEDS.stream("retention", 2, row)
        count = int(rng.poisson(config.weak_cells_per_row_mean))
        if count:
            rng.choice(ROW_BITS, size=count, replace=False)
        retention_ms = np.exp(rng.uniform(log_min, log_max, size=count))
        retention_ms *= config.temperature_factor()
        assert profile.base_retention_ps.tolist() == [
            ms(value) for value in retention_ms]
