"""Retention model: weak cells, polarity, VRT, temperature."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import retention
from repro.dram.retention import (RetentionConfig, RowRetentionProfile,
                                  generate_profile, generate_profiles)
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
    # Non-finite values: a non-finite temperature gives every weak cell
    # a retention of -2**63 ps, and the others fail inside numpy at a
    # row's first observation.
    for field, value in [("temperature_c", float("nan")),
                         ("temperature_c", float("-inf")),
                         ("reference_temperature_c", float("inf")),
                         ("weak_cells_per_row_mean", float("nan")),
                         ("weak_cells_per_row_mean", float("inf")),
                         ("max_retention_ms", float("inf")),
                         ("vrt_ratio_range", (0.25, float("inf")))]:
        with pytest.raises(ConfigError, match=field):
            RetentionConfig(**{field: value})


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


# -- the block draw -----------------------------------------------------------

def assert_same_profiles(got: list, want: list) -> None:
    """Every slot equal in value and type (dtype for arrays)."""
    assert len(got) == len(want)
    for block, reference in zip(got, want):
        for name in RowRetentionProfile.__slots__:
            ours, theirs = getattr(block, name), getattr(reference, name)
            assert type(ours) is type(theirs), name
            if isinstance(theirs, np.ndarray):
                assert ours.dtype == theirs.dtype, name
                assert ours.tolist() == theirs.tolist(), name
            else:
                assert ours == theirs, name


def per_row(seeds, bank, rows, config, row_bits) -> list:
    return [generate_profile(seeds, bank, row, config, row_bits)
            for row in rows]


row_lists = st.one_of(
    st.lists(st.integers(0, 2**20), max_size=40),
    st.builds(lambda start, length: list(range(start, start + length)),
              st.integers(0, 2**16), st.integers(0, 60)))


@settings(max_examples=150, deadline=None)
@given(mean=st.floats(0.0, 12.0, exclude_min=True),
       vrt_fraction=st.floats(0.0, 1.0),
       temperature=st.floats(20.0, 130.0),
       reference=st.floats(45.0, 95.0),
       low_ms=st.floats(0.5, 200.0), decades=st.floats(0.1, 4.0),
       ratio_low=st.floats(0.05, 1.0), ratio_span=st.floats(0.0, 1.0),
       root=st.integers(0, 3), bank=st.integers(0, 15),
       row_bits=st.integers(64, 65_536), rows=row_lists)
def test_block_draw_matches_per_row_draw(mean, vrt_fraction, temperature,
                                         reference, low_ms, decades,
                                         ratio_low, ratio_span, root, bank,
                                         row_bits, rows):
    # The mean straddles numpy's Poisson switch at 10, and row_bits its
    # 10,000-bit threshold for choice's tail shuffle.
    config = RetentionConfig(
        weak_cells_per_row_mean=mean, vrt_fraction=vrt_fraction,
        temperature_c=temperature, reference_temperature_c=reference,
        min_retention_ms=low_ms, max_retention_ms=low_ms * 10**decades,
        vrt_ratio_range=(ratio_low, ratio_low + ratio_span))
    seeds = SeedSequenceFactory("block", root)
    block = generate_profiles(seeds, bank, rows, config, row_bits)
    reference_profiles = per_row(seeds, bank, rows, config, row_bits)
    assert_same_profiles(block, reference_profiles)
    # Each profile owns its cells: toggling every VRT cell of every row
    # touches only that row.
    for ours, theirs in zip(block, reference_profiles):
        ours.toggle_vrt(np.random.default_rng(0), 1.0)
        theirs.toggle_vrt(np.random.default_rng(0), 1.0)
    assert_same_profiles(block, reference_profiles)


def counting_fallbacks(monkeypatch) -> list:
    """Record the rows :func:`generate_profiles` hands to
    :func:`generate_profile`."""
    fallbacks = []

    def counted(seeds, bank, row, config, row_bits):
        fallbacks.append(row)
        return generate_profile(seeds, bank, row, config, row_bits)
    monkeypatch.setattr(retention, "generate_profile", counted)
    return fallbacks


@pytest.mark.parametrize("mean, row_bits, rows, expected", [
    # No Poisson draw at all, and numpy's other Poisson algorithm.
    (0.0, 4096, [3, 1, 2], [3, 1, 2]),
    (10.0, 4096, [3, 1, 2], [3, 1, 2]),
    # Rows 2579 and 4406 each draw a Floyd position in Lemire's
    # rejection zone, which numpy draws again.
    (9.5, 46_409, [2578, 2579, 4406, 4407], [2579, 4406]),
])
def test_block_hands_unmirrored_rows_to_generate_profile(
        monkeypatch, mean, row_bits, rows, expected):
    config = RetentionConfig(weak_cells_per_row_mean=mean)
    fallbacks = counting_fallbacks(monkeypatch)
    block = generate_profiles(SEEDS, 0, rows, config, row_bits)
    assert fallbacks == expected
    assert_same_profiles(block, per_row(SEEDS, 0, rows, config, row_bits))


@pytest.mark.parametrize("row_bits, counts, expected", [
    # A count that reaches row_bits.
    (64, [64, 3, 80], [0, 2]),
    # choice's tail shuffle: more than row_bits // 50 cells of a row
    # of over 10,000 bits.
    (10_050, [201, 202, 0], [1]),
])
def test_block_hands_unmirrored_counts_to_generate_profile(
        monkeypatch, row_bits, counts, expected):
    # No mean below 10 draws such counts in practice, so the Poisson
    # draw is replaced; the rows' own draws then disagree with it, and
    # only the routing is checked.
    monkeypatch.setattr(retention, "_poisson",
                        lambda lanes, lam: np.array(counts))
    fallbacks = counting_fallbacks(monkeypatch)
    rows = list(range(100, 100 + len(counts)))
    generate_profiles(SEEDS, 0, rows, RetentionConfig(), row_bits)
    assert fallbacks == [rows[i] for i in expected]
