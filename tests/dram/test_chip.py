"""Chip-level behaviour: clock, logical addressing, refresh, TRR hook."""

from __future__ import annotations

import pytest

from repro.dram import (ActBatch, AllOnes, DeviceConfig, DisturbanceConfig,
                        DramChip, HammerMode, RetentionConfig)
from repro.dram.chip import _MEMO_ENTRIES
from repro.errors import ConfigError, ReproError
from repro.trr import CounterBasedTrr
from repro.units import ms, us


def find_weak_row(chip, bank=0, limit=2048, max_ms=5000):
    for row in range(limit):
        retention = chip.true_retention_ps(bank, row, AllOnes())
        if retention < ms(max_ms):
            return row, retention
    raise AssertionError("no weak row found")


def test_clock_advances_with_operations(chip):
    start = chip.now_ps
    chip.write_row(0, 5, AllOnes())
    after_write = chip.now_ps
    assert after_write > start
    chip.wait(ms(1))
    assert chip.now_ps == after_write + ms(1)
    chip.refresh()
    assert chip.now_ps == after_write + ms(1) + chip.config.timing.trfc_ps


def test_wait_rejects_negative(chip):
    with pytest.raises(ConfigError):
        chip.wait(-1)


def test_refresh_spacing(chip):
    start = chip.now_ps
    chip.refresh(count=10, spacing_ps=us(7.8))
    assert chip.now_ps == start + 10 * us(7.8)
    with pytest.raises(ConfigError):
        chip.refresh(spacing_ps=100)  # below tRFC


def test_retention_side_channel_end_to_end(chip):
    row, retention = find_weak_row(chip)
    chip.write_row(0, row, AllOnes())
    chip.wait(retention // 2)
    assert chip.read_row_mismatches(0, row) == []
    chip.write_row(0, row, AllOnes())
    chip.wait(retention + ms(1))
    assert chip.read_row_mismatches(0, row) != []


def test_regular_refresh_keeps_weak_row_alive(chip):
    row, retention = find_weak_row(chip)
    chip.write_row(0, row, AllOnes())
    cycle = chip.config.refresh_cycle_refs
    # Space REFs so a full pass takes half the row's retention time.
    spacing = max(retention // (2 * cycle), chip.config.timing.trfc_ps)
    chip.refresh(count=4 * cycle, spacing_ps=spacing)
    assert chip.now_ps >= 2 * retention  # long enough to fail unrefreshed
    assert chip.read_row_mismatches(0, row) == []


def test_double_sided_hammer_flips_bits(chip):
    victim = 512
    threshold = chip.true_min_hammer_threshold(0, victim, AllOnes())
    chip.write_row(0, victim, AllOnes())
    per_side = int(threshold / 2) + 1
    chip.hammer(ActBatch(bank=0, pattern=((victim - 1, per_side),
                                          (victim + 1, per_side)),
                         mode=HammerMode.INTERLEAVED))
    assert chip.read_row_mismatches(0, victim) != []


def test_hammer_advances_clock(chip):
    start = chip.now_ps
    chip.hammer(ActBatch(bank=0, pattern=((10, 100),)))
    assert chip.now_ps == start + 100 * chip.config.timing.trc_ps


def test_hammer_multi_requires_distinct_banks(chip):
    batch0 = ActBatch(bank=0, pattern=((10, 5),))
    batch0b = ActBatch(bank=0, pattern=((20, 5),))
    with pytest.raises(ConfigError):
        chip.hammer_multi([batch0, batch0b])


def test_rejected_hammer_multi_leaves_chip_untouched(small_config):
    chip = DramChip(small_config.scaled(num_banks=8))
    too_wide = [ActBatch(bank=b, pattern=((10, 100),)) for b in range(5)]
    bad_row = (ActBatch(bank=0, pattern=((10, 100),)),
               ActBatch(bank=1, pattern=((chip.config.rows_per_bank, 1),)))
    bad_bank = [ActBatch(bank=0, pattern=((10, 100),)),
                ActBatch(bank=8, pattern=((10, 100),))]
    before = chip.stats.snapshot()
    for group in (too_wide, bad_row, bad_bank):
        with pytest.raises(ReproError):
            chip.hammer_multi(group)
        assert chip.stats.snapshot() == before
        assert chip.now_ps == 0
        assert all(not bank.rows for bank in chip.banks)


def test_hammer_multi_tfaw_time(chip):
    start = chip.now_ps
    batches = [ActBatch(bank=b, pattern=((100, 50),)) for b in range(4)]
    chip.hammer_multi(batches)
    assert chip.now_ps == start + 50 * chip.config.timing.tfaw_ps


def test_mapping_applied_to_hammering(small_config):
    # With bit_swap_0_1 mapping, logical rows 1 and 2 are physical 2 and 1.
    config = small_config.scaled(mapping_scheme="bit_swap_0_1")
    chip = DramChip(config)
    # Hammer logical row 4 (physical 4) -> physical victims 3 and 5, which
    # are logical 3 and 6 respectively under the swap.
    threshold = chip.true_min_hammer_threshold(
        0, chip.mapping.to_logical(3), AllOnes())
    # Single-sided cascaded hammering: effective acts ~ cascade_weight x raw.
    count = int(threshold * 3) + 10
    logical_victim = chip.mapping.to_logical(3)
    chip.write_row(0, logical_victim, AllOnes())
    chip.hammer(ActBatch(bank=0, pattern=((4, count),)))
    assert chip.read_row_mismatches(0, logical_victim) != []


def test_trr_protects_victims_but_no_trr_does_not(small_config):
    def run(trr):
        chip = DramChip(small_config, trr)
        victim = 512
        threshold = chip.true_min_hammer_threshold(0, victim, AllOnes())
        chip.write_row(0, victim, AllOnes())
        per_side = int(threshold / 2 * 0.6)
        batch = ActBatch(bank=0, pattern=((victim - 1, per_side),
                                          (victim + 1, per_side)),
                         mode=HammerMode.INTERLEAVED)
        # Two bursts with plenty of REFs between: TRR gets its chance.
        chip.hammer(batch)
        chip.refresh(count=50)
        chip.hammer(batch)
        return chip.read_row_mismatches(0, victim)

    assert run(None) != []          # accumulates across bursts
    assert run(CounterBasedTrr()) == []  # TRR refresh resets the victim


def test_stats_counters(chip):
    chip.write_row(0, 1, AllOnes())
    chip.read_row(0, 1)
    chip.hammer(ActBatch(bank=0, pattern=((5, 10),)))
    chip.refresh(count=3)
    snapshot = chip.stats.snapshot()
    assert snapshot["row_writes"] == 1
    assert snapshot["row_reads"] == 1
    assert snapshot["activates"] == 12  # 1 write + 1 read + 10 hammers
    assert snapshot["refreshes"] == 3


def test_bank_bounds_checked(chip):
    with pytest.raises(ConfigError):
        chip.write_row(99, 0, AllOnes())


def test_negative_bank_rejected_not_aliased(chip):
    # A negative index must not wrap around to the last banks.
    with pytest.raises(ConfigError, match="out of range"):
        chip.write_row(-1, 5, AllOnes())
    with pytest.raises(ConfigError, match="out of range"):
        chip.read_row(-1, 5)
    with pytest.raises(ConfigError, match="out of range"):
        chip.hammer(ActBatch(bank=-1, pattern=((5, 10),)))
    assert chip.stats.snapshot()["activates"] == 0
    assert not chip.banks[-1].rows


def test_one_batch_object_translated_per_chip(small_config):
    # The physical-batch memo is per chip: the same logical batch object
    # disturbs each chip's own physical neighbours.
    direct = DramChip(small_config)
    swapped = DramChip(small_config.scaled(mapping_scheme="bit_swap_0_1"))
    batch = ActBatch(bank=0, pattern=((5, 10),))
    assert direct.mapping.to_physical(5) != swapped.mapping.to_physical(5)
    for chip in (direct, swapped, direct, swapped):
        chip.hammer(batch)
    for chip in (direct, swapped):
        aggressor = chip.mapping.to_physical(5)
        disturbed = {row for row, state in chip.banks[0].rows.items()
                     if state.disturbance >= 1.0}
        assert disturbed == {aggressor - 1, aggressor + 1}


def test_physical_batch_memo_stays_bounded(chip):
    # Live hammers build a fresh batch per call; none is replayed, so
    # the memo must churn within its bound instead of growing.
    for index in range(4 * _MEMO_ENTRIES):
        chip.hammer(ActBatch(bank=0, pattern=((index, 1),)))
        chip.hammer_multi((ActBatch(bank=1, pattern=((index, 1),)),
                           ActBatch(bank=2, pattern=((index, 1),))))
    assert 0 < len(chip._physical) <= _MEMO_ENTRIES
    assert 0 < len(chip._groups) <= _MEMO_ENTRIES


def test_device_config_validation():
    with pytest.raises(ConfigError):
        DeviceConfig(num_banks=0)
    with pytest.raises(ConfigError):
        DeviceConfig(row_bits=100)  # not a multiple of 64
    config = DeviceConfig(rows_per_bank=1024, refresh_cycle_refs=512)
    assert config.scaled(rows_per_bank=2048).rows_per_bank == 2048


def test_chips_with_same_serial_are_replicas():
    config = DeviceConfig(name="replica", serial=9, rows_per_bank=1024,
                          num_banks=2, row_bits=512, refresh_cycle_refs=256,
                          retention=RetentionConfig(
                              weak_cells_per_row_mean=0.5),
                          disturbance=DisturbanceConfig(hc_first=5_000))
    a = DramChip(config)
    b = DramChip(config)
    for row in range(0, 1024, 97):
        assert (a.true_retention_ps(0, row, AllOnes())
                == b.true_retention_ps(0, row, AllOnes()))
        assert (a.true_min_hammer_threshold(0, row)
                == b.true_min_hammer_threshold(0, row))
