"""Bank fault physics: settle-on-observe, recharge, sparse faults."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dram.bank import Bank
from repro.dram.commands import ActBatch, HammerMode
from repro.dram.disturbance import DisturbanceConfig
from repro.dram.patterns import AllOnes, AllZeros
from repro.dram.refresh import RefreshEngine
from repro.dram.retention import RetentionConfig, RowRetentionProfile
from repro.errors import ConfigError
from repro.rng import SeedSequenceFactory
from repro.units import ms

BIG = np.iinfo(np.int64).max


def make_bank(retention=None, disturbance=None, num_rows=2048,
              row_bits=1024, cycle=256, serial=0):
    engine = RefreshEngine(num_rows, cycle)
    bank = Bank(0, num_rows, row_bits,
                retention or RetentionConfig(weak_cells_per_row_mean=0.4,
                                             vrt_fraction=0.0),
                disturbance or DisturbanceConfig(hc_first=5_000),
                SeedSequenceFactory("bank-test", serial), engine)
    return bank, engine


def find_weak_row(bank, pattern=AllOnes(), limit=2048, max_ms=5000):
    for row in range(limit):
        retention = bank.true_retention_ps(row, pattern)
        if retention < ms(max_ms):
            return row, retention
    raise AssertionError("no weak row found")


def test_write_read_roundtrip():
    bank, _ = make_bank()
    bank.write(10, AllOnes(), now_ps=0)
    bits = bank.read(10, now_ps=1)
    assert bits.sum() == bank.row_bits


def test_retention_decay_exactly_at_threshold():
    bank, _ = make_bank()
    row, retention = find_weak_row(bank)
    bank.write(row, AllOnes(), now_ps=0)
    assert bank.read_mismatches(row, now_ps=retention - 1) == []
    bank.write(row, AllOnes(), now_ps=retention)
    assert bank.read_mismatches(row, now_ps=2 * retention) != []


def test_read_recharges_row():
    bank, _ = make_bank()
    row, retention = find_weak_row(bank)
    bank.write(row, AllOnes(), now_ps=0)
    half = retention // 2
    assert bank.read_mismatches(row, now_ps=half) == []
    # The read at `half` restored charge: surviving another `half+1` only
    # fails if elapsed-since-read exceeds retention.
    assert bank.read_mismatches(row, now_ps=half + retention - 1) == []
    assert bank.read_mismatches(row, now_ps=2 * half + 2 * retention) != []


def test_refresh_after_decay_preserves_decayed_value():
    bank, _ = make_bank()
    row, retention = find_weak_row(bank)
    bank.write(row, AllOnes(), now_ps=0)
    # Let the row decay past its retention, then refresh it: the refresh
    # must restore the *decayed* data (footnote 4 of the paper).
    bank.refresh_rows([row], now_ps=retention + 1)
    mismatches = bank.read_mismatches(row, now_ps=retention + 2)
    assert mismatches != []


def test_refresh_before_decay_prevents_failure():
    bank, _ = make_bank()
    row, retention = find_weak_row(bank)
    bank.write(row, AllOnes(), now_ps=0)
    bank.refresh_rows([row], now_ps=retention // 2)
    assert bank.read_mismatches(row, now_ps=retention + retention // 4) == []


def test_hammer_disturbance_accumulates_and_flips():
    bank, _ = make_bank()
    victim = 300
    threshold = bank.true_min_hammer_threshold(victim, AllOnes())
    bank.write(victim, AllOnes(), now_ps=0)
    per_side = int(threshold / 2) + 1
    batch = ActBatch(bank=0, pattern=((victim - 1, per_side),
                                      (victim + 1, per_side)),
                     mode=HammerMode.INTERLEAVED)
    bank.absorb_hammering(batch, now_ps=1000)
    assert bank.read_mismatches(victim, now_ps=2000) != []


def test_victim_refresh_resets_disturbance():
    bank, _ = make_bank()
    victim = 300
    threshold = bank.true_min_hammer_threshold(victim, AllOnes())
    bank.write(victim, AllOnes(), now_ps=0)
    per_side = int(threshold / 2 * 0.7)
    batch = ActBatch(bank=0, pattern=((victim - 1, per_side),
                                      (victim + 1, per_side)),
                     mode=HammerMode.INTERLEAVED)
    bank.absorb_hammering(batch, now_ps=100)
    bank.refresh_rows([victim], now_ps=200)  # TRR-style victim refresh
    bank.absorb_hammering(batch, now_ps=300)
    # Neither burst alone crosses the threshold.
    assert bank.read_mismatches(victim, now_ps=400) == []


def test_unrefreshed_victim_accumulates_across_bursts():
    bank, _ = make_bank()
    victim = 300
    threshold = bank.true_min_hammer_threshold(victim, AllOnes())
    bank.write(victim, AllOnes(), now_ps=0)
    per_side = int(threshold / 2 * 0.7)
    batch = ActBatch(bank=0, pattern=((victim - 1, per_side),
                                      (victim + 1, per_side)),
                     mode=HammerMode.INTERLEAVED)
    bank.absorb_hammering(batch, now_ps=100)
    bank.absorb_hammering(batch, now_ps=300)
    assert bank.read_mismatches(victim, now_ps=400) != []


def test_aggressor_is_recharged_not_disturbed():
    bank, _ = make_bank()
    row, retention = find_weak_row(bank)
    bank.write(row, AllOnes(), now_ps=0)
    # Hammering the weak row itself keeps recharging it.
    batch = ActBatch(bank=0, pattern=((row, 10),))
    bank.absorb_hammering(batch, now_ps=retention - 1)
    assert bank.read_mismatches(row, now_ps=2 * retention - 2) == []


def test_regular_refresh_slot_covers_tracked_rows():
    bank, engine = make_bank()
    row, retention = find_weak_row(bank)
    bank.write(row, AllOnes(), now_ps=0)
    slot = engine.slot_of(row)
    bank.regular_refresh(slot, now_ps=retention - 1)
    assert bank.read_mismatches(row, now_ps=2 * retention - 2) == []


# -- a REF slot defers the decay of the gap it ends ---------------------------
# A row with no VRT cell, in no environment, with no disturbance has no
# ordered side effect at its REF slot: the slot only recharges it and
# keeps the gap for the row's next settle, or for its next write to drop.

def test_ref_defers_the_decay_of_its_gap():
    bank, engine = make_bank()
    row, retention = find_weak_row(bank)
    bank.write(row, AllOnes(), now_ps=0)
    bank.regular_refresh(engine.slot_of(row), now_ps=retention + 5)
    state = bank.rows[row]
    assert state.fault_positions.tolist() == []
    assert state.pending_decay_ps == retention + 5
    assert state.last_recharge_ps == retention + 5


def test_deferred_gap_reads_as_a_settle_at_the_ref():
    deferring, engine = make_bank()
    settling, _ = make_bank()
    row, retention = find_weak_row(deferring)
    ref_ps = retention + 5
    for bank in (deferring, settling):
        bank.write(row, AllOnes(), now_ps=0)
    deferring.regular_refresh(engine.slot_of(row), ref_ps)
    settling.refresh_rows([row], ref_ps)  # settles, then recharges
    assert deferring.rows[row].fault_positions.tolist() == []
    # The read's own gap decays nothing: only the REF's gap shows.
    read_ps = ref_ps + retention // 2
    bits = deferring.read(row, read_ps)
    assert bits.sum() < deferring.row_bits
    assert np.array_equal(bits, settling.read(row, read_ps))


def test_ref_settles_a_disturbed_row():
    # Its flips come from the disturbance the REF's recharge clears.
    bank, engine = make_bank()
    victim = 300
    threshold = bank.true_min_hammer_threshold(victim, AllOnes())
    bank.write(victim, AllOnes(), now_ps=0)
    per_side = int(threshold / 2) + 1
    batch = ActBatch(bank=0, pattern=((victim - 1, per_side),
                                      (victim + 1, per_side)),
                     mode=HammerMode.INTERLEAVED)
    bank.absorb_hammering(batch, now_ps=1000)
    bank.regular_refresh(engine.slot_of(victim), now_ps=2000)
    assert bank.rows[victim].fault_positions.size
    assert bank.read_mismatches(victim, now_ps=3000) != []


def exposed_retentions(bank, row, pattern=AllOnes()):
    """Sorted retention times of the weak cells *pattern* charges."""
    profile = bank._retention(row, bank.state(row))
    charged = pattern.bits_at(profile.positions) == profile.polarity
    return np.sort(profile.base_retention_ps[charged])


@pytest.mark.parametrize("longer_first", [True, False])
def test_two_gaps_commit_as_the_longer_one(longer_first):
    retention = RetentionConfig(weak_cells_per_row_mean=4.0,
                                vrt_fraction=0.0)
    deferring, engine = make_bank(retention)
    once, _ = make_bank(retention)
    row = next(row for row in range(deferring.num_rows)
               if len(set(exposed_retentions(deferring, row)[:2])) == 2)
    shorter, longer = (int(r) for r in exposed_retentions(deferring, row)[:2])
    gaps = (longer, shorter) if longer_first else (shorter, longer)
    deferring.write(row, AllOnes(), now_ps=0)
    now_ps = 0
    for gap in gaps:
        now_ps += gap
        deferring.regular_refresh(engine.slot_of(row), now_ps)
    assert deferring.rows[row].pending_decay_ps == longer
    once.write(row, AllOnes(), now_ps=0)
    once.refresh_rows([row], longer)
    expected = once.read_mismatches(row, longer + 1)
    assert len(expected) >= 2
    assert deferring.read_mismatches(row, now_ps + 1) == expected


def test_write_drops_the_deferred_gap(monkeypatch):
    bank, engine = make_bank()
    row, retention = find_weak_row(bank)
    compares = []
    failed_cells = RowRetentionProfile.failed_cells

    def counted(profile, *args):
        compares.append(args)
        return failed_cells(profile, *args)
    monkeypatch.setattr(RowRetentionProfile, "failed_cells", counted)
    bank.write(row, AllOnes(), now_ps=0)
    ref_ps = retention + 5
    bank.regular_refresh(engine.slot_of(row), ref_ps)
    bank.write(row, AllOnes(), now_ps=ref_ps + 1)
    assert bank.rows[row].pending_decay_ps == 0
    assert bank.read_mismatches(row, now_ps=ref_ps + 2) == []
    assert compares == []


def test_lazy_materialization_uses_engine_epoch():
    bank, engine = make_bank()
    # Run the engine for a while before ever touching the row.
    target_time = 123456789
    for i in range(engine.cycle_refs):
        engine.on_ref(target_time + i)
    row = 100
    state = bank.state(row)
    assert state.last_recharge_ps == target_time + engine.slot_of(row)


def test_write_clears_prior_faults():
    bank, _ = make_bank()
    row, retention = find_weak_row(bank)
    bank.write(row, AllOnes(), now_ps=0)
    assert bank.read_mismatches(row, now_ps=2 * retention) != []
    bank.write(row, AllOnes(), now_ps=3 * retention)
    assert bank.read_mismatches(row, now_ps=3 * retention + 10) == []


def test_mismatches_only_against_current_pattern():
    bank, _ = make_bank()
    row, retention = find_weak_row(bank, AllOnes())
    # Store the complement pattern: the weak cell's polarity may not be
    # exposed, so flips differ between patterns.
    bank.write(row, AllZeros(), now_ps=0)
    zeros_flips = bank.read_mismatches(row, now_ps=2 * retention)
    bank.write(row, AllOnes(), now_ps=4 * retention)
    ones_flips = bank.read_mismatches(row, now_ps=6 * retention)
    assert ones_flips != [] or zeros_flips != []


def test_out_of_range_rows_rejected():
    bank, _ = make_bank()
    with pytest.raises(ConfigError):
        bank.state(5000)
    with pytest.raises(ConfigError):
        bank.absorb_hammering(ActBatch(bank=0, pattern=((5000, 10),)), 0)
