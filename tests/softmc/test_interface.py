"""SoftMC host interface."""

from __future__ import annotations

import pytest

from repro.dram import AllOnes, DramChip, HammerMode
from repro.errors import ConfigError
from repro.softmc import SoftMCHost
from repro.units import ms, us


@pytest.fixture
def host(small_config):
    return SoftMCHost(DramChip(small_config))


def find_weak_row(host, bank=0, max_ms=5000):
    chip = host._chip
    for row in range(host.rows_per_bank):
        if chip.true_retention_ps(bank, row, AllOnes()) < ms(max_ms):
            return row, chip.true_retention_ps(bank, row, AllOnes())
    raise AssertionError("no weak row")


def test_module_facts(host, small_config):
    assert host.num_banks == small_config.num_banks
    assert host.rows_per_bank == small_config.rows_per_bank
    assert host.row_bits == small_config.row_bits
    assert host.hammers_per_ref_interval() == 149


def test_write_read_roundtrip(host):
    host.write_row(0, 7, AllOnes())
    assert host.read_row(0, 7).sum() == host.row_bits
    assert host.read_row_mismatches(0, 7) == []


def test_ref_count_tracks_host_issued_refs(host):
    host.refresh(count=5)
    host.refresh()
    assert host.ref_count == 6


def test_refresh_at_nominal_rate_paces_trefi(host):
    start = host.now_ps
    host.refresh(count=100, at_nominal_rate=True)
    assert host.now_ps - start == 100 * us(7.8)


def test_wait_helpers(host):
    start = host.now_ps
    host.wait_us(2.5)
    host.wait_ms(1.0)
    assert host.now_ps - start == us(2.5) + ms(1.0)


def test_side_channel_visible_through_host(host):
    row, retention = find_weak_row(host)
    host.write_row(0, row, AllOnes())
    host.wait(retention + ms(1))
    assert host.read_row_mismatches(0, row) != []


def test_hammer_modes_forwarded(host):
    start = host.now_ps
    host.hammer(0, [(100, 50), (102, 50)], HammerMode.INTERLEAVED)
    assert host.now_ps - start == 100 * host.timing.trc_ps
    host.hammer_single(0, 100, 10)


def test_hammer_multi_limited_to_four_banks(host):
    ledger = host.ledger()
    stats = host._chip.stats.snapshot()
    now_ps = host.now_ps
    with pytest.raises(ConfigError):
        host.hammer_multi({b: [(10, 5)] for b in range(5)})
    # Rejected before any side effect: nothing recorded, counted or run.
    assert host.ledger() == ledger
    assert host._chip.stats.snapshot() == stats
    assert host.now_ps == now_ps
    host.hammer_multi({b: [(10, 5)] for b in range(4)})


def test_pick_rows_away_from_enforces_distance(host):
    protected = [500, 900]
    rows = host.pick_rows_away_from(0, protected, count=20,
                                    min_distance=100)
    assert len(rows) == 20
    assert len(set(rows)) == 20
    for row in rows:
        assert all(abs(row - p) >= 100 for p in protected)


def test_pick_rows_away_from_impossible_request(host):
    # Protect everything: no candidate can be 2000 rows away in a
    # 2048-row bank straddled by protected rows.
    protected = list(range(0, host.rows_per_bank, 50))
    with pytest.raises(ConfigError):
        host.pick_rows_away_from(0, protected, count=1, min_distance=100)
