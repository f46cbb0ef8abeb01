"""Declarative SoftMC programs."""

from __future__ import annotations

import pytest

from repro.dram import AllOnes, DramChip
from repro.softmc import SoftMCHost, SoftMCProgram
from repro.units import ms


@pytest.fixture
def host(small_config):
    return SoftMCHost(DramChip(small_config))


def find_weak_row(host, max_ms=5000):
    chip = host._chip
    for row in range(host.rows_per_bank):
        retention = chip.true_retention_ps(0, row, AllOnes())
        if retention < ms(max_ms):
            return row, retention
    raise AssertionError("no weak row")


def test_program_reproduces_side_channel(host):
    row, retention = find_weak_row(host)
    host.write_row(0, row, AllOnes())
    SoftMCProgram().wait(retention + ms(1)).run(host)
    assert host.read_row_mismatches(0, row) != []


def test_loop_repeats_body(host):
    # Programs hold no loop instruction: a repeated body is written out.
    program = SoftMCProgram()
    for _ in range(8):
        program.hammer(0, [(100, 10)]).refresh()
    program.run(host)
    assert host.ref_count == 8
    assert host._chip.stats.activates == 80
