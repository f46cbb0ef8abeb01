"""Declarative SoftMC programs."""

from __future__ import annotations

import pytest

from repro.dram import AllOnes, AllZeros, DramChip
from repro.errors import ConfigError
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


def test_program_reads_and_checks(host):
    program = (SoftMCProgram()
               .write(0, 5, AllOnes())
               .read(0, 5, label="victim")
               .check(0, 5, label="victim-check"))
    result = program.run(host)
    assert result.rows["victim"].sum() == host.row_bits
    assert result.mismatches["victim-check"] == []
    assert result.duration_ps > 0


def test_program_reproduces_side_channel(host):
    row, retention = find_weak_row(host)
    program = (SoftMCProgram()
               .write(0, row, AllOnes())
               .wait(retention + ms(1))
               .check(0, row, label="decayed"))
    result = program.run(host)
    assert result.mismatches["decayed"] != []


def test_default_labels_are_bank_row(host):
    result = (SoftMCProgram().write(0, 9, AllZeros()).read(0, 9)).run(host)
    assert "0:9" in result.rows


def test_duplicate_labels_rejected(host):
    program = SoftMCProgram().read(0, 1, "x").read(0, 2, "x")
    with pytest.raises(ConfigError):
        program.run(host)


def test_loop_repeats_body(host):
    body = SoftMCProgram().hammer(0, [(100, 10)]).refresh()
    program = SoftMCProgram().loop(8, body)
    program.run(host)
    assert host.ref_count == 8
    assert host._chip.stats.activates == 80


def test_loop_with_reads_requires_single_iteration(host):
    body = SoftMCProgram().read(0, 1, "r")
    program = SoftMCProgram().loop(3, body)
    with pytest.raises(ConfigError):
        program.run(host)
    once = SoftMCProgram().loop(1, SoftMCProgram().read(0, 1, "r"))
    assert "r" in once.run(host).rows


def test_zero_iteration_loop_reserves_no_labels(host):
    """A loop that never runs reads nothing, so its labels stay free —
    in the interpreter as in the compiler."""
    program = (SoftMCProgram()
               .loop(0, SoftMCProgram().read(0, 1, "x"))
               .read(0, 1, "x"))
    assert list(program.run(host).rows) == ["x"]
    assert program.compile(host.timing).labels == ("x",)
