"""Payload compiler: interning, scheduling, fusion groups."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import HammerMode
from repro.errors import ConfigError
from repro.program import (OP_ACT, OP_MULTI, OP_REF, OP_WAIT,
                           compile_program, execute_payload)
from repro.program.compiler import _fuse_groups
from repro.softmc import SoftMCProgram
from repro.softmc.program import Wait

from .conftest import payload_host


@pytest.fixture
def timing():
    return payload_host().timing


def test_empty_program_compiles_and_runs(timing):
    payload = compile_program([], timing)
    assert len(payload) == 0
    assert payload.dt.sum() == 0
    assert payload.opcode.tolist() == []
    host = payload_host()
    before = host.now_ps
    execute_payload(host, payload)
    assert host.now_ps == before


def test_single_command_payload(timing):
    program = SoftMCProgram().hammer(0, ((100, 7),), HammerMode.CASCADED)
    payload = compile_program(program.instructions, timing)
    assert len(payload) == 1
    assert payload.opcode[0] == OP_ACT
    assert payload.dt[0] == timing.hammer_duration_ps(7)
    assert payload.fuse_groups == ()


def test_wait_only_payload(timing):
    payload = compile_program([Wait(123_456)], timing)
    assert len(payload) == 1
    assert payload.opcode[0] == OP_WAIT
    assert payload.arg[0] == 123_456
    assert payload.dt[0] == 123_456
    assert payload.dt.sum() == 123_456
    host = payload_host()
    before = host.now_ps
    execute_payload(host, payload)
    assert host.now_ps - before == 123_456


def test_dt_schedule_matches_timing_formulas(timing):
    program = (SoftMCProgram()
               .hammer(0, ((1, 3), (3, 2)), HammerMode.INTERLEAVED)
               .hammer_multi({0: [(5, 4)], 1: [(6, 2)], 2: [(7, 1)]})
               .refresh(3)
               .refresh(2, at_nominal_rate=True)
               .wait(99))
    payload = compile_program(program.instructions, timing)
    assert payload.dt.tolist() == [
        timing.hammer_duration_ps(5),
        timing.multi_bank_hammer_duration_ps(4, 3),
        3 * timing.trfc_ps,
        2 * timing.trefi_ps,
        99]
    assert payload.opcode.tolist() == [
        OP_ACT, OP_MULTI, OP_REF, OP_REF, OP_WAIT]


def test_operand_interning_and_fuse_groups(timing):
    program = SoftMCProgram()
    for _ in range(4):
        program.hammer(0, ((100, 2), (102, 2)), HammerMode.INTERLEAVED)
    program.hammer(1, ((200, 2),), HammerMode.CASCADED)
    for _ in range(2):
        program.hammer(0, ((100, 2), (102, 2)), HammerMode.INTERLEAVED)
    payload = compile_program(program.instructions, timing)
    # Identical (bank, rows, mode) batches share one interned operand.
    assert len(payload.batches) == 2
    # Runs of >= 2 identical consecutive ACT commands become fusion
    # groups; the lone bank-1 hammer breaks the run.
    assert payload.fuse_groups == ((0, 4), (5, 2))


def _fuse_groups_loop(opcode, arg):
    """The per-command scan ``_fuse_groups`` vectorizes (reference)."""
    groups = []
    start = batch_id = -1
    for index, (op, operand) in enumerate(zip(opcode, arg)):
        if op == OP_ACT and operand == batch_id:
            continue
        if start >= 0 and index - start >= 2:
            groups.append((start, index - start))
        if op == OP_ACT:
            start, batch_id = index, operand
        else:
            start, batch_id = -1, -1
    if start >= 0 and len(opcode) - start >= 2:
        groups.append((start, len(opcode) - start))
    return tuple(groups)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([OP_ACT, OP_ACT, OP_MULTI,
                                           OP_REF]),
                          st.integers(0, 2)), max_size=30))
def test_fuse_groups_match_the_per_command_scan(commands):
    opcode = np.array([op for op, _ in commands], dtype=np.uint8)
    arg = np.array([operand for _, operand in commands], dtype=np.int64)
    assert _fuse_groups(opcode, arg) == _fuse_groups_loop(
        opcode.tolist(), arg.tolist())


def test_multi_hammer_compiles_to_one_command(timing):
    program = SoftMCProgram().hammer_multi({0: [(10, 3)], 2: [(20, 4)]})
    payload = compile_program(program.instructions, timing)
    assert len(payload) == 1
    assert payload.opcode[0] == OP_MULTI
    assert len(payload.multis) == 1
    batches = payload.multis[0]
    assert [(batch.bank, batch.pattern) for batch in batches] == [
        (0, ((10, 3),)), (2, ((20, 4),))]


def test_unknown_instruction_rejected(timing):
    with pytest.raises(ConfigError, match="unknown instruction"):
        compile_program([object()], timing)


def test_counts_and_opcode_constants(timing):
    program = (SoftMCProgram()
               .wait(10)
               .hammer(0, ((5, 1),))
               .refresh(1)
               .hammer_multi({0: [(6, 1)], 1: [(7, 1)]})
               .hammer(0, ((5, 1),)))
    payload = compile_program(program.instructions, timing)
    present, tallies = np.unique(payload.opcode, return_counts=True)
    assert dict(zip(present.tolist(), tallies.tolist())) == {
        OP_WAIT: 1, OP_ACT: 2, OP_REF: 1, OP_MULTI: 1}
    assert payload.opcode.tolist() == [OP_WAIT, OP_ACT, OP_REF, OP_MULTI,
                                       OP_ACT]
