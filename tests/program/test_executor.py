"""Batch executor: byte-identity with the per-command interpreter.

Every test compares the compiled engines (guarded and fused) against
the per-command interpreter (``SoftMCProgram.run``) on identically
seeded hosts: same read-backs of the rows the program disturbs, same
ledger, same chip state to the float bit, same trace bytes.
"""

from __future__ import annotations

import pytest

from repro.dram import HammerMode
from repro.faults import DEFAULT, FaultInjector
from repro.obs import CommandProfiler, Observability, traced
from repro.program import compile_program, execute_payload
from repro.softmc import SoftMCProgram
from repro.trr import CounterBasedTrr

from .conftest import (MIXED_ROWS, chip_state, mixed_program, payload_host,
                       run_between_readbacks)


def run_legacy(host, program):
    program.run(host)


def run_default(host, program, fuse=None):
    execute_payload(host, compile_program(program.instructions, host.timing),
                    fuse=fuse)


def run_guarded(host, program):
    run_default(host, program, fuse=False)


def run_fused(host, program):
    run_default(host, program, fuse=True)


def readbacks(host, runner, program) -> tuple:
    """*program* run by *runner* between writes and read-backs of the
    rows it disturbs."""
    return run_between_readbacks(host, MIXED_ROWS,
                                 lambda host: runner(host, program))


@pytest.mark.parametrize("run_compiled", [run_guarded, run_fused],
                         ids=["guarded", "fused"])
def test_compiled_engines_match_per_command(run_compiled):
    program = mixed_program()
    reference_host = payload_host()
    reference = readbacks(reference_host, run_legacy, program)
    host = payload_host()
    assert readbacks(host, run_compiled, program) == reference
    assert chip_state(host) == chip_state(reference_host)
    # The read-backs must actually observe decay, or the identity
    # proves nothing.
    assert any(mismatches for _, _, mismatches, _ in reference)


def test_fusion_actually_fuses():
    """The fused path must exercise ``hammer_repeated``, not fall back."""
    program = mixed_program()
    host = payload_host()
    calls = []
    original = host._chip.hammer_repeated

    def spy(batch, repeats):
        calls.append(repeats)
        return original(batch, repeats)

    host._chip.hammer_repeated = spy
    run_fused(host, program)
    assert calls == [8] * 10


def test_vendor_trr_payloads_identical():
    """Stateful TRR blocks fusion; the guarded fallback stays exact."""
    program = mixed_program()
    reference_host = payload_host(CounterBasedTrr())
    reference = readbacks(reference_host, run_legacy, program)
    host = payload_host(CounterBasedTrr())
    assert readbacks(host, run_fused, program) == reference
    assert chip_state(host) == chip_state(reference_host)


def test_fault_injector_payloads_identical():
    """Per-command fault draws survive compilation (fusion auto-off)."""
    program = mixed_program()

    def faulty_host():
        return payload_host(faults=FaultInjector(DEFAULT, seed=3))

    reference_host = faulty_host()
    reference = readbacks(reference_host, run_legacy, program)
    host = faulty_host()
    assert readbacks(host, run_default, program) == reference
    assert chip_state(host) == chip_state(reference_host)


def test_traced_run_byte_identical(tmp_path):
    program = mixed_program()
    paths = {}
    for name, runner in (("legacy", run_legacy), ("fused", run_fused)):
        path = tmp_path / f"{name}.jsonl"
        obs = traced(path, manifest={"case": "payload-identity"})
        host = payload_host(obs=obs)
        readbacks(host, runner, program)
        obs.finalize(host)
        paths[name] = path.read_bytes()
    assert paths["legacy"] == paths["fused"]


def test_interleaved_multibank_hammers_regroup(tmp_path):
    """hammer_multi commands keep their group stamps and bank order."""
    program = SoftMCProgram()
    for _ in range(3):
        program.hammer_multi({0: [(10, 2)], 1: [(20, 2)], 2: [(30, 2)]})
        program.hammer(3, ((40, 2),), HammerMode.CASCADED)
    traces = {}
    for name, runner in (("legacy", run_legacy), ("fused", run_fused)):
        path = tmp_path / f"{name}.jsonl"
        obs = traced(path, manifest={"case": "multibank"})
        host = payload_host(obs=obs)
        runner(host, program)
        obs.finalize(host)
        traces[name] = path.read_bytes()
        assert host.acts_per_bank == {0: 6, 1: 6, 2: 6, 3: 6}
    assert traces["legacy"] == traces["fused"]
    assert b'"mg":3' in traces["fused"]


def test_profiler_attributes_fused_commands_in_full():
    """A fused run of N ACT commands accounts N commands, not one."""
    program = mixed_program()
    counts = {}
    for name, runner in (("legacy", run_legacy), ("fused", run_fused)):
        profiler = CommandProfiler()
        host = payload_host(obs=Observability(profiler=profiler))
        runner(host, program)
        counts[name] = dict(profiler.counts)
    assert counts["fused"] == counts["legacy"]
    assert counts["fused"]["ACT"] == 8 * 10 + 1 + 1
