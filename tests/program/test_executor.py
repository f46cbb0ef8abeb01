"""Batch executor: byte-identity with the per-command interpreter.

Every test compares the compiled engines (guarded and fused) against
the per-command interpreter (``SoftMCProgram.run``) on identically
seeded hosts: same read-backs, same mismatches, same ledger, same chip
state to the float bit, same trace bytes.  The last test checks how
``REPRO_PAYLOAD`` routes the attack executor, the one production
caller of compiled payloads.
"""

from __future__ import annotations

import pytest

from repro.attacks import AttackExecutor, DoubleSidedPattern, default_context
from repro.attacks import executor as executor_module
from repro.dram import HammerMode
from repro.faults import DEFAULT, FaultInjector
from repro.obs import CommandProfiler, Observability, traced
from repro.program import execute_payload
from repro.softmc import SoftMCProgram
from repro.trr import CounterBasedTrr

from .conftest import chip_state, mixed_program, payload_host, result_digest


def run_legacy(host, program):
    return program.run(host)


def run_guarded(host, program):
    return execute_payload(host, program.compile(host.timing), fuse=False)


def run_fused(host, program):
    return execute_payload(host, program.compile(host.timing), fuse=True)


@pytest.mark.parametrize("run_compiled", [run_guarded, run_fused],
                         ids=["guarded", "fused"])
def test_compiled_engines_match_per_command(run_compiled):
    program = mixed_program()
    reference_host = payload_host()
    reference = run_legacy(reference_host, program)
    host = payload_host()
    result = run_compiled(host, program)
    assert result_digest(result) == result_digest(reference)
    assert chip_state(host) == chip_state(reference_host)
    # The scan half of the workload must actually observe decay, or the
    # identity proves nothing.
    assert any(reference.mismatches.values())


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
    reference = run_legacy(reference_host, program)
    host = payload_host(CounterBasedTrr())
    result = run_fused(host, program)
    assert result_digest(result) == result_digest(reference)
    assert chip_state(host) == chip_state(reference_host)


def test_fault_injector_payloads_identical():
    """Per-command fault draws survive compilation (fusion auto-off)."""
    program = mixed_program()

    def faulty_host():
        return payload_host(faults=FaultInjector(DEFAULT, seed=3))

    reference_host = faulty_host()
    reference = run_legacy(reference_host, program)
    host = faulty_host()
    result = execute_payload(host, program.compile(host.timing))
    assert result_digest(result) == result_digest(reference)
    assert chip_state(host) == chip_state(reference_host)


def test_traced_run_byte_identical(tmp_path):
    program = mixed_program()
    paths = {}
    for name, runner in (("legacy", run_legacy), ("fused", run_fused)):
        path = tmp_path / f"{name}.jsonl"
        obs = traced(path, manifest={"case": "payload-identity"})
        host = payload_host(obs=obs)
        runner(host, program)
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


@pytest.mark.parametrize("mode, captures", [(None, True), ("legacy", False)],
                         ids=["default", "legacy"])
def test_payload_env_routes_attack_windows(monkeypatch, mode, captures):
    """Unset, ``REPRO_PAYLOAD`` lets the attack executor capture and
    compile its windows; ``legacy`` makes it run every window live."""
    if mode is None:
        monkeypatch.delenv("REPRO_PAYLOAD", raising=False)
    else:
        monkeypatch.setenv("REPRO_PAYLOAD", mode)
    calls = []
    original = executor_module.capture_window

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(executor_module, "capture_window", spy)
    host = payload_host()
    context = default_context(0, 600, host._chip.mapping, 4,
                              host.num_banks)
    AttackExecutor(host, host._chip.mapping).run(
        DoubleSidedPattern(), context, windows=3)
    assert bool(calls) == captures
