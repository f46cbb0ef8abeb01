"""Window memo: replayed windows equal live execution, command for command.

The attack executor captures and compiles a window only when the
pattern's :meth:`~repro.attacks.AccessPattern.window_key` is new in the
run and otherwise re-executes the stored payload.  This differential
property runs every built-in pattern twice on identically built hosts —
once live per command (capture forced to raise
:class:`~repro.attacks.CaptureUnsupported`), once through the memo —
from random REF and ACT phases, with and without a fault injector, and
requires equal results, ledgers, trace bytes and chip state.  It also
counts captures: one per distinct key, so the memo is really used.  A
slow end-to-end test renders Figure 9 both ways.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import (HealthCheck, Phase, assume, example, given,
                        settings)
from hypothesis import strategies as st

from repro.attacks import (AttackExecutor, CaptureUnsupported,
                           DoubleSidedPattern, ManySidedPattern,
                           PhaseLockedSamplerPattern,
                           SingleSidedPattern, VendorAPattern,
                           VendorBPattern, VendorCPattern, default_context)
from repro.attacks import executor as executor_module
from repro.dram import DramChip, HammerMode
from repro.eval import QUICK, run_fig9
from repro.faults import FaultInjector
from repro.obs import traced
from repro.softmc import SoftMCHost
from repro.vendors import get_module

ROWS = 1024
_TIMING = get_module("B13").device_config(rows_per_bank=ROWS).timing
#: Single-bank ACTs per REF interval.
INTERVAL_ACTS = (_TIMING.trefi_ps - _TIMING.trfc_ps) // _TIMING.trc_ps


def build_host(module_id: str, faults: bool, fault_seed: int,
               trace_path: str) -> SoftMCHost:
    """A small module: real vendor TRR, few rows, short rows."""
    spec = get_module(module_id)
    config = spec.device_config(rows_per_bank=ROWS, row_bits=512)
    config = dataclasses.replace(
        config, refresh_cycle_refs=256,
        disturbance=dataclasses.replace(
            config.disturbance, hc_first=120))
    injector = FaultInjector("default", seed=fault_seed) if faults else None
    obs = traced(trace_path, manifest={"case": "window-memo"})
    return SoftMCHost(DramChip(config, spec.make_trr()), faults=injector,
                      obs=obs)


def chip_state(host: SoftMCHost) -> list:
    """Everything observable about the chip, exact to the float bit."""
    chip = host._chip
    rows = sorted(
        (index, row, int(state.last_recharge_ps), float(state.disturbance),
         tuple(state.fault_positions.tolist()),
         tuple(state.fault_values.tolist()))
        for index, bank in enumerate(chip.banks)
        for row, state in bank.rows.items())
    state = [("now_ps", host.now_ps), ("stats", chip.stats.snapshot()),
             *rows]
    if host.faults is not None:
        state += [("faults", sorted(host.faults.counters.items())),
                  *host.faults.trace]
    return state


def first_divergence(live, memo):
    """``(index, live item, memo item)`` of the first difference, or
    ``None``: cheap to report where a full diff of two long traces is
    not."""
    for index, (expected, actual) in enumerate(zip(live, memo)):
        if expected != actual:
            return index, expected, actual
    if len(live) != len(memo):
        return min(len(live), len(memo)), len(live), len(memo)
    return None


@st.composite
def pattern_cases(draw):
    """A built-in pattern, the module it attacks and its TRR period."""
    kind = draw(st.sampled_from((
        "vendor-a", "vendor-b", "vendor-b-same-bank", "vendor-c",
        "single-sided", "double-sided", "many-sided", "phase-locked")))
    period = draw(st.integers(1, 10))
    hammers = draw(st.integers(1, 200))
    any_module = draw(st.sampled_from(("A5", "B0", "B13", "C7")))
    if kind == "vendor-a":
        return VendorAPattern(aggressor_hammers=hammers), "A5", period
    if kind == "vendor-b":
        return VendorBPattern(aggressor_hammers=hammers), "B0", period
    if kind == "vendor-b-same-bank":
        return (VendorBPattern(aggressor_hammers=hammers,
                               same_bank_dummy=True), "B13", period)
    if kind == "vendor-c":
        fraction = draw(st.sampled_from((0.5, 0.8, 0.95)))
        return VendorCPattern(dummy_fraction=fraction), "C7", period
    if kind == "single-sided":
        return SingleSidedPattern(), any_module, period
    if kind == "double-sided":
        return DoubleSidedPattern(), any_module, period
    if kind == "many-sided":
        return (ManySidedPattern(sides=draw(st.integers(3, 9))),
                any_module, period)
    sample_period = draw(st.integers(8, 600))
    # The ACT phase must shift from one window to the next, so windows
    # really start in different sampler phases.
    assume(period * INTERVAL_ACTS % sample_period != 0)
    offset = draw(st.integers(0, sample_period - 1))
    return (PhaseLockedSamplerPattern(sample_period, offset, guard=1),
            "B13", period)


def refuse_capture(*capture_args):
    """A ``capture_window`` stand-in that sends every run live."""
    raise CaptureUnsupported("live reference")


def run_once(pattern, module_id, period, windows, victim, prefix_refs,
             prefix_acts, faults, fault_seed, trace_path):
    host = build_host(module_id, faults, fault_seed, trace_path)
    context = default_context(0, victim, host._chip.mapping, period,
                              host.num_banks)
    far_row = context.logical((victim + ROWS // 4) % ROWS)
    host.refresh(prefix_refs)
    for bank, count in prefix_acts:
        host.hammer(bank % host.num_banks, [(far_row, count)],
                    HammerMode.CASCADED)
    result = AttackExecutor(host, host._chip.mapping).run(pattern, context,
                                                          windows)
    host.obs.finalize(host)
    with open(trace_path, "rb") as handle:
        trace = handle.read().splitlines()
    return result, host.ledger(), trace, chip_state(host)


def assert_memo_matches_live(pattern, module_id, period, windows,
                             victim, prefix_refs, prefix_acts, faults,
                             fault_seed):
    args = (pattern, module_id, period, windows, victim, prefix_refs,
            prefix_acts, faults, fault_seed)
    keys = []
    captures = []
    real_key = pattern.window_key
    real_capture = executor_module.capture_window

    def spy_key(session, context):
        key = real_key(session, context)
        keys.append(key)
        return key

    def spy_capture(*capture_args):
        captures.append(capture_args)
        return real_capture(*capture_args)

    with tempfile.TemporaryDirectory() as scratch:
        with mock.patch.object(executor_module, "capture_window",
                               refuse_capture):
            live = run_once(*args,
                            trace_path=os.path.join(scratch, "live.jsonl"))
        with mock.patch.object(pattern, "window_key", spy_key), \
                mock.patch.object(executor_module, "capture_window",
                                  spy_capture):
            memo = run_once(*args,
                            trace_path=os.path.join(scratch, "memo.jsonl"))

    result, ledger, trace, state = memo
    assert result == live[0]
    assert ledger == live[1]
    assert first_divergence(live[2], trace) is None
    assert first_divergence(live[3], state) is None
    assert len(keys) == windows
    assert len(captures) == len(set(keys))


# No explain phase: it re-runs a failing example for minutes, while the
# first divergence already says where the replay went wrong.
@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate,
                  Phase.target, Phase.shrink],
          suppress_health_check=[HealthCheck.too_slow])
@given(case=pattern_cases(),
       windows=st.integers(1, 6),
       victim=st.integers(0, ROWS - 1),
       prefix_refs=st.integers(0, 12),
       prefix_acts=st.lists(st.tuples(st.integers(0, 3),
                                      st.integers(1, 700)), max_size=3),
       fault_seed=st.integers(0, 3))
# Vendor B's default pattern at TRR period 6 ends its windows inside a
# REF interval and alternates between two window starts, so a replay
# that left the session's interval time stale would diverge.
@example(case=(VendorBPattern(), "B0", 6), windows=6, victim=500,
         prefix_refs=0, prefix_acts=[], fault_seed=0)
# Every window starts at the same REF phase and interval time; only the
# sampler phase of the ACT ledger tells them apart.
@example(case=(PhaseLockedSamplerPattern(500, offset=0), "B13", 2),
         windows=3, victim=500, prefix_refs=0, prefix_acts=[],
         fault_seed=0)
def test_memo_matches_live_execution(case, windows, victim, prefix_refs,
                                     prefix_acts, fault_seed):
    pattern, module_id, period = case
    for faults in (False, True):
        assert_memo_matches_live(pattern, module_id, period, windows,
                                 victim, prefix_refs, prefix_acts, faults,
                                 fault_seed)


@pytest.mark.slow
def test_fig9_renders_identically_with_capture_forced_off(monkeypatch):
    """One module per vendor pattern covers the window keys of all three
    custom patterns: the rendered figure must not depend on whether the
    windows replay compiled or run live, per command."""
    modules = ["A5", "B0", "C7"]
    compiled = run_fig9(modules, QUICK, workers=1).render()
    refused = []

    def counted_refusal(*capture_args):
        refused.append(capture_args)
        refuse_capture(*capture_args)

    monkeypatch.setattr(executor_module, "capture_window", counted_refusal)
    live = run_fig9(modules, QUICK, workers=1).render()
    assert refused
    assert live == compiled
