"""Row-range commands: ``write_rows``/``read_rows_mismatches`` issue
exactly what a ``write_row``/``read_row_mismatches`` per row issues.

The property runs one random command sequence on two hosts over chips of
one serial: one issues each range as a range command, the other as the
per-row loop (the reference).  Everything either side can observe or
leave behind must agree: the read results, the trace bytes, the ledger,
the metrics, the profiler's counts, the chip state to the float bit, the
order rows were materialized in (it orders later REF settles), each
bank's shared VRT stream and every row's VRT state, and every TRR
mechanism's internal state and RNG position.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (AllOnes, AllZeros, Checkerboard, DeviceConfig,
                        DisturbanceConfig, DramChip, RetentionConfig,
                        TimingParameters, pattern_spec)
from repro.faults import FaultInjector
from repro.obs import CommandProfiler, NullMetrics, Observability, traced
from repro.softmc import SoftMCHost
from repro.trr import (CounterBasedTrr, ParaMitigation, SamplingBasedTrr,
                       WindowBasedTrr)
from repro.units import ms, ns

from ..program.conftest import chip_state

ROWS = 128
PATTERNS = (AllOnes(), AllZeros(), Checkerboard(0), Checkerboard(1))

#: Each mechanism kind, small enough that a short sequence fills its
#: tables, samples and windows.
MECHANISMS = {
    "none": lambda: None,
    "counter": lambda: CounterBasedTrr(trr_ref_period=3, table_size=4),
    "counter-any-insert": lambda: CounterBasedTrr(
        trr_ref_period=2, table_size=3, min_insert_count=1),
    "sampling-shared": lambda: SamplingBasedTrr(trr_ref_period=2,
                                                sample_period=7),
    "sampling-per-bank": lambda: SamplingBasedTrr(
        trr_ref_period=2, sample_period=5, per_bank=True),
    "window": lambda: WindowBasedTrr(trr_ref_period=3, window_acts=6,
                                     early_bias_tau=2.0),
    "para": lambda: ParaMitigation(probability=0.2, seed=4),
}

#: Default bursts; bursts short enough that a row's repeat in a range
#: falls inside the counter TRR's 200 ns burst window; and bursts that
#: put a written row's repeat exactly on the window's edge (14 + 171 +
#: 15 ns).  Reads and writes take different times in the last two.
TIMINGS = (TimingParameters(),
           TimingParameters(burst_read_ps=ns(60.0),
                            burst_write_ps=ns(50.0)),
           TimingParameters(burst_read_ps=ns(170.0),
                            burst_write_ps=ns(171.0)))


def config(vrt: bool, mapping: str, timing: TimingParameters
           ) -> DeviceConfig:
    """Dense weak cells with short retention and low thresholds, so
    waits decay cells and hammers flip them."""
    retention = RetentionConfig(
        weak_cells_per_row_mean=3.0, min_retention_ms=5.0,
        max_retention_ms=400.0, vrt_fraction=0.5 if vrt else 0.0,
        vrt_toggle_probability=0.3)
    return DeviceConfig(
        name="range-test", serial=5, num_banks=2, rows_per_bank=ROWS,
        row_bits=128, refresh_cycle_refs=32, mapping_scheme=mapping,
        timing=timing, retention=retention,
        disturbance=DisturbanceConfig(hc_first=150))


def snapshot(value):
    """A comparable, order-preserving image of a mechanism's state."""
    if isinstance(value, np.random.Generator):
        return repr(value.bit_generator.state)
    if isinstance(value, dict):
        return tuple((snapshot(key), snapshot(item))
                     for key, item in value.items())
    if isinstance(value, (list, tuple, set)):
        return (type(value).__name__, tuple(snapshot(item)
                                            for item in value))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    fields = dict(getattr(value, "__dict__", {}))
    for cls in type(value).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            fields[slot] = getattr(value, slot)
    return (type(value).__name__, snapshot(fields))


def bank_state(chip: DramChip) -> list:
    """What ``chip_state`` leaves out: orders, data, VRT, profiles."""
    banks = []
    for bank in chip.banks:
        rows = [(row, pattern_spec(state.pattern),
                 state.retention_profile is not None
                 and state.retention_profile.vrt_state.tolist(),
                 state.hammer_profile is not None)
                for row, state in bank.rows.items()]
        banks.append((rows,
                      [(slot, list(members))
                       for slot, members in bank.slot_rows.items()],
                      bank._last_activated,
                      repr(bank._vrt_rng.bit_generator.state)))
    return banks


def run(ops, *, ranges: bool, vrt: bool, mapping: str, timing: int,
        mechanism: str, environment: str, obs_kind: str, profiled: bool,
        trace: Path):
    chip = DramChip(config(vrt, mapping, TIMINGS[timing]),
                    MECHANISMS[mechanism]())
    queries: list = []
    faults = None
    if environment == "scaled":
        def row_scale(bank: int, row: int) -> float:
            queries.append((bank, row))
            return 0.5 if (bank + row) % 3 == 0 else 1.0
        chip.environment.retention_scale = 0.7
        chip.environment.vrt_toggle_scale = 2.0
        chip.environment.row_retention_scale = row_scale
    elif environment == "injector":
        faults = FaultInjector("default", seed=2)
    profiler = CommandProfiler() if profiled else None
    if obs_kind == "traced":
        obs = traced(trace)
        obs.profiler = profiler
    elif obs_kind == "metrics":
        obs = Observability(profiler=profiler)
    elif profiled:
        obs = Observability(metrics=NullMetrics(), profiler=profiler)
    else:
        obs = None
    host = SoftMCHost(chip, faults=faults, obs=obs)
    outputs = []
    for op in ops:
        kind = op[0]
        if kind == "write_rows":
            if ranges:
                host.write_rows(op[1], op[2], PATTERNS[op[3]])
            else:
                for row in op[2]:
                    host.write_row(op[1], row, PATTERNS[op[3]])
        elif kind == "read_rows":
            if ranges:
                outputs.append(host.read_rows_mismatches(op[1], op[2]))
            else:
                outputs.append([host.read_row_mismatches(op[1], row)
                                for row in op[2]])
        elif kind == "hammer":
            host.hammer_single(op[1], op[2], op[3])
        elif kind == "refresh":
            host.refresh(op[1])
        else:
            host.wait(ms(op[1]))
    host.obs.finalize(host)
    return {
        "outputs": outputs,
        "trace": trace.read_bytes() if obs_kind == "traced" else None,
        "ledger": host.ledger(),
        "metrics": host.obs.metrics.as_dict(),
        "profile": profiler.counts if profiler is not None else None,
        "chip": chip_state(host),
        "banks": bank_state(chip),
        "trr": snapshot(chip.trr),
        "queries": queries,
    }


banks = st.integers(0, 1)
row = st.one_of(st.integers(0, 11), st.sampled_from((0, 1, ROWS - 2,
                                                     ROWS - 1)),
                st.integers(0, ROWS - 1))
#: Unsorted ranges, with back-to-back repeats of a row common.
row_ranges = st.lists(st.tuples(row, st.integers(1, 3)), max_size=10).map(
    lambda runs: [row for row, repeats in runs for _ in range(repeats)])
operation = st.one_of(
    st.tuples(st.just("write_rows"), banks, row_ranges, st.integers(0, 3)),
    st.tuples(st.just("read_rows"), banks, row_ranges),
    st.tuples(st.just("hammer"), banks, row, st.integers(1, 400)),
    st.tuples(st.just("refresh"), st.integers(1, 40)),
    st.tuples(st.just("wait"), st.integers(1, 200)),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(operation, max_size=16), vrt=st.booleans(),
       mapping=st.sampled_from(("direct", "bit_swap_0_1")),
       timing=st.integers(0, 2), mechanism=st.sampled_from(tuple(MECHANISMS)),
       environment=st.sampled_from(("neutral", "scaled", "injector")),
       obs_kind=st.sampled_from(("none", "metrics", "traced")),
       profiled=st.booleans())
def test_range_commands_match_the_per_row_loop(ops, **draw):
    with tempfile.TemporaryDirectory() as scratch:
        ranged = run(ops, ranges=True, trace=Path(scratch) / "r.jsonl",
                     **draw)
        looped = run(ops, ranges=False, trace=Path(scratch) / "l.jsonl",
                     **draw)
    for key in looped:
        assert ranged[key] == looped[key], key


def test_a_scan_reaches_every_identity_point():
    """One hand-picked sequence that the property's draws must be able
    to reach: a range starting on the row the last hammer ended on
    (cascade continuity), a repeated row inside the counter's burst
    window, bank edges, VRT rows read twice per range read, and a REF
    pass over what the ranges materialized."""
    ops = [("hammer", 0, 5, 30), ("write_rows", 0, [5, 5, 0, 127, 6, 5], 0),
           ("wait", 40), ("read_rows", 0, [6, 5, 5, 127, 0, 9]),
           ("refresh", 40), ("read_rows", 0, [9, 6])]
    for mechanism in MECHANISMS:
        with tempfile.TemporaryDirectory() as scratch:
            draw = dict(vrt=True, mapping="bit_swap_0_1", timing=1,
                        mechanism=mechanism, environment="neutral",
                        obs_kind="traced", profiled=True)
            ranged = run(ops, ranges=True, trace=Path(scratch) / "r",
                         **draw)
            looped = run(ops, ranges=False, trace=Path(scratch) / "l",
                         **draw)
        assert ranged == looped, mechanism
        assert ranged["profile"] == {"ACT": 1, "RD": 8, "REF": 1,
                                     "WAIT": 1, "WR": 6}
