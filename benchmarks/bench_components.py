"""Component benchmarks: throughput of the methodology's building blocks.

Not paper artifacts — these track the library's own performance so
regressions in the simulator or the tools show up in benchmark history.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core import (ProfilingConfig, RefreshCalibrator, RowGroupLayout,
                        RowScout)
from repro.dram import (AllOnes, DeviceConfig, DisturbanceConfig, DramChip,
                        RetentionConfig)
from repro.obs import NULL_OBS, CommandProfiler, Observability, traced
from repro.softmc import SoftMCHost
from repro.trr import CounterBasedTrr

CONFIG = DeviceConfig(
    name="component-bench", serial=9, num_banks=4, rows_per_bank=4096,
    row_bits=1024, refresh_cycle_refs=1024,
    retention=RetentionConfig(weak_cells_per_row_mean=2.0,
                              vrt_fraction=0.0),
    disturbance=DisturbanceConfig(hc_first=12_000))


def fresh_host() -> SoftMCHost:
    return SoftMCHost(DramChip(CONFIG, CounterBasedTrr()))


@pytest.mark.benchmark(group="components")
def test_bench_row_scout(benchmark):
    def run():
        host = fresh_host()
        return RowScout(host).find_groups(ProfilingConfig(
            bank=0, layout=RowGroupLayout.parse("R-R"), group_count=4,
            validation_rounds=4))

    groups = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(groups) == 4


@pytest.mark.benchmark(group="components")
def test_bench_refresh_calibration(benchmark):
    host = fresh_host()
    groups = RowScout(host).find_groups(ProfilingConfig(
        bank=0, layout=RowGroupLayout.parse("R-R"), group_count=2,
        validation_rounds=4))
    retention = groups[0].retention_ps
    rows = [(0, row) for group in groups for row in group.logical_rows]

    def run():
        calibrator = RefreshCalibrator(host, AllOnes())
        cycle = calibrator.find_cycle(0, groups[0].logical_rows[0],
                                      retention)
        return calibrator.calibrate_rows(rows, retention, cycle)

    schedule = benchmark.pedantic(run, rounds=3, iterations=1)
    assert schedule.cycle_refs == 1024
    assert len(schedule.phase_windows) == 4


@pytest.mark.benchmark(group="components")
def test_bench_hammer_throughput(benchmark):
    host = fresh_host()

    def run():
        # One refresh window's worth of custom-pattern traffic.
        for _ in range(113):
            host.hammer(0, [(2000, 36), (2002, 36)])
            host.hammer(0, [(100 + 8 * i, 70) for i in range(16)])
            host.refresh(9)
        return host.ref_count

    benchmark.pedantic(run, rounds=3, iterations=1)


def _obs_workload(host) -> int:
    """Fixed hammer/REF mix on the host hot path (the instrumented one)."""
    for _ in range(200):
        host.hammer(0, [(2000, 36), (2002, 36)])
        host.hammer(0, [(100 + 8 * i, 70) for i in range(16)])
        host.refresh(9)
    return host.ref_count


def _digest_workload(host) -> int:
    """Hammer/REF traffic plus reads, so RD digest stamping is on the
    measured path (every read hashes its full row payload)."""
    pattern = AllOnes()
    for row in range(100, 120):
        host.write_row(0, row, pattern)
    for _ in range(50):
        host.hammer(0, [(2000, 36), (2002, 36)])
        host.hammer(0, [(100 + 8 * i, 70) for i in range(16)])
        for row in range(100, 120):
            host.read_row(0, row)
        host.refresh(9)
    return host.ref_count


def test_enabled_trace_overhead_measured(tmp_path):
    """Measure the enabled-trace path (records + per-read CRC digests).

    Unlike the disabled path there is no tight budget — recording is
    *supposed* to cost (one JSONL record per command, one zlib.crc32
    over the row payload per read).  The test reports the factor so
    benchmark history tracks it, verifies digests actually landed in
    the trace, and fails only on an order-of-magnitude blowout.
    """
    import json

    def timed(obs, host):
        start = time.perf_counter()
        _digest_workload(host)
        if obs is not None:
            obs.finalize(host)  # flush is part of the enabled cost
        return time.perf_counter() - start

    best_bare = best_traced = float("inf")
    trace_path = None
    for round_index in range(5):
        bare = SoftMCHost(DramChip(CONFIG, CounterBasedTrr()))
        best_bare = min(best_bare, timed(None, bare))
        trace_path = tmp_path / f"bench-{round_index}.jsonl"
        obs = traced(trace_path)
        host = SoftMCHost(DramChip(CONFIG, CounterBasedTrr()), obs=obs)
        best_traced = min(best_traced, timed(obs, host))

    factor = best_traced / best_bare
    print(f"\nenabled-trace overhead: {factor:.2f}x "
          f"(bare {best_bare:.4f}s, traced {best_traced:.4f}s)")

    # The last trace must carry stamped read digests end to end.
    records = [json.loads(line) for line in
               trace_path.read_text(encoding="utf-8").splitlines()]
    reads = [r for r in records if r.get("t") == "RD"]
    assert reads and all("crc" in r for r in reads)
    assert records[-1].get("type") == "summary"
    assert factor < 50.0, (
        f"enabled trace path blew up: {factor:.1f}x over bare")


#: Paired rounds per overhead reading (odd, so the median is a round).
OVERHEAD_ROUNDS = 41


def _assert_overhead_within(budget: float, label: str, base,
                            instrumented) -> None:
    """Fail unless hosts built on *instrumented* bundles run the fixed
    hammer/REF workload less than *budget* slower than hosts built on
    *base* bundles (both zero-argument bundle factories).

    Each round times one fresh host of each kind, alternating which
    runs first, and the reading is the median of the per-round
    instrumented/base ratios: machine drift hits both halves of a
    round alike, and one stalled timing moves the median by at most
    one round.  The bundles are built outside the timed region.
    """

    def timed(make_obs) -> float:
        host = SoftMCHost(DramChip(CONFIG, CounterBasedTrr()),
                          obs=make_obs())
        start = time.perf_counter()
        _obs_workload(host)
        return time.perf_counter() - start

    timed(base)  # warm caches on both paths
    timed(instrumented)
    # Timer noise on a busy machine can exceed a tight budget, so the
    # measurement gets up to three attempts; a real regression in the
    # instrumented path fails all of them.
    for attempt in range(3):
        ratios = []
        for round_index in range(OVERHEAD_ROUNDS):
            if round_index % 2:
                cost = timed(instrumented)
                ratios.append(cost / timed(base))
            else:
                reference = timed(base)
                ratios.append(timed(instrumented) / reference)
        low, median, high = statistics.quantiles(ratios, n=4)
        overhead = median - 1.0
        print(f"\n{label} overhead: {overhead * 100:+.2f}% (median of "
              f"{OVERHEAD_ROUNDS} paired rounds, quartiles "
              f"{(low - 1) * 100:+.2f}%..{(high - 1) * 100:+.2f}%, "
              f"attempt {attempt + 1})")
        if overhead < budget:
            return
    pytest.fail(f"{label} costs {overhead * 100:.1f}% "
                f"(budget {budget:.0%}): median of {OVERHEAD_ROUNDS} "
                f"paired rounds")


def test_unit_bundle_overhead_under_5_percent():
    """The bundle every work unit records into (metrics + evidence)
    against the all-disabled ``NULL_OBS`` host.

    The host pays its metrics counters per command; the evidence
    ledger takes decisions only off the command path.
    """
    _assert_overhead_within(0.05, "unit-bundle", lambda: NULL_OBS,
                            Observability)


def test_profiler_overhead_under_10_percent():
    """A ``--profile`` bundle against the unit bundle: the cost of the
    per-opcode wrappers :meth:`CommandProfiler.attach` puts around the
    host's methods."""
    _assert_overhead_within(
        0.10, "command-profiler", Observability,
        lambda: Observability(profiler=CommandProfiler()))
