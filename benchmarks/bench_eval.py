"""Settle microbenchmark: BENCH_eval.json.

Times the device hot path and writes the numbers to a machine-readable
JSON file: cells settled per second through the vectorized
``Bank.settle`` overlay versus a faithful reimplementation of the
pre-vectorization per-cell dict loop (kept here, frozen, as the
comparison baseline).  The first pass asserts both implementations
commit the identical fault overlay.

End-to-end wall-clock per paper artifact is ``perfbench/``'s to
measure; this script times no artifact.

Regression checking (``--check baseline.json``) compares the settle
**speedup ratio** (vectorized-over-legacy), not absolute rates: a ratio
is a property of the code, so a baseline committed from one machine
remains meaningful on CI runners with different clock speeds.  The two
loops are timed alternately and the gated ratio is the median of the
per-repeat ratios, so contention on a shared host moves it less.
Absolute numbers are still recorded for humans reading the JSON.

Usage::

    python benchmarks/bench_eval.py --out BENCH_eval.json
    python benchmarks/bench_eval.py --check benchmarks/BENCH_eval.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without pip install -e .
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.dram import AllOnes, DisturbanceConfig, RetentionConfig
from repro.dram.bank import Bank
from repro.dram.refresh import RefreshEngine
from repro.obs import build_manifest
from repro.rng import SeedSequenceFactory


# -- settle microbenchmark -------------------------------------------------

def _legacy_stored_bits_at(pattern, faults: dict,
                           positions: np.ndarray) -> np.ndarray:
    """Pre-vectorization ``RowState.stored_bits_at`` (dict + loop)."""
    bits = pattern.bits_at(positions).copy()
    if faults:
        for i, pos in enumerate(positions):
            value = faults.get(int(pos))
            if value is not None:
                bits[i] = value
    return bits


def _legacy_settle(pattern, faults: dict, retention, hammer,
                   elapsed_ps: int, disturbance: float) -> None:
    """Pre-vectorization ``Bank.settle`` body (per-cell commit loop)."""
    if len(retention):
        stored = _legacy_stored_bits_at(pattern, faults,
                                        retention.positions)
        for cell in retention.failed_cells(elapsed_ps, stored):
            position = int(retention.positions[cell])
            faults[position] = 1 - int(retention.polarity[cell])
    if disturbance > 0 and len(hammer):
        stored = _legacy_stored_bits_at(pattern, faults, hammer.positions)
        for cell in hammer.flipped_cells(disturbance, stored):
            position = int(hammer.positions[cell])
            faults[position] = 1 - int(hammer.polarity[cell])


def _legacy_read_mismatches(pattern, faults: dict) -> list[int]:
    """Pre-vectorization ``Bank.read_mismatches`` scan (dict + genexpr)."""
    if not faults:
        return []
    positions = np.fromiter(faults.keys(), dtype=np.int64,
                            count=len(faults))
    written = pattern.bits_at(positions)
    stored = np.fromiter(faults.values(), dtype=np.uint8,
                         count=len(faults))
    return sorted(int(p) for p, w, s
                  in zip(positions, written, stored) if w != s)


def _settle_bank(rows: int, row_bits: int) -> Bank:
    """A bank whose rows get hand-built dense cell populations."""
    retention = RetentionConfig(weak_cells_per_row_mean=0.0,
                                vrt_fraction=0.0)
    disturbance = DisturbanceConfig(hc_first=10_000,
                                    victim_cells_mean=0.0)
    bank = Bank(0, rows, row_bits, retention, disturbance,
                SeedSequenceFactory("bench-settle"),
                RefreshEngine(rows, min(rows, 64)))
    return bank


def _fabricate_profiles(rng: np.random.Generator, row_bits: int,
                        cells: int):
    """Dense, disjoint weak-cell and victim-cell populations for one row.

    A physical cell has a single charged polarity, so its retention and
    disturbance failure modes can never disagree about the decayed
    value; disjoint populations keep the benchmark free of the
    re-commit churn such a disagreement would fabricate.  Dense rows
    make per-cell throughput, not per-call overhead, the measured
    quantity.
    """
    from repro.dram.disturbance import RowHammerProfile
    from repro.dram.retention import RowRetentionProfile

    chosen = rng.permutation(row_bits)[:2 * cells]
    weak_positions = np.sort(chosen[:cells]).astype(np.int64)
    victim_positions = np.sort(chosen[cells:]).astype(np.int64)
    retention_ps = rng.uniform(1e9, 5e9, size=cells).astype(np.int64)
    retention = RowRetentionProfile(
        weak_positions, retention_ps, retention_ps,
        rng.integers(0, 2, size=cells).astype(np.uint8),
        np.zeros(cells, dtype=bool))
    thresholds = rng.uniform(1e4, 1e6, size=cells)
    hammer = RowHammerProfile(
        victim_positions, thresholds,
        rng.integers(0, 2, size=cells).astype(np.uint8))
    return retention, hammer


def bench_settle(rows: int = 24, row_bits: int = 65536,
                 cells_per_row: int = 2000,
                 iterations: int = 8, repeats: int = 7) -> dict:
    """Settled cells/sec through one observe cycle, old loop vs new.

    One cycle = settle pending faults + scan for mismatches — exactly
    what every host read performs.  Two scenarios are timed:

    * ``steady`` — the dominant case in real runs: a row observed again
      after its weak cells already decayed (refresh restores the
      decayed value, so the overlay persists across REFs) with nothing
      new to commit.  The legacy loop re-walks every profile position
      against the fault dict each time; the vectorized bank memoizes
      the unchanged overlay lookup.
    * ``fresh`` — the first observation after a write: every pending
      fault is committed into an empty overlay, per cell in the legacy
      loop, as one array merge in the vectorized bank.

    The headline ``speedup`` is the steady-state one.  Each repeat
    times one legacy block and then one vectorized block, so host
    contention that drifts during the run lands on both halves of a
    pair; a scenario's ``speedup`` is the median of the per-repeat
    ratios, and its seconds and rates are the best repeat of each.
    """
    bank = _settle_bank(rows, row_bits)
    pattern = AllOnes()
    now_ps = int(200e9)  # far past every fabricated retention time
    disturbance = 1e9    # far above every fabricated threshold
    row_ids = list(range(rows))
    rng = np.random.default_rng(20260806)
    profiles = {}
    for row in row_ids:
        state = bank.state(row)
        state.pattern = pattern
        retention, hammer = _fabricate_profiles(rng, row_bits,
                                                cells_per_row)
        state.retention_profile = retention
        state.hammer_profile = hammer
        profiles[row] = (retention, hammer)
    cells = sum(len(ret) + len(ham) for ret, ham in profiles.values())
    epochs = {row: bank.rows[row].last_recharge_ps for row in row_ids}

    # Equivalence gate: one fresh-overlay cycle through both
    # implementations must commit the identical overlay and report the
    # identical mismatches before any timing is trusted.  The committed
    # overlays seed the timed steady-state loops.
    seeded: dict[int, tuple] = {}
    for row in row_ids:
        state = bank.rows[row]
        elapsed = now_ps - state.last_recharge_ps
        faults: dict[int, int] = {}
        _legacy_settle(pattern, faults, *profiles[row], elapsed,
                       disturbance)
        legacy_mismatches = _legacy_read_mismatches(pattern, faults)
        state.clear_faults()
        state.disturbance = disturbance
        mismatches = bank.read_mismatches(row, now_ps)
        expected = sorted(faults.items())
        got = list(zip(state.fault_positions.tolist(),
                       state.fault_values.tolist()))
        if expected != got or legacy_mismatches != mismatches:
            raise AssertionError(
                f"observe divergence on row {row}: legacy committed "
                f"{len(expected)} faults / {len(legacy_mismatches)} "
                f"mismatches, vectorized {len(got)} / {len(mismatches)}")
        seeded[row] = (faults, state.fault_positions,
                       state.fault_values)

    def legacy_steady(row: int) -> None:
        faults = dict(seeded[row][0])
        _legacy_settle(pattern, faults, *profiles[row],
                       now_ps - epochs[row], disturbance)
        _legacy_read_mismatches(pattern, faults)

    def legacy_fresh(row: int) -> None:
        faults: dict[int, int] = {}
        _legacy_settle(pattern, faults, *profiles[row],
                       now_ps - epochs[row], disturbance)
        _legacy_read_mismatches(pattern, faults)

    def vectorized_steady(row: int) -> None:
        state = bank.rows[row]
        _, positions, values = seeded[row]
        state.fault_positions = positions
        state.fault_values = values
        state.disturbance = disturbance
        state.last_recharge_ps = epochs[row]
        bank.read_mismatches(row, now_ps)

    def vectorized_fresh(row: int) -> None:
        state = bank.rows[row]
        state.clear_faults()
        state.disturbance = disturbance
        state.last_recharge_ps = epochs[row]
        bank.read_mismatches(row, now_ps)

    def timed(cycle) -> float:
        start = time.perf_counter()
        for _ in range(iterations):
            for row in row_ids:
                cycle(row)
        return time.perf_counter() - start

    total_cells = cells * iterations

    def scenario(legacy_cycle, vectorized_cycle) -> dict:
        for row in row_ids:  # warm caches outside the timed region
            legacy_cycle(row)
            vectorized_cycle(row)
        pairs = [(timed(legacy_cycle), timed(vectorized_cycle))
                 for _ in range(repeats)]
        legacy = min(pair[0] for pair in pairs)
        vectorized = min(pair[1] for pair in pairs)
        return {
            "legacy_seconds": round(legacy, 6),
            "vectorized_seconds": round(vectorized, 6),
            "legacy_cells_per_sec": round(total_cells / legacy, 1),
            "vectorized_cells_per_sec": round(total_cells / vectorized,
                                              1),
            "speedup": round(statistics.median(
                slow / fast for slow, fast in pairs), 3),
        }

    steady = scenario(legacy_steady, vectorized_steady)
    fresh = scenario(legacy_fresh, vectorized_fresh)
    return {
        "rows": rows,
        "cells_per_iteration": cells,
        "iterations": iterations,
        "steady": steady,
        "fresh": fresh,
        # Headline numbers are the steady-state scenario (the dominant
        # case in real runs) — aliased here for the regression gate.
        "legacy_cells_per_sec": steady["legacy_cells_per_sec"],
        "vectorized_cells_per_sec": steady["vectorized_cells_per_sec"],
        "speedup": steady["speedup"],
    }


def run_benchmarks() -> dict:
    print("[bench] settle microbenchmark (vectorized vs legacy loop) ...",
          flush=True)
    settle = bench_settle()
    print(f"[bench]   {settle['vectorized_cells_per_sec']:,.0f} cells/s "
          f"vectorized vs {settle['legacy_cells_per_sec']:,.0f} legacy "
          f"({settle['speedup']:.1f}x)", flush=True)
    return {
        "schema": 1,
        "cpu_count": os.cpu_count() or 1,
        "settle": settle,
        "manifest": build_manifest(include_time=False,
                                   benchmark="bench_eval"),
    }


# -- regression gate -------------------------------------------------------

def check_regression(current: dict, baseline_path: pathlib.Path,
                     tolerance: float) -> list[str]:
    """Machine-independent regression check against a committed baseline.

    Only the settle speedup *ratio* (vectorized vs legacy loop) is
    gated: it compares two code paths on the same machine, so it
    transfers across runners.  Absolute rates in the baseline are
    informational.
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    current_speedup = current["settle"]["speedup"]
    baseline_speedup = baseline["settle"]["speedup"]
    floor = baseline_speedup * (1.0 - tolerance)
    if current_speedup < floor:
        failures.append(
            f"settle speedup regressed: {current_speedup:.2f}x < "
            f"{floor:.2f}x ({baseline_speedup:.2f}x baseline "
            f"- {tolerance:.0%} tolerance)")
    if current_speedup < 5.0:
        failures.append(
            f"settle speedup below the 5x floor: {current_speedup:.2f}x")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("BENCH_eval.json"))
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        help="baseline BENCH_eval.json to gate against")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression vs baseline")
    args = parser.parse_args(argv)

    results = run_benchmarks()
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True)
                        + "\n")
    print(f"[bench] wrote {args.out}")

    if args.check is not None:
        failures = check_regression(results, args.check, args.tolerance)
        if failures:
            for failure in failures:
                print(f"[bench] FAIL: {failure}", file=sys.stderr)
            return 1
        print(f"[bench] OK: within {args.tolerance:.0%} of "
              f"{args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
