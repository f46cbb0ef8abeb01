"""Settle elision: the bounded settle commits exactly what a full one does.

:meth:`Bank.settle` skips its compares while a bound proves they would
commit nothing (the retention floors, the hammer threshold floor, a
row's weakest hammer threshold), the implicit ACT of a row write only
observes the row it overwrites, a REF skips the banks with no tracked
row in its slot, and a REF slot only recharges a row whose settle would
draw, query and flip nothing, keeping the refresh gap as the row's
pending decay for its next settle.  The properties run random command
sequences on two chips of one serial: one as shipped, and one whose
banks settle through every compare on every observation (the settle as
it was before the bounds, kept verbatim below as the oracle), settle a
row before overwriting it, and settle every row of a REF slot.  The
oracle needs no floor to force: it has none, and it defers nothing.
The environment may switch between neutral and scaled mid-sequence, so
a gap deferred while neutral can be committed while scaled.  Most rows
come from one refresh slot, and an ``age`` operation waits and then
runs a full refresh cycle, so deferred gaps are dropped by writes,
outlived by shorter gaps and committed by reads inside the sequences;
three explicit examples pin one of each.  Chip state
(each row's pending gap committed first), read bits, every environment
query and the banks' shared VRT streams must agree exactly.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import RowScout
from repro.dram import (AllOnes, AllZeros, Checkerboard, DeviceConfig,
                        DisturbanceConfig, DramChip, HammerMode,
                        RetentionConfig)
from repro.dram.bank import Bank
from repro.dram.patterns import CustomPattern
from repro.dram.refresh import RefreshEngine
from repro.eval.scale import QUICK
from repro.eval.table1 import _inference_host
from repro.rng import SeedSequenceFactory
from repro.softmc import SoftMCHost
from repro.trr import CounterBasedTrr
from repro.units import ms
from repro.vendors import get_module

from ..program.conftest import chip_state

ROWS = 128
ROW_BITS = 128
CYCLE_REFS = 32
PATTERNS = (AllOnes(), AllZeros(), Checkerboard(0), Checkerboard(1))


def config(vrt: bool) -> DeviceConfig:
    """Dense weak cells with short retention, so waits and refresh
    gaps cross the floors; low thresholds, so hammers flip bits."""
    retention = RetentionConfig(
        weak_cells_per_row_mean=3.0, min_retention_ms=5.0,
        max_retention_ms=400.0, vrt_fraction=0.5 if vrt else 0.0,
        vrt_toggle_probability=0.3)
    return DeviceConfig(
        name="elision-test", serial=3, num_banks=2, rows_per_bank=ROWS,
        row_bits=ROW_BITS, refresh_cycle_refs=CYCLE_REFS, retention=retention,
        disturbance=DisturbanceConfig(hc_first=150))


def full_settle(bank: Bank, row: int, now_ps: int) -> None:
    """The settle before elision: every compare runs."""
    state = bank.state(row)
    profile = bank._retention(row, state)
    environment = bank.environment
    if len(profile):
        toggle_probability = bank.retention_config.vrt_toggle_probability
        if environment is not None:
            toggle_probability = environment.toggle_probability(
                toggle_probability)
        profile.toggle_vrt(bank._vrt_rng, toggle_probability)
        elapsed = now_ps - state.last_recharge_ps
        if environment is not None and elapsed > 0:
            elapsed = environment.effective_elapsed(bank.index, row, elapsed)
        if elapsed > 0:
            stored = state.stored_bits_at(profile.positions)
            failed = profile.failed_cells(elapsed, stored)
            if failed.size:
                state.overlay_faults(profile.positions[failed],
                                     1 - profile.polarity[failed])
    if state.disturbance > 0:
        hammer = bank._hammer(row, state)
        if len(hammer):
            stored = state.stored_bits_at(hammer.positions)
            flipped = hammer.flipped_cells(state.disturbance, stored)
            if flipped.size:
                state.overlay_faults(hammer.positions[flipped],
                                     1 - hammer.polarity[flipped])


def unelided(chip: DramChip) -> None:
    """Make *chip*'s banks settle fully, also before an overwrite and
    at every row of a REF slot, and its REFs visit every bank."""
    for bank in chip.banks:
        def absorb_settling(batch, now_ps, overwrite=False,
                            absorb=bank.absorb_hammering):
            absorb(batch, now_ps)

        def regular_refresh(slot, now_ps, bank=bank):
            for row in bank.slot_rows.get(slot, ()):
                full_settle(bank, row, now_ps)
                bank._recharge(bank.rows[row], now_ps)

        bank.settle = functools.partial(full_settle, bank)
        bank.absorb_hammering = absorb_settling
        bank.regular_refresh = regular_refresh

    def regular_refresh() -> None:
        slot = chip.refresh_engine.on_ref(chip.now_ps)
        for bank in chip.banks:
            bank.regular_refresh(slot, chip.now_ps)
    chip._regular_refresh = regular_refresh


def set_environment(host: SoftMCHost, queries: list, scaled: bool) -> None:
    """Make *host*'s chip environment scaled, logging each per-row
    retention-scale query into *queries*, or neutral."""
    environment = host._chip.environment
    if not scaled:
        environment.reset()
        return

    def row_scale(bank: int, row: int) -> float:
        queries.append((bank, row))
        return 0.5 if (bank + row) % 3 == 0 else 1.0
    environment.retention_scale = 0.7
    environment.vrt_toggle_scale = 2.0
    environment.row_retention_scale = row_scale


def make_host(vrt: bool, scaled: bool,
              elide: bool) -> tuple[SoftMCHost, list]:
    """A host over a fresh chip, and the log of per-row retention-scale
    queries its environment answers (only a scaled one is queried)."""
    chip = DramChip(config(vrt), CounterBasedTrr())
    if not elide:
        unelided(chip)
    host, queries = SoftMCHost(chip), []
    set_environment(host, queries, scaled)
    return host, queries


#: Three rows in four come from refresh slot 0 (rows 0-3), so a write,
#: a REF over the row's slot after a long wait and a later write or
#: read of the same row often line up: a deferred gap gets dropped,
#: replaced by a shorter one, or committed inside the sequence.
slot_rows = st.integers(0, 3)
rows = st.one_of(slot_rows, slot_rows, slot_rows, st.integers(0, 47))
banks = st.integers(0, 1)
counts = st.integers(1, 300)
operation = st.one_of(
    st.tuples(st.just("write"), banks, rows, st.integers(0, 3)),
    st.tuples(st.just("read"), banks, rows),
    st.tuples(st.just("mismatches"), banks, rows),
    st.tuples(st.just("hammer"), banks, rows, counts, rows, counts,
              st.sampled_from(HammerMode)),
    st.tuples(st.just("multi"), rows, counts, rows, counts),
    st.tuples(st.just("refresh"), st.integers(1, 40), st.booleans()),
    st.tuples(st.just("wait"), st.integers(1, 300)),
    # A retention test's wait, then one full refresh cycle.
    st.tuples(st.just("age"), st.integers(1, 300)),
    st.tuples(st.just("environment"), st.booleans()),
)


def run(host: SoftMCHost, queries: list, operations) -> list:
    """Apply *operations*; returns what each read returned."""
    outputs = []
    for op in operations:
        kind = op[0]
        if kind == "write":
            host.write_row(op[1], op[2], PATTERNS[op[3]])
        elif kind == "read":
            outputs.append(host.read_row(op[1], op[2]).tolist())
        elif kind == "mismatches":
            outputs.append(host.read_row_mismatches(op[1], op[2]))
        elif kind == "hammer":
            # Interleaving a row with itself is a cascaded run.
            mode = op[6] if op[2] != op[4] else HammerMode.CASCADED
            host.hammer(op[1], ((op[2], op[3]), (op[4], op[5])), mode)
        elif kind == "multi":
            host.hammer_multi({0: [(op[1], op[2])], 1: [(op[3], op[4])]})
        elif kind == "refresh":
            host.refresh(op[1], at_nominal_rate=op[2])
        elif kind == "environment":
            set_environment(host, queries, op[1])
        elif kind == "age":
            host.wait(ms(op[1]))
            host.refresh(CYCLE_REFS)
        else:
            host.wait(ms(op[1]))
    return outputs


def vrt_states(host: SoftMCHost) -> list:
    chip = host._chip
    return [(bank.index, row, state.retention_profile.vrt_state.tolist())
            for bank in chip.banks for row, state in sorted(bank.rows.items())
            if state.retention_profile is not None]


@settings(max_examples=40, deadline=None)
@given(st.lists(operation, min_size=10, max_size=40), st.booleans(),
       st.booleans())
# A deferred gap a write must drop, one a shorter gap must not replace,
# and one a read must commit.
@example([("write", 0, 1, 0), ("age", 300), ("write", 0, 1, 1)],
         False, False)
@example([("write", 0, 1, 0), ("age", 300), ("age", 20), ("read", 0, 1)],
         False, False)
@example([("write", 0, 2, 0), ("age", 300), ("read", 0, 2)], False, False)
def test_elided_settle_matches_full_settle(operations, vrt, scaled):
    elided, elided_queries = make_host(vrt, scaled, elide=True)
    full, full_queries = make_host(vrt, scaled, elide=False)
    assert (run(elided, elided_queries, operations)
            == run(full, full_queries, operations))
    # A final full-row observation of every row written or read.
    for bank, row in sorted({(op[1], op[2]) for op in operations
                             if op[0] in ("write", "read")}):
        assert np.array_equal(elided.read_row(bank, row),
                              full.read_row(bank, row))
    assert chip_state(elided) == chip_state(full)
    assert vrt_states(elided) == vrt_states(full)
    assert elided_queries == full_queries
    for ours, theirs in zip(elided._chip.banks, full._chip.banks):
        assert (ours._vrt_rng.bit_generator.state
                == theirs._vrt_rng.bit_generator.state)


# -- the bounds themselves ----------------------------------------------------

def make_bank(retention: RetentionConfig, hc_first: int = 5_000) -> Bank:
    return Bank(0, 2048, 1024, retention,
                DisturbanceConfig(hc_first=hc_first),
                SeedSequenceFactory("elision-bank", 0),
                RefreshEngine(2048, 256))


def find_row(bank: Bank, accept) -> int:
    """The first row whose retention profile satisfies *accept*."""
    for row in range(bank.num_rows):
        if accept(bank._retention(row, bank.state(row))):
            return row
    raise AssertionError("no such row")


def exposing(bank: Bank, profile, cell: int) -> CustomPattern:
    """Data that charges only *cell* of *profile*: every other cell
    stores its discharged value, so only *cell* can fail."""
    bits = np.zeros(bank.row_bits, dtype=np.uint8)
    bits[profile.positions] = 1 - profile.polarity
    bits[profile.positions[cell]] = profile.polarity[cell]
    return CustomPattern(bits)


def test_floor_covers_every_vrt_state():
    bank = make_bank(RetentionConfig(weak_cells_per_row_mean=6.0,
                                     vrt_fraction=0.5))
    profile = bank.rows[find_row(bank, lambda p: p.has_vrt)].retention_profile
    vrt = profile.is_vrt
    assert profile.floor_ps == min(int(profile.base_retention_ps.min()),
                                   int(profile.alt_retention_ps[vrt].min()))
    empty = bank.rows[find_row(bank, lambda p: not len(p))].retention_profile
    assert empty.floor_ps == float("inf")


def test_decay_starts_exactly_at_the_floor():
    bank = make_bank(RetentionConfig(weak_cells_per_row_mean=4.0,
                                     vrt_fraction=0.0))
    row = find_row(bank, lambda p: len(p) >= 2)
    profile = bank.rows[row].retention_profile
    weakest = int(np.argmin(profile.base_retention_ps))
    bank.write(row, exposing(bank, profile, weakest), now_ps=0)
    bank.settle(row, profile.floor_ps - 1)
    assert bank.rows[row].fault_positions.tolist() == []
    bank.settle(row, profile.floor_ps)
    assert bank.rows[row].fault_positions.tolist() == [
        int(profile.positions[weakest])]


def test_exposed_floor_is_the_weakest_charged_cell():
    bank = make_bank(RetentionConfig(weak_cells_per_row_mean=4.0,
                                     vrt_fraction=0.0))
    row = find_row(bank, lambda p: len(p) >= 2)
    state = bank.rows[row]
    profile = state.retention_profile
    # Charge only the second-weakest cell: the row's floor passes long
    # before that cell's own retention, which the data's floor is.
    cell = int(np.argsort(profile.base_retention_ps)[1])
    exposed_floor = int(profile.base_retention_ps[cell])
    bank.write(row, exposing(bank, profile, cell), now_ps=0)
    assert state.decay_floor_ps() == exposed_floor > profile.floor_ps
    bank.settle(row, exposed_floor - 1)
    assert state.fault_positions.tolist() == []
    bank.settle(row, exposed_floor)
    assert state.fault_positions.tolist() == [int(profile.positions[cell])]
    # The decayed cell no longer stores its charged value ...
    assert state.decay_floor_ps() == float("inf")
    # ... until a write charges it again.
    bank.write(row, exposing(bank, profile, cell), now_ps=exposed_floor)
    assert state.decay_floor_ps() == exposed_floor


def test_flip_starts_exactly_at_the_weakest_threshold():
    bank = make_bank(RetentionConfig(weak_cells_per_row_mean=0.0),
                     hc_first=1_000)
    row = 100
    state = bank.state(row)
    hammer = bank._hammer(row, state)
    weakest = int(np.argmin(hammer.thresholds))
    assert hammer.base_threshold == float(hammer.thresholds.min())
    bank.write(row, exposing(bank, hammer, weakest), now_ps=0)
    state.disturbance = float(np.nextafter(hammer.base_threshold, 0.0))
    bank.settle(row, 0)
    assert state.fault_positions.tolist() == []
    state.disturbance = hammer.base_threshold
    bank.settle(row, 0)
    assert state.fault_positions.tolist() == [
        int(hammer.positions[weakest])]


def test_hammer_profile_built_only_from_the_threshold_floor():
    retention = RetentionConfig(weak_cells_per_row_mean=0.0)
    floor = DisturbanceConfig(hc_first=1_000).row_threshold_floor
    row = 100
    for disturbance, built in ((float(np.nextafter(floor, 0.0)), False),
                               (floor, True)):
        ours = make_bank(retention, hc_first=1_000)
        oracle = make_bank(retention, hc_first=1_000)
        for bank in (ours, oracle):
            bank.write(row, AllOnes(), now_ps=0)
            bank.rows[row].disturbance = disturbance
        ours.settle(row, ms(1))
        full_settle(oracle, row, ms(1))
        state, expected = ours.rows[row], oracle.rows[row]
        assert (state.hammer_profile is not None) is built
        assert expected.hammer_profile is not None
        assert state.fault_positions.tolist() == (
            expected.fault_positions.tolist())
        assert state.fault_values.tolist() == expected.fault_values.tolist()


def test_row_scout_scan_builds_no_hammer_profile():
    # One Fig. 6 scan pass over a whole bank of a Table-1 inference
    # chip: each row is written and read once, which leaves every row
    # about two effective hammers at its read, far below the floor.
    host = _inference_host(get_module("A5"), QUICK)
    bank = host._chip.banks[0]
    RowScout(host)._scan_failing_rows(0, list(range(host.rows_per_bank)),
                                      AllOnes(), ms(100))
    assert len(bank.rows) == host.rows_per_bank
    assert max(state.disturbance for state in bank.rows.values()) > 0
    assert all(state.hammer_profile is None
               for state in bank.rows.values())
