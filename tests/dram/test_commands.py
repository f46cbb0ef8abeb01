"""ActBatch ordering semantics (row_at, run_stats, first/last row)."""

from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.dram.commands import ActBatch, HammerMode, single_row_batch
from repro.errors import ConfigError


def expand(batch: ActBatch) -> list[int]:
    """Reference expansion of the exact ACT sequence."""
    if batch.mode is HammerMode.CASCADED:
        sequence = []
        for row, count in batch.pattern:
            sequence.extend([row] * count)
        return sequence
    remaining = [[row, count] for row, count in batch.pattern]
    sequence = []
    while any(count > 0 for _, count in remaining):
        for entry in remaining:
            if entry[1] > 0:
                sequence.append(entry[0])
                entry[1] -= 1
    return sequence


def _valid(pattern, mode):
    if sum(count for _, count in pattern) == 0:
        return False
    if mode is HammerMode.INTERLEAVED:
        rows = [row for row, _ in pattern]
        return len(set(rows)) == len(rows)
    return True


patterns = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 12)),
    min_size=1, max_size=5,
)


@given(patterns, st.sampled_from(list(HammerMode)), st.data())
def test_row_at_matches_reference_expansion(pattern, mode, data):
    assume(_valid(pattern, mode))
    batch = ActBatch(bank=0, pattern=tuple(pattern), mode=mode)
    sequence = expand(batch)
    assert batch.total == len(sequence)
    assert batch.first_row == sequence[0]
    assert batch.last_row == sequence[-1]
    index = data.draw(st.integers(0, len(sequence) - 1))
    assert batch.row_at(index) == sequence[index]


@given(patterns, st.sampled_from(list(HammerMode)))
def test_run_stats_matches_reference_expansion(pattern, mode):
    assume(_valid(pattern, mode))
    batch = ActBatch(bank=0, pattern=tuple(pattern), mode=mode)
    sequence = expand(batch)
    runs: dict[int, int] = {}
    acts: dict[int, int] = {}
    previous = None
    for row in sequence:
        acts[row] = acts.get(row, 0) + 1
        if row != previous:
            runs[row] = runs.get(row, 0) + 1
        previous = row
    expected = {row: (runs[row], acts[row]) for row in acts}
    assert batch.run_stats() == expected
    # The second call answers from the batch's memo.
    assert batch.run_stats() is batch.run_stats()
    assert batch.run_stats() == expected


def test_interleaved_two_rows_alternate():
    batch = ActBatch(bank=0, pattern=((5, 3), (9, 3)),
                     mode=HammerMode.INTERLEAVED)
    assert [batch.row_at(i) for i in range(6)] == [5, 9, 5, 9, 5, 9]


def test_interleaved_unequal_counts_tail_is_solo():
    batch = ActBatch(bank=0, pattern=((1, 2), (2, 5)),
                     mode=HammerMode.INTERLEAVED)
    assert [batch.row_at(i) for i in range(7)] == [1, 2, 1, 2, 2, 2, 2]
    # Tail of row 2 merges with its last alternating slot: runs at
    # indices 1 and 3-6 -> two runs total.
    assert batch.run_stats()[2] == (2, 5)
    assert batch.run_stats()[1] == (2, 2)


def test_cascaded_adjacent_same_row_entries_merge_runs():
    batch = ActBatch(bank=0, pattern=((7, 3), (7, 4)),
                     mode=HammerMode.CASCADED)
    assert batch.run_stats() == {7: (1, 7)}


def test_counts_by_row_aggregates_duplicates():
    batch = ActBatch(bank=0, pattern=((1, 2), (2, 3), (1, 4)))
    assert batch.counts_by_row() == {1: 6, 2: 3}


def test_empty_batch_has_no_first_or_last_row():
    batch = ActBatch(bank=0, pattern=((3, 0), (4, 0)))
    assert batch.total == 0
    assert batch.first_row is None and batch.last_row is None


def test_row_at_bounds_checked():
    batch = single_row_batch(0, 3, 5)
    with pytest.raises(IndexError):
        batch.row_at(5)
    with pytest.raises(IndexError):
        batch.row_at(-1)


def test_invalid_batches_rejected():
    with pytest.raises(ConfigError):
        ActBatch(bank=0, pattern=())
    with pytest.raises(ConfigError):
        ActBatch(bank=0, pattern=((1, -2),))
    with pytest.raises(ConfigError):
        ActBatch(bank=0, pattern=((1, 2), (1, 3)),
                 mode=HammerMode.INTERLEAVED)
