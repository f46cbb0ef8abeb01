"""``on_row_activations`` overrides equal the base per-row default.

The base hook is defined as one ``on_activations`` call per row with a
one-ACT batch.  Each mechanism that overrides it must leave exactly the
state, RNG position and REF output that definition does, on any mix of
row ranges, hammer batches and REFs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import HammerMode
from repro.dram.commands import ActBatch
from repro.trr import (CounterBasedTrr, NoTrr, SamplingBasedTrr,
                       TrrContext, TrrMechanism, WindowBasedTrr)

from ..softmc.test_row_ranges import snapshot

CONTEXT = TrrContext(num_banks=2, num_rows=64)

OVERRIDING = {
    "none": NoTrr,
    "counter": lambda: CounterBasedTrr(trr_ref_period=2, table_size=3),
    "counter-any-insert": lambda: CounterBasedTrr(
        trr_ref_period=3, table_size=2, min_insert_count=1),
    "sampling-shared": lambda: SamplingBasedTrr(trr_ref_period=2,
                                                sample_period=3),
    "sampling-per-bank": lambda: SamplingBasedTrr(
        trr_ref_period=2, sample_period=4, per_bank=True),
    "window": lambda: WindowBasedTrr(trr_ref_period=2, window_acts=5,
                                     early_bias_tau=1.5),
}


def test_every_overriding_mechanism_is_covered():
    overriding = {cls for cls in (NoTrr, CounterBasedTrr, SamplingBasedTrr,
                                  WindowBasedTrr)
                  if "on_row_activations" in vars(cls)}
    assert overriding == {type(make()) for make in OVERRIDING.values()}


banks = st.integers(0, 1)
rows = st.integers(0, 9)
#: Steps straddling the counter's 200 ns burst window, and the default
#: row write and read time.
steps = st.sampled_from((0, 89_000, 199_999, 200_000, 200_001, 529_000))
event = st.one_of(
    st.tuples(st.just("rows"), banks,
              st.lists(st.tuples(rows, st.integers(1, 3)), max_size=8),
              st.integers(0, 10**6), steps),
    st.tuples(st.just("batch"), banks, rows, st.integers(1, 4),
              st.integers(0, 10**6)),
    st.tuples(st.just("ref")),
)


def drive(mechanism: TrrMechanism, events, base: bool) -> list:
    """Apply *events*; the ranges through the override or, with *base*,
    through the base class's definition."""
    mechanism.bind(CONTEXT)
    hook = (TrrMechanism.on_row_activations.__get__(mechanism) if base
            else mechanism.on_row_activations)
    refreshed = []
    clock = 0
    for item in events:
        if item[0] == "rows":
            expanded = [row for row, repeats in item[2]
                        for _ in range(repeats)]
            # Ranges start where the clock is, or jump ahead of it.
            clock += item[3]
            hook(item[1], expanded, clock, item[4])
            clock += len(expanded) * item[4]
        elif item[0] == "batch":
            # A hammer right after a range: a same-row single ACT may
            # extend the range's last burst.
            clock += item[4]
            mechanism.on_activations(
                item[1], ActBatch(bank=item[1], pattern=((item[2], item[3]),),
                                  mode=HammerMode.CASCADED), clock)
        else:
            refreshed.append(mechanism.on_refresh())
    return refreshed


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(tuple(OVERRIDING)),
       events=st.lists(event, max_size=20))
def test_override_equals_per_row_default(kind, events):
    ours, reference = OVERRIDING[kind](), OVERRIDING[kind]()
    assert drive(ours, events, base=False) == drive(reference, events,
                                                   base=True)
    assert snapshot(ours) == snapshot(reference)
