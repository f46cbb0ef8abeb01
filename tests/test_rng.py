"""Deterministic seed derivation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.rng import (PCG64Lanes, SeedSequenceFactory, choice_without,
                       derive_seed, stream)

key_part = st.one_of(st.integers(-2**40, 2**40), st.text(max_size=20),
                     st.binary(max_size=20))


@given(st.lists(key_part, min_size=1, max_size=5))
def test_derive_seed_is_deterministic(parts):
    assert derive_seed(*parts) == derive_seed(*parts)


def test_derive_seed_distinguishes_types_and_order():
    assert derive_seed(1, "a") != derive_seed("a", 1)
    assert derive_seed("1") != derive_seed(1)
    assert derive_seed(b"x") != derive_seed("x")
    assert derive_seed(True) != derive_seed(1)


def test_derive_seed_no_concatenation_collision():
    # Length prefixes prevent ("ab", "c") colliding with ("a", "bc").
    assert derive_seed("ab", "c") != derive_seed("a", "bc")


def test_stream_reproducibility():
    a = stream("test", 1).integers(0, 1 << 30, size=16)
    b = stream("test", 1).integers(0, 1 << 30, size=16)
    assert np.array_equal(a, b)
    c = stream("test", 2).integers(0, 1 << 30, size=16)
    assert not np.array_equal(a, c)


def test_factory_roots_namespaces():
    f1 = SeedSequenceFactory("chip", 1)
    f2 = SeedSequenceFactory("chip", 2)
    assert f1.seed("x") != f2.seed("x")
    assert f1.child("sub").seed("x") == derive_seed("chip", 1, "sub", "x")


@given(st.lists(key_part, max_size=3),
       st.lists(st.integers(-2**40, 2**40), max_size=20))
def test_seeds_equal_per_row_seed(parts, rows):
    factory = SeedSequenceFactory("chip", 9)
    seeds = factory.seeds(*parts, rows=rows)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [factory.seed(*parts, row) for row in rows]


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
seeds_strategy = st.lists(
    st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
    min_size=1, max_size=12)


@given(seeds_strategy)
@example(EDGE_SEEDS)
def test_lanes_seed_and_step_like_pcg64(seeds):
    lanes = PCG64Lanes(np.array(seeds, dtype=np.uint64))
    everyone = np.arange(len(seeds))
    raws = np.stack([lanes.next64(everyone) for _ in range(4)], axis=1)
    for lane, seed in enumerate(seeds):
        reference = np.random.PCG64(seed)
        assert PCG64Lanes(np.array([seed], dtype=np.uint64)).state(0) \
            == reference.state
        assert raws[lane].tolist() == reference.random_raw(4).tolist()
        assert lanes.state(lane) == reference.state


#: One lane draw, and the same draw from a lane's own ``Generator``.
DRAWS = {
    "next64": (PCG64Lanes.next64,
               lambda gen: int(gen.bit_generator.random_raw())),
    "next32": (PCG64Lanes.next32,
               lambda gen: int(gen.integers(0, 2**32, dtype=np.uint32))),
    "double": (PCG64Lanes.next_double, lambda gen: float(gen.random())),
}


@given(seeds_strategy,
       st.lists(st.tuples(st.sampled_from(sorted(DRAWS)),
                          st.lists(st.booleans(), min_size=12,
                                   max_size=12)),
                max_size=12))
def test_lane_draws_match_each_lanes_generator(seeds, draws):
    lanes = PCG64Lanes(np.array(seeds, dtype=np.uint64))
    generators = [np.random.Generator(np.random.PCG64(seed))
                  for seed in seeds]
    for name, chosen in draws:
        lane_draw, own_draw = DRAWS[name]
        subset = np.flatnonzero(chosen[:len(seeds)])
        got = lane_draw(lanes, subset).tolist()
        assert got == [own_draw(generators[lane]) for lane in subset]
    for lane, generator in enumerate(generators):
        assert lanes.state(lane) == generator.bit_generator.state


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
       st.one_of(st.integers(1, 2**32 - 2), st.just(2**31)))
def test_bounded_draw_is_lemire_or_flagged(seeds, bound):
    # 2**31 puts half of all draws in the rejection zone.
    lanes = PCG64Lanes(np.array(seeds, dtype=np.uint64))
    values, rejected = lanes.bounded_uint32(
        np.arange(len(seeds)), np.full(len(seeds), bound, dtype=np.uint64))
    for lane, seed in enumerate(seeds):
        generator = np.random.Generator(np.random.PCG64(seed))
        value = int(generator.integers(0, bound, endpoint=True,
                                       dtype=np.uint32))
        # numpy draws again exactly when the lane's draw was rejected.
        redrawn = generator.bit_generator.state != lanes.state(lane)
        assert bool(rejected[lane]) == redrawn
        if not redrawn:
            assert int(values[lane]) == value


def test_choice_without_respects_exclusions():
    rng = stream("choice")
    exclude = set(range(0, 100, 2))
    picked = choice_without(rng, 0, 100, exclude, 20)
    assert len(picked) == 20
    assert len(set(picked)) == 20
    assert not set(picked) & exclude


def test_choice_without_rejects_impossible_request():
    rng = stream("choice2")
    with pytest.raises(ValueError):
        choice_without(rng, 0, 10, set(range(8)), 5)


def test_derive_seed_rejects_unknown_types():
    with pytest.raises(TypeError):
        derive_seed(object())  # type: ignore[arg-type]
