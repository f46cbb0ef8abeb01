"""Command-bus profiler: per-opcode attribution.

The conftest ``drive()`` workload issues a fixed command mix — 3 ACT,
2 RD, 2 REF, 1 WR, 1 WAIT — so opcode *counts* are exact assertions;
seconds are only checked for shape (positive, summing to ``total_s``).
"""

from __future__ import annotations

import time

from repro.obs import CommandProfiler, NullProfiler, Observability

from .conftest import drive, small_host

#: drive()'s command mix, by opcode (one profiler sample per host call).
DRIVE_COUNTS = {"ACT": 3, "RD": 2, "REF": 2, "WAIT": 1, "WR": 1}


def test_host_attributes_every_command_type():
    profiler = CommandProfiler()
    host = small_host(obs=Observability(profiler=profiler))
    drive(host)
    assert profiler.counts == DRIVE_COUNTS
    assert profiler.commands == 9
    assert all(seconds > 0 for seconds in profiler.seconds.values())
    assert abs(profiler.total_s
               - sum(profiler.seconds.values())) < 1e-12


def test_host_profile_covers_measured_wall():
    """Opcode seconds must explain most of the host-call wall time."""
    profiler = CommandProfiler()
    host = small_host(obs=Observability(profiler=profiler))
    started = time.perf_counter()
    for _ in range(20):
        drive(host)
    wall = time.perf_counter() - started
    # Everything between perf_counter reads is host work; the only
    # unattributed time is the Python call glue around each bracket.
    assert profiler.total_s <= wall
    assert profiler.total_s >= 0.5 * wall


def test_profiler_merge_folds_dumps_and_instances():
    left = CommandProfiler()
    left.add("ACT", 0.25)
    left.add("RD", 0.5)
    right = CommandProfiler()
    right.add("ACT", 0.75)
    left.merge(right)            # instance form
    left.merge(right.as_dict())  # dict form (what pool workers ship)
    assert left.counts == {"ACT": 3, "RD": 1}
    assert abs(left.seconds["ACT"] - 1.75) < 1e-9
    left.merge(NullProfiler())   # disabled profilers fold to nothing
    assert left.commands == 4


def test_render_table_and_coverage():
    profiler = CommandProfiler()
    profiler.add("ACT", 3.0)
    profiler.add("RD", 1.0)
    text = profiler.render(wall_s=5.0)
    lines = text.splitlines()
    # Canonical opcode order, totals row, coverage footer.
    assert lines[1].split()[0] == "ACT"
    assert lines[2].split()[0] == "RD"
    assert "total" in lines[3]
    assert "coverage: 80.0% of 5.000s" in lines[4]
    assert CommandProfiler().render() == "  (no commands profiled)"


def test_null_profiler_is_inert_and_cheap():
    profiler = NullProfiler()
    profiler.add("ACT", 1.0)
    profiler.add_bulk("ACT", 4, 1.0)
    assert profiler.commands == 0
    assert profiler.seconds == {}
    assert profiler.counts == {}
    # A host built with the null profiler resolves to the no-op branch.
    host = small_host(obs=Observability(profiler=profiler))
    assert host._prof is None
    drive(host)
