"""Command-bus profiler: per-opcode attribution.

The conftest ``drive()`` workload issues a fixed command mix — 3 ACT,
2 RD, 2 REF, 1 WR, 1 WAIT — so opcode *counts* are exact assertions;
seconds are only checked for shape (positive, summing to ``total_s``).
"""

from __future__ import annotations

import time

import pytest

from repro.dram import AllOnes
from repro.errors import ConfigError
from repro.obs import CommandProfiler, Observability
from repro.obs.profile import HOST_METHODS, RANGE_METHODS
from repro.softmc import SoftMCHost

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
    # unattributed time is the Python call glue around each wrapper.
    assert profiler.total_s <= wall
    assert profiler.total_s >= 0.5 * wall


def test_attach_wraps_only_the_profiled_host():
    """The profiler wraps one host's opcode methods on that instance:
    a host built without one runs the class methods, untimed."""
    profiler = CommandProfiler()
    profiled = small_host(obs=Observability(profiler=profiler))
    plain = small_host(obs=Observability())
    names = ([name for name, _ in HOST_METHODS + RANGE_METHODS]
             + ["_try_fused_hammer"])
    assert set(names) <= set(vars(profiled))
    assert not set(names) & set(vars(plain))
    assert all(getattr(plain, name).__func__ is getattr(SoftMCHost, name)
               for name in names)
    drive(plain)
    assert profiler.commands == 0
    drive(profiled)
    assert profiler.counts == DRIVE_COUNTS


def test_range_commands_count_one_command_per_row():
    profiler = CommandProfiler()
    host = small_host(obs=Observability(profiler=profiler))
    host.write_rows(0, [10, 11, 12], AllOnes())
    assert host.read_rows_mismatches(0, [12, 10]) == [[], []]
    host.write_rows(1, [], AllOnes())
    with pytest.raises(ConfigError):
        host.read_rows_mismatches(0, [1, 2.0])
    assert profiler.counts == {"WR": 3, "RD": 2}
    assert profiler.seconds.keys() == {"WR", "RD"}


def test_profiler_merge_folds_dumps_and_unit_walls():
    left = CommandProfiler()
    left.add("ACT", 0.25)
    left.add("RD", 0.5)
    right = CommandProfiler()
    right.add("ACT", 0.75)
    right.add("ACT", 0.5, count=3)
    left.merge(right.as_dict(), wall_s=2.0)
    left.merge(right.as_dict())
    assert left.counts == {"ACT": 9, "RD": 1}
    assert abs(left.seconds["ACT"] - 2.75) < 1e-9
    # Only the wall given with a dump counts toward coverage.
    assert left.wall_s == 2.0


def test_render_table_and_coverage():
    profiler = CommandProfiler()
    profiler.merge({"seconds": {"ACT": 3.0, "RD": 1.0},
                    "counts": {"ACT": 1, "RD": 1}}, wall_s=5.0)
    text = profiler.render()
    lines = text.splitlines()
    # Canonical opcode order, totals row, coverage footer.
    assert lines[1].split()[0] == "ACT"
    assert lines[2].split()[0] == "RD"
    assert "total" in lines[3]
    assert "coverage: 80.0% of 5.000s" in lines[4]
    assert CommandProfiler().render() == "  (no commands profiled)"
    # No folded wall, no coverage line.
    bare = CommandProfiler()
    bare.add("ACT", 1.0)
    assert "coverage" not in bare.render()
