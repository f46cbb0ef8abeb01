"""Differential property: random programs, three engines, one stream.

Every random :class:`~repro.softmc.SoftMCProgram` runs on identically
built hosts three ways — the per-command interpreter
(``SoftMCProgram.run``), the guarded batch engine
(``execute_payload(..., fuse=False)``) and the fused one
(``fuse=True``) — with no TRR and with a counter-based TRR, each with
no fault injector, the default fault profile, and a command-fault
profile that leaves the chip environment neutral (so only the host's
own fault guard keeps the fused engine away).  The host writes every
row a program can touch before it runs and reads each one back after.
Those read-backs, the host ledger, chip state (to the float bit, with
the injector's record) and trace bytes must all be equal.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dram import AllOnes, AllZeros, Checkerboard, HammerMode
from repro.faults import COMMAND_FAULTS, DEFAULT, FaultInjector
from repro.obs import traced
from repro.program import compile_program, execute_payload
from repro.softmc import SoftMCProgram
from repro.softmc.program import Hammer, MultiHammer, Refresh, Wait
from repro.trr import CounterBasedTrr
from repro.units import ms

from .conftest import (MIXED_ROWS, chip_state, mixed_program, payload_host,
                       run_between_readbacks)

#: Every row a program touches: close enough that hammers disturb the
#: rows written and read.
ALL_ROWS = [(bank, row) for bank in range(4) for row in range(996, 1005)]
ROWS = st.integers(996, 1004)
BANKS = st.integers(0, 3)
MODES = st.sampled_from((HammerMode.INTERLEAVED, HammerMode.CASCADED))
DATA = st.sampled_from((AllOnes(), AllZeros(), Checkerboard(0)))
#: Hammer duplicates at a rate every short program sees, and nothing
#: that touches the chip environment: the fused engine's only refusal
#: of such a host is its own fault guard.
NEUTRAL_FAULTS = COMMAND_FAULTS.scaled(name="neutral-command-faults",
                                       hammer_duplicate_probability=0.25)
FAULT_PROFILES = (None, DEFAULT, NEUTRAL_FAULTS)

#: ``(row, count)`` pairs on distinct rows (an interleaved batch needs
#: them).
row_counts = st.lists(st.tuples(ROWS, st.integers(1, 8)), min_size=1,
                      max_size=3, unique_by=lambda pair: pair[0]).map(tuple)
hammers = st.builds(Hammer, BANKS, row_counts, MODES)
multi_hammers = st.builds(
    MultiHammer,
    st.lists(st.tuples(BANKS, row_counts), min_size=1, max_size=4,
             unique_by=lambda entry: entry[0]).map(tuple),
    MODES)
refreshes = st.builds(Refresh, st.integers(1, 4), st.booleans())
#: The longer two outlast the weakest cells' retention.
waits = st.builds(Wait, st.sampled_from((0, ms(1), ms(256), ms(1024))))


def flatten(parts: list[list]) -> list:
    return [instruction for part in parts for instruction in part]


#: Program fragments.  A run of identical hammers is what the fused
#: engine fuses.
commands = st.one_of(
    st.one_of(hammers, multi_hammers, refreshes,
              waits).map(lambda command: [command]),
    st.tuples(hammers, st.integers(2, 6)).map(
        lambda run: [run[0]] * run[1]))


#: Up to ten fragments.
programs = st.lists(commands, max_size=10).map(
    lambda parts: SoftMCProgram(flatten(parts)))

#: The data written into every row before a program runs, so waits
#: show up as decay in the read-backs.
row_data = st.lists(DATA, min_size=len(ALL_ROWS),
                    max_size=len(ALL_ROWS)).map(
    lambda data: dict(zip(ALL_ROWS, data)))


ENGINES = {
    "per-command": lambda host, program: program.run(host),
    "guarded": lambda host, program: execute_payload(
        host, compile_program(program.instructions, host.timing),
        fuse=False),
    "fused": lambda host, program: execute_payload(
        host, compile_program(program.instructions, host.timing),
        fuse=True),
}


def observe(program, rows, engine, with_trr, profile, seed, trace_path):
    """Run *program* on a fresh host between writes and read-backs of
    *rows*; everything the run leaves behind."""
    faults = None if profile is None else FaultInjector(profile, seed=seed)
    obs = traced(trace_path, manifest={"case": "payload-properties"})
    host = payload_host(CounterBasedTrr(trr_ref_period=2) if with_trr
                        else None, obs=obs, faults=faults)
    readbacks = run_between_readbacks(
        host, rows, lambda host: ENGINES[engine](host, program))
    obs.finalize(host)
    with open(trace_path, "rb") as handle:
        trace = handle.read()
    return readbacks, host.ledger(), chip_state(host), trace


# The explicit example's fused run on the TRR-free, fault-free host
# hands ten runs of eight hammers to ``DramChip.hammer_repeated``
# (``test_executor.py::test_fusion_actually_fuses``), so the fused
# engine's fast path is held to the reference, not only its fallback.
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs, rows=row_data, seed=st.integers(0, 3))
@example(program=mixed_program(), rows=MIXED_ROWS, seed=0)
def test_engines_agree(program, rows, seed):
    with tempfile.TemporaryDirectory() as scratch:
        for with_trr in (False, True):
            for profile in FAULT_PROFILES:
                runs = {}
                for engine in ENGINES:
                    trace_path = os.path.join(scratch, f"{engine}.jsonl")
                    runs[engine] = observe(program, rows, engine,
                                           with_trr, profile, seed,
                                           trace_path)
                reference = runs.pop("per-command")
                for engine, got in runs.items():
                    case = (engine, with_trr, profile and profile.name)
                    for part, expected, actual in zip(
                            ("read-backs", "ledger", "chip state",
                             "trace"),
                            reference, got):
                        assert actual == expected, (case, part)
