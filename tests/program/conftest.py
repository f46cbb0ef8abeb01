"""Fixtures for compiled-payload tests: hosts, a mixed workload, and
the host-side write/read-back harness around a program run."""

from __future__ import annotations

from repro.dram import (AllOnes, AllZeros, DeviceConfig, DisturbanceConfig,
                        DramChip, HammerMode, RetentionConfig)
from repro.softmc import SoftMCHost, SoftMCProgram


def payload_host(trr=None, *, obs=None, faults=None, weak_mean=2.0,
                 serial=9) -> SoftMCHost:
    """A weak-cell-dense chip so scans produce non-empty mismatches."""
    config = DeviceConfig(
        name="payload-test", serial=serial, num_banks=4,
        rows_per_bank=4096, row_bits=1024, refresh_cycle_refs=1024,
        retention=RetentionConfig(weak_cells_per_row_mean=weak_mean,
                                  vrt_fraction=0.0),
        disturbance=DisturbanceConfig(hc_first=10_000))
    return SoftMCHost(DramChip(config, trr), obs=obs, faults=faults)


#: The rows :func:`mixed_program` disturbs, with the data written into
#: each before it runs.
MIXED_ROWS = {(0, row): AllOnes() for row in range(999, 1004)}
MIXED_ROWS[1, 50] = AllZeros()


def mixed_program() -> SoftMCProgram:
    """Every instruction type, with fusible ACT runs and real decay.

    Ten rounds of eight identical double-sided hammers (a fusible run)
    plus a REF, then a multi-bank hammer, a lone hammer, a long wait
    and nominal-rate REFs — the command mix a captured attack window
    produces.  :func:`run_between_readbacks` with :data:`MIXED_ROWS`
    observes the decay.
    """
    program = SoftMCProgram()
    for _ in range(10):
        for _ in range(8):
            program.hammer(0, ((1000, 6), (1002, 6)),
                           HammerMode.INTERLEAVED)
        program.refresh(1)
    program.hammer_multi({1: [(60, 3)], 2: [(70, 2)]})
    program.hammer(1, ((80, 4),), HammerMode.CASCADED)
    program.wait(int(256e9))
    program.refresh(2, at_nominal_rate=True)
    return program


def run_between_readbacks(host: SoftMCHost, rows: dict, run) -> tuple:
    """Write each of *rows* (``{(bank, row): data}``) through *host*,
    call ``run(host)``, then read every row back.

    Returns one ``(bank, row, mismatches, bits)`` entry per row:
    :meth:`~SoftMCHost.read_row_mismatches` first, so a decayed row
    shows against the data written, then :meth:`~SoftMCHost.read_row`.
    """
    for (bank, row), data in rows.items():
        host.write_row(bank, row, data)
    run(host)
    return tuple((bank, row, tuple(host.read_row_mismatches(bank, row)),
                  tuple(host.read_row(bank, row).tolist()))
                 for bank, row in rows)


def chip_state(host: SoftMCHost) -> tuple:
    """Full observable chip state, exact to the float bit, plus the
    fault injector's record when the host has one.

    Each row's deferred refresh gap is committed first, as the row's
    next settle would, so a chip that settles at every REF slot reads
    the same."""
    chip = host._chip
    rows = []
    for index, bank in enumerate(chip.banks):
        for row, state in bank.rows.items():
            state.commit_pending_decay()
            rows.append((index, row, int(state.last_recharge_ps),
                         float(state.disturbance),
                         tuple(state.fault_positions.tolist()),
                         tuple(state.fault_values.tolist())))
    faults = host.faults
    fault_record = (None if faults is None
                    else (tuple(sorted(faults.counters.items())),
                          tuple(faults.trace)))
    return (host.now_ps, host.ref_count,
            tuple(sorted(host.acts_per_bank.items())),
            tuple(sorted(chip.stats.snapshot().items())),
            tuple(sorted(rows)), fault_record)
