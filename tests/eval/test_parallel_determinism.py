"""Parallel evaluation is byte-identical to the sequential path.

The satellite guarantee of the execution engine: ``--workers N`` (N > 1)
must produce exactly the artifacts of ``--workers 1`` — same rendered
tables, same per-row flip ledgers, same recovered TRR parameters, same
manifests — because every work unit derives its RNG streams from its
unit id, never from scheduling order.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import HARDENED_INFERENCE
from repro.eval import (QUICK, run_fig8_many, run_fig9, run_fig10,
                        run_resilience)
from repro.eval.__main__ import main as eval_main

MODULES = ["A5", "B0", "C7"]

TINY = dataclasses.replace(QUICK, positions=6, fig8_positions=4)

#: Effort knobs cut to the bone — determinism does not depend on how
#: many validation rounds run, only that both sides run the same ones.
FAST_RESILIENCE = dict(validation_rounds=2, period_scan_experiments=30,
                       neighbor_repeats=1, persistence_probes=1,
                       kind_repeats=1, capacity_candidates=(16,),
                       capacity_repeats=1)


@pytest.mark.slow
def test_fig9_fig10_parallel_byte_identical():
    sequential = run_fig9(MODULES, QUICK)
    parallel = run_fig9(MODULES, QUICK, workers=2)
    assert parallel.render() == sequential.render()
    assert run_fig10(evaluations=parallel.evaluations).render() == \
        run_fig10(evaluations=sequential.evaluations).render()
    for seq_eval, par_eval in zip(sequential.evaluations,
                                  parallel.evaluations):
        assert par_eval.pattern_name == seq_eval.pattern_name
        assert par_eval.result.flips_by_row == seq_eval.result.flips_by_row


def test_fig8_parallel_byte_identical():
    sweeps = ["A5", "C7"]
    sequential = run_fig8_many(sweeps, TINY)
    parallel = run_fig8_many(sweeps, TINY, workers=2)
    assert [r.render() for r in parallel] == \
        [r.render() for r in sequential]
    for seq_result, par_result in zip(sequential, parallel):
        assert par_result.sweep.flips_by_hammers == \
            seq_result.sweep.flips_by_hammers


@pytest.mark.slow
def test_resilience_parallel_byte_identical_under_faults():
    """Recovered TRR parameters match under the default fault profile."""
    config = dataclasses.replace(HARDENED_INFERENCE, **FAST_RESILIENCE)
    sequential = run_resilience(MODULES, fault_profile="default",
                                config=config)
    parallel = run_resilience(MODULES, fault_profile="default",
                              config=config, workers=2)
    assert parallel.render() == sequential.render()
    assert not parallel.quarantined
    for seq_mod, par_mod in zip(sequential.modules, parallel.modules):
        assert par_mod.profile == seq_mod.profile
        assert par_mod.fault_counters == seq_mod.fault_counters
        assert par_mod.recovery == seq_mod.recovery
        assert par_mod.manifest == seq_mod.manifest


def test_fig8_byte_identical_with_telemetry_enabled(tmp_path):
    """Live telemetry is a pure side channel: artifact bytes and the
    folded metrics are unchanged by enabling it, sequential or pooled."""
    from repro.obs import MetricsRegistry, Observability
    from repro.obs.live import TelemetryConfig, read_spool

    sweeps = ["A5"]
    plain = run_fig8_many(sweeps, TINY)
    rendered = {}
    registries = {}
    for workers in (1, 2):
        telemetry = TelemetryConfig(
            spool=str(tmp_path / f"w{workers}"), run_id="determinism",
            interval_s=0.05)
        registries[workers] = MetricsRegistry()
        results = run_fig8_many(sweeps, TINY, workers=workers,
                                obs=Observability(
                                    metrics=registries[workers]),
                                telemetry=telemetry)
        rendered[workers] = [r.render() for r in results]
        kinds = [e["kind"] for e in read_spool(telemetry.spool)]
        assert "unit-done" in kinds  # the side channel did run
    assert rendered[1] == [r.render() for r in plain]
    assert rendered[2] == rendered[1]
    assert registries[1].as_dict() == registries[2].as_dict()


def test_cli_workers_flag_keeps_stdout_byte_stable(capsys):
    args = ["fig9", "--modules", "B0", "--scale", "quick", "--quiet"]
    assert eval_main([*args, "--workers", "1"]) == 0
    sequential = capsys.readouterr().out
    assert eval_main([*args, "--workers", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == sequential
    assert "B0" in sequential


def test_cli_telemetry_and_profile_leave_stdout_untouched(tmp_path,
                                                          capsys):
    from repro.obs.live import read_spool

    args = ["fig9", "--modules", "B0", "--scale", "quick", "--quiet",
            "--workers", "1"]
    assert eval_main(args) == 0
    plain = capsys.readouterr().out
    spool = tmp_path / "spool"
    assert eval_main([*args, "--telemetry", str(spool),
                      "--telemetry-interval", "0.05", "--profile"]) == 0
    observed = capsys.readouterr().out
    assert observed == plain
    kinds = [e["kind"] for e in read_spool(spool)]
    assert "run-start" in kinds and "unit-done" in kinds


def test_cli_profile_coverage_stays_within_the_profiled_wall(capsys):
    """Two pool workers profile at once, so their command seconds sum
    past the run's one wall; coverage is taken against the profiled
    units' summed wall instead, which bounds it by 100%."""
    assert eval_main(["fig9", "--modules", "A5,B0,C7", "--scale",
                      "quick", "--workers", "2", "--profile"]) == 0
    err = capsys.readouterr().err
    [line] = [line for line in err.splitlines() if "coverage:" in line]
    coverage = float(line.split("coverage:")[1].split("%")[0])
    assert 0.0 < coverage <= 100.0, line


@pytest.mark.parametrize("extra, message", [
    ((), "--stall-deadline requires --telemetry"),
    # At one worker every unit runs on the coordinator's thread, where
    # no watchdog scan happens: the deadline would be silently ignored.
    (("--workers", "1", "--telemetry", "{spool}"),
     "--stall-deadline requires --workers 2 or more"),
], ids=["no-telemetry", "one-worker"])
def test_cli_stall_deadline_requires_telemetry(extra, message, tmp_path,
                                               capsys):
    extra = [arg.format(spool=tmp_path / "spool") for arg in extra]
    with pytest.raises(SystemExit):
        eval_main(["fig9", "--modules", "B0", "--scale", "quick",
                   "--quiet", *extra, "--stall-deadline", "5"])
    assert message in capsys.readouterr().err
