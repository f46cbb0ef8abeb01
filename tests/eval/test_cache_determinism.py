"""Cached evaluation is byte-identical to uncached evaluation.

The cache's acceptance contract: a warm sweep must render the same
artifact bytes, fold the same metrics, and record the same history
metrics as a cold one — at any worker count — and every input that can
change a result (seed, scale, fault profile, chip recipe, entry-point
code) must change the cache key, while pure side channels (telemetry,
worker count) must not.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cache import ResultCache, unit_key
from repro.eval import QUICK, run_fig8_many, run_fig9
from repro.eval.__main__ import main as eval_main
from repro.eval.runner import evaluate_module_unit
from repro.eval.resilience import run_module_resilience
from repro.obs import MetricsRegistry, Observability
from repro.parallel import WorkUnit

TINY = dataclasses.replace(QUICK, positions=6, fig8_positions=4)


@pytest.mark.parametrize("workers", [1, 2])
def test_fig9_cold_and_warm_render_identical_bytes(tmp_path, workers):
    modules = ["A5", "B0"]
    cold_metrics = MetricsRegistry()
    cold = run_fig9(modules, TINY, workers=workers,
                    obs=Observability(metrics=cold_metrics),
                    cache=ResultCache(tmp_path / "store"))
    warm_cache = ResultCache(tmp_path / "store")
    warm_metrics = MetricsRegistry()
    warm = run_fig9(modules, TINY, workers=workers,
                    obs=Observability(metrics=warm_metrics),
                    cache=warm_cache)
    assert warm.render() == cold.render()
    assert warm_metrics.as_dict() == cold_metrics.as_dict()
    assert warm_cache.summary()["hit_ratio"] == 1.0
    assert warm_cache.summary()["misses"] == 0
    # Uncached reference: the cache is invisible in every gated output.
    plain = run_fig9(modules, TINY, workers=workers)
    assert plain.render() == cold.render()


@pytest.mark.parametrize("workers", [1, 2])
def test_fig8_cold_and_warm_render_identical_bytes(tmp_path, workers):
    sweeps = ["A5", "C7"]
    cold = run_fig8_many(sweeps, TINY, workers=workers,
                         cache=ResultCache(tmp_path / "store"))
    warm_cache = ResultCache(tmp_path / "store")
    warm = run_fig8_many(sweeps, TINY, workers=workers,
                         cache=warm_cache)
    assert [r.render() for r in warm] == [r.render() for r in cold]
    assert warm_cache.summary()["misses"] == 0


def test_worker_count_and_telemetry_do_not_split_the_store(tmp_path):
    """A store warmed at one worker count serves any other: neither
    workers nor telemetry are key material."""
    from repro.obs.live import TelemetryConfig

    sweeps = ["A5"]
    run_fig8_many(sweeps, TINY, workers=1,
                  cache=ResultCache(tmp_path / "store"))
    telemetry = TelemetryConfig(spool=str(tmp_path / "spool"),
                                run_id="warm", interval_s=60.0)
    warm_cache = ResultCache(tmp_path / "store")
    run_fig8_many(sweeps, TINY, workers=2, telemetry=telemetry,
                  cache=warm_cache)
    assert warm_cache.summary()["misses"] == 0
    assert warm_cache.summary()["hit_ratio"] == 1.0


def _eval_unit(module_id="A5", scale=TINY, positions=None,
               fn=evaluate_module_unit):
    return WorkUnit(unit_id=f"eval/{module_id}", fn=fn,
                    args=(module_id, scale, positions),
                    meta={"module": module_id, "scale": scale.name})


def _chaos_unit(module_id="A5", fault_profile="default", seed=0):
    return WorkUnit(unit_id=f"resilience/{module_id}",
                    fn=run_module_resilience,
                    args=(module_id, fault_profile, seed, None),
                    meta={"module": module_id,
                          "fault_profile": fault_profile,
                          "seed": seed, "artifact": "resilience"})


def test_eval_unit_keys_invalidate_on_every_result_input():
    base = unit_key(_eval_unit(), git="g0")
    # Chip recipe: another module selects a different device + TRR.
    assert unit_key(_eval_unit(module_id="B0"), git="g0") != base
    # Scale: the EvalScale operating point is part of the arguments.
    wider = dataclasses.replace(TINY, positions=8)
    assert unit_key(_eval_unit(scale=wider), git="g0") != base
    assert unit_key(_eval_unit(positions=12), git="g0") != base
    # Entry point: an edited implementation invalidates stored results.
    assert unit_key(_eval_unit(fn=run_module_resilience), git="g0") \
        != base
    # Code revision.
    assert unit_key(_eval_unit(), git="g1") != base
    # And stability: rebuilding the same recipe reproduces the key.
    assert unit_key(_eval_unit(), git="g0") == base


def test_chaos_unit_keys_invalidate_on_seed_and_fault_profile():
    base = unit_key(_chaos_unit(), git="g0")
    assert unit_key(_chaos_unit(seed=1), git="g0") != base
    assert unit_key(_chaos_unit(fault_profile="vrt-storm"),
                    git="g0") != base
    assert unit_key(_chaos_unit(), git="g0") == base


def test_cli_cached_rerun_is_byte_identical(tmp_path, capsys):
    store = tmp_path / "store"
    history = tmp_path / "hist.jsonl"
    args = ["fig9", "--modules", "B0", "--scale", "quick", "--quiet",
            "--workers", "1", "--cache", str(store),
            "--history", str(history)]
    assert eval_main(args) == 0
    cold_out = capsys.readouterr().out
    assert eval_main([*args, "--resume", "--cache-verify"]) == 0
    warm_out = capsys.readouterr().out
    assert warm_out == cold_out
    rows = [json.loads(line) for line in history.open()]
    cold_row, warm_row = rows
    assert warm_row["metrics"] == cold_row["metrics"]
    assert cold_row["extra"]["cache"]["hits"] == 0
    assert warm_row["extra"]["cache"]["misses"] == 0
    assert warm_row["extra"]["cache"]["hit_ratio"] == 1.0


def test_cli_resume_requires_a_store(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    with pytest.raises(SystemExit):
        eval_main(["fig9", "--modules", "B0", "--scale", "quick",
                   "--quiet", "--resume"])
    assert "--resume requires --cache" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        eval_main(["fig9", "--modules", "B0", "--scale", "quick",
                   "--quiet", "--cache-verify"])
    assert "--cache-verify requires --cache" in capsys.readouterr().err


def test_cli_no_cache_overrides_environment(tmp_path, capsys,
                                            monkeypatch):
    store = tmp_path / "env-store"
    monkeypatch.setenv("REPRO_CACHE", str(store))
    assert eval_main(["fig8", "--modules", "A5", "--scale", "quick",
                      "--quiet", "--workers", "1", "--no-cache"]) == 0
    capsys.readouterr()
    assert not store.exists()  # the store was never even created
