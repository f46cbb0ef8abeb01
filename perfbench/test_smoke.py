"""Tiny-size smoke test of the benchmark harness itself.

Runs ``run.main`` end to end on the two cheapest modules, untraced and
traced, on the inline and the pool+cache workloads, and checks the
result line's shape and the correctness gate.  About half a minute on
two cores::

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SMOKE_MODULES = ["A6", "C8"]


def metric_names(section: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"] for metric in json.load(fh)[section]}


@pytest.mark.parametrize("workload", ["fig9_quick", "fig9_pool_cache"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_reports_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "pick_modules", lambda seed: SMOKE_MODULES)
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0, lines
    header, result = json.loads(lines[0]), json.loads(lines[-1])
    assert header["modules"] == SMOKE_MODULES
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = metric_names("per_layer" if trace == "1" else "end_to_end")
    assert set(result["metrics"]) == wanted
    metrics = {name: entry["value"] for name, entry
               in result["metrics"].items()}
    if trace == "0":
        assert metrics["wall_s"] > 0 and metrics["ok_frac"] == 1.0
    else:
        assert metrics["sim.acts"] > 0 and metrics["attacks.runs"] > 0
        assert metrics["core.experiments"] == 0
        if workload == "fig9_pool_cache":
            assert metrics["cache.hit_ratio"] == 0.5
            assert metrics["parallel.ideal_s"] > 0


def test_seed_zero_is_the_representative_set():
    assert run.pick_modules(0) == ["A5", "B0", "C7"]
    drawn = run.pick_modules(11)
    assert drawn == run.pick_modules(11)
    assert [module[0] for module in drawn] == ["A", "B", "C"]


def test_table1_parameter_check():
    text = ("Table 1\n"
            "module | version | detection | capacity | per-bank | TRR/REF"
            " | neighbors | recovered\n"
            "-------+---------+-----------+----------+----------+--------"
            "-+-----------+----------\n"
            "A5     | A_TRR1  | counter   | 16       | True     | 1/9    "
            " | 4         | yes\n"
            "B0     | B_TRR1  | sampling  | 1        | True     | 1/4    "
            " | 2         | NO\n")
    matching, checked, missed = run.table1_params(text)
    # A5: kind, period, table size, radius; B0: kind, period, per-bank.
    assert (matching, checked, missed) == (6, 7, ["B0"])


SOLOS = {
    "A6": "Fig\n\n  A6 (flips)\n       1 |  3 ###\n\nmodule | n\n"
          "-------+--\nA6     | 3\n\nworst: 1",
    "C8": "Fig\n\n  C8 (flips)\n       2 |  5 #####\n\nmodule | n\n"
          "-------+--\nC8     | 5\n\nworst: 2",
}
BOTH = ("Fig\n\n  A6 (flips)\n       1 |  3 ###\n\n  C8 (flips)\n"
        "       2 |  5 #####\n\nmodule | n \n-------+---\nA6     | 3 \n"
        "C8     | 5 \n\nworst: 2")


def test_reference_check_per_module():
    assert run.reference_misses(BOTH, SOLOS, SMOKE_MODULES) == []
    assert run.reference_misses(BOTH.replace("A6     | 3", "A6     | 4"),
                                SOLOS, SMOKE_MODULES) == ["A6"]
    assert run.reference_misses(BOTH.replace("2 |  5", "2 |  6"),
                                SOLOS, SMOKE_MODULES) == ["C8"]
    # A set-wide line must be some member's solo line.
    assert run.reference_misses(BOTH.replace("worst: 2", "worst: 3"),
                                SOLOS, SMOKE_MODULES) == SMOKE_MODULES
    assert run.reference_misses(BOTH, {"A6": SOLOS["A6"]},
                                SMOKE_MODULES) == SMOKE_MODULES


def test_a_unit_fails_once():
    checks = run.Checks("table1_quick", ["A6"])
    solo = checks.expected["table1"]["A6"]
    step = {"argv": ["table1"], "error": None, "store": {}}
    checks.passes({"steps": [dict(step, stdout=solo)]}, "pass0")
    assert (checks.attempted, checks.failed) == (1, set())
    # Not recovered, unlike the reference, and unlike the first pass.
    broken = solo.replace("| yes", "| NO ")
    checks.passes({"steps": [dict(step, stdout=broken)]}, "pass1")
    assert checks.attempted == 2
    assert checks.failed == {("pass1", 0, "A6")}
    assert len(checks.notes) == 3


def test_warm_pass_check():
    cold = {"ab/key.obj": [7, 100, 1000]}
    assert run.warm_pass_ok(cold, {"ab/key.obj": [7, 100, 2000]})
    assert not run.warm_pass_ok(cold, {"ab/key.obj": [8, 100, 2000]})
    assert not run.warm_pass_ok(cold, {"ab/key.obj": [7, 100, 1000]})
    assert not run.warm_pass_ok({}, {})


def test_self_time_subtracts_children():
    root = tracer.Node("harness")
    root.total, root.n = 3.0, 1
    child = root.child("dram.settle")
    child.total, child.n = 1.0, 4
    ledger = tracer.Ledger([root])
    assert ledger.self_of("harness") == pytest.approx(2.0)
    assert ledger.incl_of("dram.settle") == 1.0
    assert ledger.n_of("dram.settle") == 4


def test_pool_overhead_uses_the_step_of_the_executing_run():
    dump = {"tree": tracer.Node("harness").as_dict(), "counts": {}, "sim": {},
            "runs": [{"step": 1, "workers": 2, "wall_s": 5.0,
                      "units": [[4.0, False], [2.0, False]]}]}
    metrics = tracer.layer_metrics(
        dump, [], traced_wall=10.0, untraced_wall=10.0, step_walls=[3.0, 5.0],
        pooled=True, parallel_ok=True)
    assert metrics["parallel.ideal_s"][0] == 4.0
    assert metrics["parallel.overhead_s"][0] == 1.0


def test_missing_sources_fail_without_a_result():
    os.makedirs(run.STATE, exist_ok=True)
    checkout = tempfile.mkdtemp(prefix="bare-", dir=run.STATE)
    try:
        shutil.copytree(HERE, os.path.join(checkout, "perfbench"),
                        ignore=shutil.ignore_patterns(".state",
                                                      "__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", "fig9_quick", "--seed", "0", "--seconds", "1",
             "--trace", "0"], cwd=checkout, capture_output=True, text=True,
            timeout=60)
    finally:
        shutil.rmtree(checkout, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
