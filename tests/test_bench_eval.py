"""``benchmarks/bench_eval.py``: no parallel speedup from one worker."""

from __future__ import annotations

import importlib.util
import json
import pathlib

_PATH = (pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
         / "bench_eval.py")
_SPEC = importlib.util.spec_from_file_location("bench_eval", _PATH)
bench_eval = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_eval)


def test_parallel_speedup_needs_two_workers_and_two_cores():
    assert bench_eval.parallel_speedup(10.0, 4.0, 2, 2) == 2.5
    assert bench_eval.parallel_speedup(10.0, 4.0, 1, 4) is None
    assert bench_eval.parallel_speedup(10.0, 4.0, 4, 1) is None


def test_report_parallel_prints_na_for_null_speedup(tmp_path, capsys):
    figure = {"sequential_seconds": 9.0, "parallel_seconds": 9.5,
              "parallel_speedup": None, "parallel_breakdown": {}}
    results = tmp_path / "BENCH_eval.json"
    results.write_text(json.dumps({
        "workers": 1, "cpu_count": 1,
        "figures": {"fig9": figure,
                    "fig10": {**figure, "parallel_speedup": 1.8}}}))
    assert bench_eval.report_parallel(results) == 0
    out = capsys.readouterr().out
    assert "workers=1 cpu_count=1" in out
    assert "fig9: n/a (9.0s -> 9.5s)" in out
    assert "fig10: 1.80x" in out
