"""``benchmarks/bench_eval.py``: the settle ratio gate."""

from __future__ import annotations

import importlib.util
import json
import pathlib

_PATH = (pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
         / "bench_eval.py")
_SPEC = importlib.util.spec_from_file_location("bench_eval", _PATH)
bench_eval = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_eval)


def test_check_regression_gates_the_settle_ratio(tmp_path):
    baseline = tmp_path / "BENCH_eval.json"
    baseline.write_text(json.dumps({"settle": {"speedup": 20.0}}))

    def failures(speedup: float) -> list[str]:
        return bench_eval.check_regression(
            {"settle": {"speedup": speedup}}, baseline, 0.25)

    # Within the tolerance of the baseline: passes.
    assert failures(15.5) == []
    # Above the 5x floor but under the baseline minus the tolerance.
    assert [f.split(":")[0] for f in failures(14.0)] == \
        ["settle speedup regressed"]
    # Under the 5x floor fails on its own, whatever the baseline.
    lenient = bench_eval.check_regression(
        {"settle": {"speedup": 4.9}}, baseline, 0.9)
    assert [f.split(":")[0] for f in lenient] == \
        ["settle speedup below the 5x floor"]
    # The committed baseline passes against itself.
    committed = _PATH.parent / "BENCH_eval.json"
    assert bench_eval.check_regression(
        json.loads(committed.read_text()), committed, 0.25) == []
