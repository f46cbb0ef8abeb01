"""Artifact benchmark: U-TRR Table 1 and the Figure 9/10 sweeps, end to end.

Usage::

    python3 perfbench/run.py --workload table1_quick --seed 0 \\
        --seconds 10 --trace 0

Each workload runs the user-facing CLI (``python -m repro.eval`` at
``--scale quick``) in fresh interpreters (see ``passrun.py``) and checks
every output.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs one untraced and one traced pass and reports the per-layer
ledger.  The last line of stdout is the JSON result; the exit code is 1
when any correctness check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(HERE, ".state")
#: Reference renders, one per artifact and module (``record_expected.py``).
EXPECTED = os.path.join(HERE, "expected.json")

#: Module set of seed 0: one module per vendor's first TRR version.
SEED0_MODULES = ("A5", "B0", "C7")
#: Other seeds draw one module from each of these TRR versions.
SEEDED_VERSIONS = ("A_TRR1", "B_TRR1", "C_TRR1")

#: Workload -> (worker count, CLI steps).  ``{store}`` is filled in per
#: pass with a fresh, empty directory.
WORKLOADS = {
    "table1_quick": (1, [["table1", "--workers", "1"]]),
    "fig9_quick": (1, [["fig9", "--workers", "1"]]),
    "fig9_pool_cache": (2, [["fig9", "--workers", "2", "--cache", "{store}"],
                            ["fig10", "--workers", "2", "--cache",
                             "{store}"]]),
}

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_REPEATS = 5
#: Every child must end by then, so a run exits within 180 s.
DEADLINE_S = 170.0

#: Table 1 columns holding an inferred value, by implanted parameter.
TABLE1_COLUMNS = {"kind": "detection", "trr_ref_period": "TRR/REF",
                  "table_size": "capacity", "per_bank": "per-bank",
                  "neighbor_radius": "neighbors"}


def pick_modules(seed: int) -> list[str]:
    if seed == 0:
        return list(SEED0_MODULES)
    from repro.vendors import modules_by_version
    from repro.vendors.spec import TrrVersion
    rng = random.Random(seed)
    return [rng.choice(modules_by_version(TrrVersion(version))).module_id
            for version in SEEDED_VERSIONS]


def child_env() -> dict:
    """The caller's environment without any ``REPRO_*`` switch, so only
    the default payload mode and no ambient cache is measured."""
    return {name: value for name, value in os.environ.items()
            if not name.startswith("REPRO_")}


def start_child(spec: dict, workdir: str, tag: str):
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    result_path = os.path.join(workdir, f"{tag}.result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "passrun.py"), spec_path,
         result_path], cwd=ROOT, env=child_env(), start_new_session=True)
    return proc, result_path


def finish_child(proc, result_path: str, started: float):
    """Wait for *proc*; at the run deadline its process group is killed.

    The wait blocks (a timed ``Popen.wait`` polls in steps of up to
    50 ms, which would quantize ``setup_s``); a timer enforces the
    deadline instead.
    """
    expired = threading.Event()

    def kill() -> None:
        expired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    timer = threading.Timer(
        max(DEADLINE_S - (perf_counter() - started), 1.0), kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if expired.is_set():
        raise RuntimeError("pass did not finish before the run deadline")
    if code != 0:
        raise RuntimeError(f"pass exited with code {code}")
    if not os.path.exists(result_path):
        return None
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def pass_spec(workload: str, modules: list[str], workdir: str, tag: str,
              trace: bool) -> dict:
    store = os.path.join(workdir, f"{tag}.store")
    unit_dir = os.path.join(workdir, f"{tag}.units")
    if trace:
        os.makedirs(unit_dir)
    steps = []
    for step in WORKLOADS[workload][1]:
        argv = [arg.replace("{store}", store) for arg in step]
        steps.append(argv + ["--modules", ",".join(modules),
                             "--scale", "quick", "--quiet"])
    uses_store = any("--cache" in step for step in steps)
    return {"root": ROOT, "modules": modules, "steps": steps,
            "trace": trace, "unit_dir": unit_dir,
            "store": store if uses_store else None}


def time_setup(modules: list[str], workdir: str, started: float) -> float:
    """Median wall of fresh interpreters that import the CLI and resolve
    the modules, i.e. what every pass pays before its first step."""
    walls = []
    for index in range(SETUP_REPEATS):
        spec = {"root": ROOT, "modules": modules, "setup_only": True}
        begin = perf_counter()
        proc, path = start_child(spec, workdir, f"setup{index}")
        finish_child(proc, path, started)
        walls.append(perf_counter() - begin)
    return statistics.median(walls)


# -- correctness --------------------------------------------------------------

def parse_table(text: str) -> list[dict]:
    """Rows of a rendered ``render_table`` artifact, keyed by header."""
    lines = [line for line in text.splitlines() if " | " in line]
    headers = [cell.strip() for cell in lines[0].split("|")]
    return [dict(zip(headers, (cell.strip() for cell in line.split("|"))))
            for line in lines[1:]]


def table1_params(text: str) -> tuple[int, int, list[str]]:
    """(matching, checked, modules not recovered) of a Table 1 render."""
    from repro.vendors import get_module
    matching = checked = 0
    missed = []
    for row in parse_table(text):
        if row["recovered"] != "yes":
            missed.append(row["module"])
        params = get_module(row["module"]).trr_parameters()
        for name, column in TABLE1_COLUMNS.items():
            if name not in params:
                continue
            expected = params[name]
            if name == "trr_ref_period":
                expected = f"1/{expected}"
            elif name == "neighbor_radius":
                expected = 2 * expected
            checked += 1
            matching += row[column] == str(expected)
    return matching, checked, missed


def canonical(text: str, modules: list[str]) -> list[tuple[str | None, str]]:
    """The lines of an artifact render as ``(owner, line)``.

    The owner is the module whose table row or block (a line starting
    with the module id, up to the next blank line) holds the line, else
    None.  Cells are stripped and table rules dropped, because column
    widths depend on the other modules of the render.
    """
    lines = []
    owner = None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            owner = None
        elif " | " in line:
            cells = [cell.strip() for cell in line.split(" | ")]
            lines.append((cells[0] if cells[0] in modules else owner,
                          " | ".join(cells)))
        elif stripped.strip("-+"):
            if stripped.split()[0] in modules:
                owner = stripped.split()[0]
            lines.append((owner, stripped))
    return lines


def reference_misses(text: str, solos: dict[str, str],
                     modules: list[str]) -> list[str]:
    """Modules of *text* whose lines differ from their lines in *solos*,
    the reference render of each module alone.

    A module without a reference is a miss.  Lines shared by the whole
    render (title, headers, set-wide summaries) must each equal the same
    line of some module's solo render; otherwise every module misses.
    """
    lines = canonical(text, modules)
    frame = [line for owner, line in lines if owner is None]
    misses = []
    frames = []
    for module in modules:
        if module not in solos:
            misses.append(module)
            continue
        solo = canonical(solos[module], [module])
        frames.append([line for owner, line in solo if owner is None])
        if ([line for owner, line in lines if owner == module]
                != [line for owner, line in solo if owner == module]):
            misses.append(module)
    if not frames or any(len(other) != len(frame) for other in frames) or any(
            all(other[index] != line for other in frames)
            for index, line in enumerate(frame)):
        return list(modules)
    return misses


def warm_pass_ok(cold: dict, warm: dict) -> bool:
    """The warm step served every unit from the store and executed none:
    it published nothing (no new or rewritten object) and touched every
    object it looked up (a hit refreshes the object's mtime)."""
    if set(cold) != set(warm) or not cold:
        return False
    return all(warm[path][:2] == cold[path][:2]
               and warm[path][2] > cold[path][2] for path in cold)


class Checks:
    """Module units attempted and failed across a run.

    A unit is one module in one step of one pass.  It fails at most
    once, however many checks it misses.
    """

    def __init__(self, workload: str, modules: list[str]) -> None:
        self.workload = workload
        self.modules = modules
        with open(EXPECTED, encoding="utf-8") as handle:
            self.expected = json.load(handle)
        self.attempted = 0
        self.failed: set[tuple[str, int, str]] = set()
        self.notes: list[str] = []
        #: Step index -> the text its first pass rendered.
        self.texts: dict[int, str] = {}

    def fail(self, label: str, index: int, modules: list[str],
             note: str) -> None:
        self.failed.update((label, index, module) for module in modules)
        self.notes.append(f"{label} step {index}: {note}")

    def step(self, step: dict, label: str, index: int) -> None:
        artifact = step["argv"][0]
        if step["error"] is not None:
            self.fail(label, index, self.modules,
                      f"{artifact} raised:\n{step['error']}")
            return
        text = step["stdout"]
        if self.texts.setdefault(index, text) != text:
            self.fail(label, index, self.modules,
                      f"{artifact} differs from an earlier pass of this run")
        misses = reference_misses(text, self.expected[artifact], self.modules)
        if misses:
            self.fail(label, index, misses,
                      f"{artifact} differs from expected.json for {misses}")
        if artifact == "table1":
            _, _, missed = table1_params(text)
            if missed:
                self.fail(label, index, missed, f"not recovered: {missed}")

    def passes(self, result: dict | None, label: str) -> None:
        steps = result["steps"] if result else []
        planned = len(WORKLOADS[self.workload][1])
        self.attempted += planned * len(self.modules)
        for index, step in enumerate(steps):
            self.step(step, label, index)
        for index in range(len(steps), planned):
            self.fail(label, index, self.modules, "never ran")
        # Only fig9_pool_cache has a second step: the warm pass over the
        # store its first step filled.
        if len(steps) == 2 and not steps[1]["error"] and not warm_pass_ok(
                steps[0]["store"], steps[1]["store"]):
            self.fail(label, 1, self.modules,
                      f"warm {steps[1]['argv'][0]} executed units or missed")


# -- the two kinds of run -----------------------------------------------------

def end_to_end(args, modules, workdir, checks, started) -> dict:
    setup_s = time_setup(modules, workdir, started)
    results = []
    begin = perf_counter()
    while not results or perf_counter() - begin < args.seconds:
        tag = f"pass{len(results)}"
        spec = pass_spec(args.workload, modules, workdir, tag, False)
        result = finish_child(*start_child(spec, workdir, tag), started)
        checks.passes(result, tag)
        results.append(result)
    params = 1.0
    first = results[0]["steps"][0] if results[0]["steps"] else None
    if args.workload == "table1_quick" and first and not first["error"]:
        matching, checked, _ = table1_params(first["stdout"])
        params = matching / checked if checked else 0.0
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                          for r in results), "MiB"),
        "params_recovered": (params, "fraction"),
        "ok_frac": (1 - len(checks.failed) / checks.attempted, "fraction"),
    }


def traced(args, modules, workdir, checks, started, workers, nproc) -> dict:
    """One untraced and one traced pass of the same inputs.  They run
    side by side when the cores allow, else one after the other."""
    import tracer as tracing
    side_by_side = nproc >= 2 * workers
    plain_spec = pass_spec(args.workload, modules, workdir, "plain", False)
    traced_spec = pass_spec(args.workload, modules, workdir, "traced", True)
    if side_by_side:
        children = [start_child(plain_spec, workdir, "plain"),
                    start_child(traced_spec, workdir, "traced")]
        try:
            plain, trace = [finish_child(proc, path, started)
                            for proc, path in children]
        finally:
            for proc, _ in children:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
    else:
        plain = finish_child(*start_child(plain_spec, workdir, "plain"),
                             started)
        trace = finish_child(*start_child(traced_spec, workdir, "traced"),
                             started)
    checks.passes(plain, "untraced")
    checks.passes(trace, "traced")
    unit_dir = traced_spec["unit_dir"]
    worker_dumps = []
    for name in sorted(os.listdir(unit_dir)):
        with open(os.path.join(unit_dir, name), encoding="utf-8") as handle:
            worker_dumps.append(json.load(handle))
    dump = trace["trace"]
    print(tracing.render_tree(dump, worker_dumps))
    os.makedirs(STATE, exist_ok=True)
    with open(os.path.join(STATE, f"trace-{args.workload}-{args.seed}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"harness": dump, "workers": worker_dumps}, handle)
    metrics = tracing.layer_metrics(
        dump, worker_dumps, traced_wall=trace["wall_s"],
        untraced_wall=plain["wall_s"],
        step_walls=[step["wall_s"] for step in trace["steps"]],
        pooled=workers > 1, parallel_ok=workers >= 2 and nproc >= 2)
    root_s = dump["tree"]["total"]
    mode = "side by side" if side_by_side else "in turn"
    print(f"traced wall {trace['wall_s']:.3f} s, untraced wall "
          f"{plain['wall_s']:.3f} s ({mode}); unexplained "
          f"{(1 - metrics['trace.coverage'][0]) * root_s:.3f} s of "
          f"{root_s:.3f} s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="keep running passes until this much time "
                             "has been measured (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    modules = pick_modules(args.seed)
    workers = WORKLOADS[args.workload][0]
    nproc = os.cpu_count() or 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "modules": modules, "workers": workers,
                      "nproc": nproc, "trace": args.trace,
                      "parallel_metrics": workers >= 2 and nproc >= 2}))
    sys.stdout.flush()
    os.makedirs(STATE, exist_ok=True)
    checks = Checks(args.workload, modules)
    workdir = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        if args.trace:
            metrics = traced(args, modules, workdir, checks, started,
                             workers, nproc)
        else:
            metrics = end_to_end(args, modules, workdir, checks, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in checks.notes:
        print(f"CHECK FAILED: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
