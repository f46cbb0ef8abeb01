"""One pass of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/passrun.py SPEC.json RESULT.json``

*SPEC* names the repository root, the modules to resolve, and the CLI
steps to run (each an argv for ``repro.eval.__main__.main``).  With
``setup_only`` the pass stops after the set-up every pass pays: import
the CLI (and with it numpy) and resolve the modules.  Otherwise it runs
each step with stdout captured and writes, per step, the wall time, the
captured artifact text and a snapshot of the result store's objects;
then the pass's peak RSS (its own or its pool workers', whichever is
larger).  With ``trace`` the layer wrappers of :mod:`tracer` are
installed first and the span trees are written with the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def store_snapshot(store: str | None) -> dict:
    """``relative path -> [inode, size, mtime_ns]`` of every object."""
    if store is None:
        return {}
    snapshot = {}
    for folder, _, files in os.walk(store):
        for name in files:
            path = os.path.join(folder, name)
            info = os.stat(path)
            snapshot[os.path.relpath(path, store)] = [
                info.st_ino, info.st_size, info.st_mtime_ns]
    return snapshot


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import repro.eval.__main__ as cli
    from repro.vendors import get_module
    for module_id in spec["modules"]:
        get_module(module_id)
    if spec.get("setup_only"):
        return 0

    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, spec["unit_dir"])
        tracer.reset("harness")
    steps = []
    for index, argv in enumerate(spec["steps"]):
        if tracer is not None:
            tracer.step = index
        out = io.StringIO()
        error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if code != 0:
                error = f"exit code {code}"
        except Exception:  # noqa: BLE001 — reported as a failed step
            error = traceback.format_exc()
        wall = perf_counter() - start
        steps.append({"argv": argv, "wall_s": wall,
                      "stdout": out.getvalue(), "error": error,
                      "store": store_snapshot(spec.get("store"))})
        if error is not None:
            break
    result = {
        "steps": steps,
        "wall_s": sum(step["wall_s"] for step in steps),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024,
        "trace": tracer.dump() if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
