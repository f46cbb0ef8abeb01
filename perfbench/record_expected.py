"""Record the reference renders every benchmark run is checked against.

Usage: ``python3 perfbench/record_expected.py``

Renders table1, fig9 and fig10 at ``--scale quick`` for every module a
seed can draw, one module at a time, and writes them to
``perfbench/expected.json``.  A run compares each module's rows and
blocks with its solo render (``run.reference_misses``), so the check
holds for any seed and does not depend on earlier runs.  Rerun this only
for a change that is meant to alter the artifacts; the diff of
``expected.json`` then shows what it altered.  About six minutes on two
cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import run

ARTIFACTS = ("table1", "fig9", "fig10")


def drawable_modules() -> list[str]:
    """Seed 0's modules and every module of the seeded TRR versions."""
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from repro.vendors import modules_by_version
    from repro.vendors.spec import TrrVersion
    modules = set(run.SEED0_MODULES)
    for version in run.SEEDED_VERSIONS:
        modules.update(spec.module_id
                       for spec in modules_by_version(TrrVersion(version)))
    return sorted(modules)


def render(artifact: str, module: str) -> str:
    env = run.child_env()
    env["PYTHONPATH"] = os.path.join(run.ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.eval", artifact, "--modules", module,
         "--workers", "1", "--scale", "quick", "--quiet"],
        cwd=run.ROOT, env=env, capture_output=True, text=True,
        check=True).stdout


def main() -> int:
    jobs = [(artifact, module) for artifact in ARTIFACTS
            for module in drawable_modules()]
    with ThreadPoolExecutor(max_workers=2) as pool:
        texts = list(pool.map(lambda job: render(*job), jobs))
    expected: dict[str, dict[str, str]] = {name: {} for name in ARTIFACTS}
    for (artifact, module), text in zip(jobs, texts):
        expected[artifact][module] = text
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(jobs)} renders to {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
