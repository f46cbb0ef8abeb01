"""Traced end-to-end inference: ``python -m repro.obs --module B0``.

Builds one registry module, runs the full reverse-engineering pipeline
with every observability layer enabled, and writes the run's artifacts
into ``--out``:

- ``trace.jsonl``    — the command-level trace (with ledger summary),
- ``metrics.json``   — the metrics registry dump,
- ``spans.json``     — the stage-span timeline,
- ``manifest.json``  — the run manifest,
- ``evidence.jsonl`` — the inference-provenance sidecar (decision
  nodes + commands-to-discovery).

It then replays the trace, cross-checks it against the host ledger, and
prints the trace report; a mismatch (or an unrecovered profile) exits
non-zero.  CI runs this as the observability smoke job.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import build_manifest, traced
from .history import RunHistory
from .report import render_report, summarize
from .recorder import read_trace


def run_traced_inference(module_id: str, out_dir, seed: int = 0,
                         fault_profile: str | None = None,
                         config=None) -> dict:
    """One fully traced inference run; returns a result dict."""
    from ..core import REDUCED_INFERENCE, TrrInference
    from ..faults import FaultInjector
    from ..rng import derive_seed
    from ..softmc import SoftMCHost
    from ..vendors import build_module, get_module

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = get_module(module_id)
    # The chip recipe and derived fault seed go into the manifest so a
    # recorded trace is self-describing: ``repro.obs.replay`` rebuilds
    # the exact same module (and injector) from the header alone.
    chip_kwargs = dict(rows_per_bank=8192, row_bits=1024,
                       weak_cells_per_row_mean=2.0, vrt_fraction=0.0)
    fault_seed = derive_seed("obs-smoke", seed, module_id)
    manifest = build_manifest(
        seed=seed, module=module_id,
        fault_profile=fault_profile or "none",
        scale="smoke", chip=dict(chip_kwargs), fault_seed=fault_seed)
    obs = traced(out / "trace.jsonl", manifest=manifest)

    chip = build_module(spec, **chip_kwargs)
    faults = None
    if fault_profile:
        faults = FaultInjector(fault_profile, seed=fault_seed)
    host = SoftMCHost(chip, faults=faults, obs=obs)
    inference = TrrInference(host, config or REDUCED_INFERENCE)
    profile = inference.run()
    obs.finalize(host)

    # Evidence metrics fold in before the registry dump so the sidecar
    # and metrics.json agree on the commands-to-discovery totals.
    obs.evidence.emit_metrics(obs.metrics)
    from .evidence import write_evidence
    write_evidence(out / "evidence.jsonl", obs.evidence,
                   meta={"module": module_id, "seed": seed})
    (out / "metrics.json").write_text(
        json.dumps(obs.metrics.as_dict(), indent=2), encoding="utf-8")
    (out / "spans.json").write_text(
        json.dumps(obs.spans.as_timeline(), indent=2), encoding="utf-8")
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2), encoding="utf-8")

    report = summarize(read_trace(out / "trace.jsonl"))
    return {"spec": spec, "profile": profile, "report": report,
            "obs": obs, "host": host, "out": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run one fully traced inference end-to-end and write "
                    "trace/metrics/spans/manifest artifacts.")
    parser.add_argument("--module", default="B0",
                        help="registry module id (default B0)")
    parser.add_argument("--out", default="obs-artifacts",
                        help="artifact output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--faults", default=None,
                        help="optional fault profile for a chaos-traced run")
    parser.add_argument("--history", default=None, metavar="PATH",
                        help="append this run (manifest, metrics, span "
                             "wall-clocks) to a run-history store")
    args = parser.parse_args(argv)

    started = time.time()
    result = run_traced_inference(args.module, args.out, seed=args.seed,
                                  fault_profile=args.faults)
    report = result["report"]
    print(render_report(report))
    print()
    print(f"profile: {result['profile'].summary()}")
    print(f"artifacts: {result['out']}")
    evidence = result["obs"].evidence.summary()
    print(f"evidence: {evidence['decisions']} decision(s), "
          f"{evidence['accepted']} accepted, "
          f"{evidence['commands']} command(s) attributed, "
          f"{evidence['empty_chains']} empty chain(s)")
    if args.history:
        obs = result["obs"]
        RunHistory(args.history).record(
            "obs.smoke", manifest=obs.manifest, metrics=obs.metrics,
            spans=obs.spans, wall_s=time.time() - started)
    if not report.ledger_ok:
        print("ERROR: trace does not replay to the host ledger",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
