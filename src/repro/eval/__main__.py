"""Command-line entry point: ``python -m repro.eval <artifact>``.

Artifacts: table1, fig8, fig9, fig10, ablations, survey, resilience.
``--modules`` selects specific Table 1 modules (default: one
representative per TRR version; pass ``--modules all`` for the full
45-module run).  ``resilience`` runs the chaos harness: hardened
inference under injected faults (``--faults`` picks the fault profile).

``--workers N`` shards module-level work units over N processes through
:mod:`repro.parallel` (default: one per CPU); ``--workers 1`` runs each
unit in this process through the pool's executor, with the pool's retry
and quarantine and a per-unit registry folded in submission order.
Artifact bytes are identical for any worker count.

Rendered artifacts go to **stdout** and are deterministic for a given
artifact/scale/module selection; progress and timing go to **stderr**
as structured ``key=value`` lines (suppressed entirely by ``--quiet``),
each stamped with a monotonic ``elapsed_ms`` so long sweeps show
per-event latency in place.

``--history PATH`` appends one row per run (manifest, flattened
metrics, span wall-clocks, and — with ``--profile`` — per-opcode
command-bus attribution) to an append-only run-history store; gate it
across runs with ``python -m repro.obs.history PATH --gate``.

``--telemetry DIR`` publishes per-unit progress events (start,
heartbeats, done) into a spool directory of JSONL files, readable with
:func:`repro.obs.live.read_spool`; ``--stall-deadline S`` (with
``--workers 2`` or more) arms the watchdog that flags units whose
command counters stop advancing.  ``--profile`` attributes the wall
time of the host commands the run executes (none for cache hits) per
DDR opcode and prints the attribution table to stderr.  All three are
side channels: artifact bytes on stdout are unaffected.

Every run records its inference-provenance ledger — every
accepted/rejected/degraded decision with its supporting observations
and commands-to-discovery stamps.  ``--evidence PATH`` writes it as a
JSONL sidecar at PATH (query it with ``python -m repro.obs.evidence``)
and adds its ``evidence.*`` counters to the run's metrics.  The ledger
folds in unit submission order, so the sidecar is byte-identical for
any worker count and on warm cache replays, whichever flags wrote the
store.

``--cache DIR`` (default: the ``REPRO_CACHE`` environment variable)
serves work units from a content-addressed result store and publishes
fresh results into it, so re-running an identical sweep — including
resuming one that was killed mid-run (``--resume`` is the explicit
alias) — skips every already-computed unit.  Artifact bytes, folded
metrics, and history metrics are identical with or without the cache.
``--no-cache`` overrides the environment default; ``--cache-verify``
re-executes one sampled hit per run and fails loudly if the stored
envelope diverges.  Maintain stores with ``python -m repro.cache``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ..cache import ResultCache
from ..obs import (CommandProfiler, Observability, StructuredLog,
                   build_manifest)
from ..obs.history import RunHistory
from ..obs.live import TelemetryConfig
from ..parallel import default_workers
from ..vendors import all_modules
from . import (REPRESENTATIVE_MODULES, TABLE1_REPRESENTATIVES, get_scale,
               run_ablations, run_fig8_many, run_fig9, run_fig10,
               run_table1)
from .fig8 import SWEEPS


def _module_ids(argument: str | None, default: tuple[str, ...]) -> list[str]:
    if argument is None:
        return list(default)
    if argument == "all":
        return [spec.module_id for spec in all_modules()]
    return argument.split(",")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.eval")
    parser.add_argument("artifact",
                        choices=["table1", "fig8", "fig9", "fig10",
                                 "ablations", "survey", "resilience"])
    parser.add_argument("--modules", default=None,
                        help="comma-separated module ids, or 'all'")
    parser.add_argument("--scale", default="standard",
                        choices=["standard", "quick"])
    parser.add_argument("--faults", default="default",
                        help="fault profile for the resilience artifact")
    parser.add_argument("--workers", type=int, default=default_workers(),
                        help="process-pool width for module-level work "
                             "units (default: CPU count; 1 = run each "
                             "unit in this process, same executor)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress/timing output on stderr "
                             "(stdout artifact bytes are unaffected)")
    parser.add_argument("--history", default=None, metavar="PATH",
                        help="append this run (manifest, metrics, span "
                             "wall-clocks) to a run-history store")
    parser.add_argument("--telemetry", default=None, metavar="DIR",
                        help="publish per-unit progress events into "
                             "this spool directory (JSONL, one file per "
                             "unit)")
    parser.add_argument("--telemetry-interval", type=float, default=1.0,
                        metavar="S", help="heartbeat period in seconds "
                                          "(default 1.0)")
    parser.add_argument("--stall-deadline", type=float, default=None,
                        metavar="S",
                        help="flag units whose command counters do not "
                             "advance within S seconds (requires "
                             "--telemetry and --workers 2 or more)")
    parser.add_argument("--profile", action="store_true",
                        help="attribute the wall time of executed host "
                             "commands per DDR opcode; table goes to "
                             "stderr, totals to --history")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="serve units from (and publish into) a "
                             "content-addressed result store (default: "
                             "$REPRO_CACHE when set)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache even when "
                             "$REPRO_CACHE is set")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted sweep from its "
                             "cache (explicit alias: requires --cache "
                             "or $REPRO_CACHE)")
    parser.add_argument("--cache-verify", action="store_true",
                        help="re-execute one sampled cache hit and "
                             "fail if its stored envelope diverges")
    parser.add_argument("--evidence", default=None, metavar="PATH",
                        help="write the inference-provenance ledger "
                             "(decision nodes + commands-to-discovery) "
                             "as a JSONL sidecar at PATH")
    args = parser.parse_args(argv)
    scale = get_scale(args.scale)
    workers = args.workers
    log = StructuredLog(enabled=not args.quiet, elapsed=True)
    if args.stall_deadline is not None:
        if not args.telemetry:
            parser.error("--stall-deadline requires --telemetry")
        if workers == 1:
            # Each unit runs on this thread, so nothing would ever scan
            # the spool for stalls.
            parser.error("--stall-deadline requires --workers 2 or more")
    telemetry = None
    if args.telemetry:
        telemetry = TelemetryConfig(
            spool=args.telemetry, run_id=f"eval.{args.artifact}",
            interval_s=args.telemetry_interval,
            stall_deadline_s=args.stall_deadline)
        log.info("telemetry-enabled", spool=args.telemetry,
                 interval_s=args.telemetry_interval,
                 stall_deadline_s=args.stall_deadline or "off")
    cache_dir = args.cache or os.environ.get("REPRO_CACHE") or None
    if args.no_cache:
        cache_dir = None
    if args.resume and cache_dir is None:
        parser.error("--resume requires --cache DIR (or $REPRO_CACHE): "
                     "resuming replays completed units from the result "
                     "store, so there must be one to resume from")
    if args.cache_verify and cache_dir is None:
        parser.error("--cache-verify requires --cache DIR "
                     "(or $REPRO_CACHE)")
    cache = None
    if cache_dir is not None:
        cache = ResultCache(cache_dir, verify=args.cache_verify)
        log.info("cache-enabled", store=cache_dir,
                 resume=args.resume or False,
                 verify=args.cache_verify or False)
    if args.evidence:
        log.info("evidence-enabled", sidecar=args.evidence)
    obs = Observability(
        profiler=CommandProfiler() if args.profile else None)
    manifest = build_manifest(scale=scale.name, artifact=args.artifact,
                              include_time=False)
    log.info("run-start", artifact=args.artifact, scale=scale.name,
             modules=args.modules or "default", workers=workers,
             git=manifest["git"])

    # The keyword arguments every harness forwards to run_units.
    engine = dict(workers=workers, log=log, obs=obs,
                  telemetry=telemetry, cache=cache)
    started = time.time()
    with obs.span(args.artifact, scale=scale.name, workers=workers):
        if args.artifact == "resilience":
            from .resilience import RESILIENCE_MODULES, run_resilience
            result = run_resilience(_module_ids(args.modules,
                                                RESILIENCE_MODULES),
                                    fault_profile=args.faults, **engine)
            print(result.render())
        elif args.artifact == "survey":
            from .survey import run_survey
            result = run_survey(_module_ids(args.modules,
                                            TABLE1_REPRESENTATIVES), scale,
                                **engine)
            print(result.render())
        elif args.artifact == "table1":
            result = run_table1(_module_ids(args.modules,
                                            TABLE1_REPRESENTATIVES), scale,
                                **engine)
            print(result.render())
        elif args.artifact == "fig8":
            module_ids = _module_ids(args.modules, tuple(SWEEPS))
            for result in run_fig8_many(module_ids, scale, **engine):
                print(result.render())
                print()
        elif args.artifact == "fig9":
            result = run_fig9(_module_ids(args.modules,
                                          REPRESENTATIVE_MODULES), scale,
                              **engine)
            print(result.render())
        elif args.artifact == "fig10":
            result = run_fig10(_module_ids(args.modules,
                                           REPRESENTATIVE_MODULES), scale,
                               **engine)
            print(result.render())
        else:
            results = run_ablations(scale, **engine)
            print("\n\n".join(result.render() for result in results))
    wall = time.time() - started
    log.info("run-done", artifact=args.artifact, scale=scale.name,
             workers=workers, seconds=round(wall, 1))
    if cache is not None:
        summary = cache.summary()
        log.info("cache-summary", **summary)
    if args.profile and not args.quiet:
        sys.stderr.write("command-bus profile:\n"
                         + obs.profiler.render() + "\n")
    if args.evidence:
        # Fold the provenance counters into the registry *before* the
        # history row is recorded so the sidecar and the history agree
        # on the commands-to-discovery totals.
        from ..obs.evidence import write_evidence
        obs.evidence.emit_metrics(obs.metrics)
        write_evidence(args.evidence, obs.evidence,
                       meta={"artifact": args.artifact,
                             "scale": scale.name,
                             "modules": args.modules or "default"})
        log.info("evidence-written", sidecar=args.evidence,
                 **obs.evidence.summary())
    if args.history:
        row_manifest = build_manifest(
            scale=scale.name, artifact=args.artifact,
            modules=args.modules or "default", workers=workers)
        # Cache accounting rides in ``extra`` — outside the fields the
        # history gate compares, so warm and cold rows gate alike.
        RunHistory(args.history).record(
            f"eval.{args.artifact}", manifest=row_manifest,
            metrics=obs.metrics, spans=obs.spans, wall_s=wall,
            profile=obs.profiler,
            extra={"cache": cache.summary()} if cache else None)
        log.info("history-recorded", store=args.history,
                 kind=f"eval.{args.artifact}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
