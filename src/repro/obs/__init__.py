"""repro.obs — observability for the U-TRR pipeline.

The paper's methodology treats the DDR command stream plus read-back
data as the *only* window into a module; this package turns that window
into auditable artifacts:

- :class:`TraceRecorder` — command-level JSONL traces (ACT/RD/WR/REF/
  WAIT with host timestamps and REF indices), streamed with bounded
  memory; :class:`NullRecorder` is the strict-no-op disabled path.
- :class:`MetricsRegistry` — counters and power-of-two histograms
  threaded through Row Scout, TRR Analyzer, the calibrator,
  inference, the attack executor, and the fault injector.
- :class:`SpanTracker` — nested wall-clock stage spans exported as a
  timeline.
- :func:`build_manifest` — the run manifest (seed, module, fault
  profile, scale, git describe) stamped into eval artifacts.
- :class:`StructuredLog` — key=value progress logging for the CLIs.
- ``python -m repro.obs.report trace.jsonl`` — trace summarizer and
  ledger cross-checker.
- ``python -m repro.obs.replay trace.jsonl`` — re-executes a schema-v2
  trace against a freshly built module and verifies clocks, per-read
  CRC digests, and the final ledger (record/replay verification).
- ``python -m repro.obs.diff a.jsonl b.jsonl`` — localizes the first
  divergence between two traces and summarizes downstream drift.
- ``python -m repro.obs.history store.jsonl --gate`` — append-only run
  history with a cross-run regression sentinel.
- ``python -m repro.obs.evidence sidecar.jsonl`` — inference
  provenance report: every accepted/rejected hypothesis, its evidence
  chain, and its commands-to-discovery budget.
- ``python -m repro.obs`` — a traced end-to-end inference smoke run.

Everything is stdlib + numpy only (numpy solely for the version stamp).

:class:`Observability` bundles one recorder + registry + tracker +
evidence ledger (+ an optional command profiler) and is what the rest
of the library passes around; ``NULL_OBS`` is the shared all-disabled
instance components fall back to, so instrumented code never branches
on "is observability on?".

The package exports the bundle and the instruments above.  Everything
else is imported from its own module — :mod:`.evidence`, :mod:`.live`,
:mod:`.history`, :mod:`.replay`, :mod:`.diff` — because several of
those double as ``python -m`` entry points, which the package must not
import (:mod:`.evidence` has a ``__main__`` shim, so the ledger may be).
"""

from __future__ import annotations

from .evidence import EvidenceLedger
from .manifest import MANIFEST_SCHEMA, build_manifest, git_describe
from .metrics import Histogram, MetricsRegistry, NullMetrics, bucket_bound
from .profile import CommandProfiler
from .recorder import (TRACE_VERSION, NullRecorder, TraceRecorder,
                       data_digest, mismatch_digest, read_trace,
                       replay_ledger)
from .spans import NullSpans, SpanTracker
from .structlog import StructuredLog


class NullEvidence:
    """Strict no-op provenance ledger, the evidence slot of
    :data:`NULL_OBS`: only the writers instrumented code calls
    unconditionally, since readers run on real ledgers only.
    """

    nodes: tuple = ()

    def decide(self, parameter, value=None, **kwargs) -> None:
        return None

    def merge(self, nodes, unit=None) -> None:
        return None


#: Shared disabled evidence ledger (the evidence slot of ``NULL_OBS``).
NULL_EVIDENCE = NullEvidence()


class Observability:
    """One run's observability bundle: recorder + metrics + spans +
    evidence, and a command profiler when one is attached.

    Every bundle but :data:`NULL_OBS` records metrics and evidence (the
    ledger decides off the command path, so it always records).  A host
    built on a bundle with a :class:`CommandProfiler` attaches it.

    Components reach the bundle through their host (``host.obs``, which
    is :data:`NULL_OBS` for an uninstrumented host); metrics, span and
    evidence calls are made unconditionally (no-ops when disabled),
    while the per-command host hot path additionally gates on
    ``recorder.enabled`` / ``metrics.enabled`` so the disabled path
    costs nothing.
    """

    def __init__(self, recorder=None, metrics=None, spans=None,
                 manifest: dict | None = None, profiler=None,
                 evidence=None) -> None:
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanTracker()
        #: Command-bus profiler, or None.
        self.profiler = profiler
        #: Provenance ledger: decision sites call it unconditionally.
        self.evidence = evidence if evidence is not None \
            else EvidenceLedger()
        self.manifest = manifest

    def span(self, name: str, **attrs):
        return self.spans.span(name, **attrs)

    def event(self, kind: str, ps: int = 0, **fields) -> None:
        """Record a pipeline-level event into the trace (if recording)."""
        if self.recorder.enabled:
            self.recorder.event(kind, ps=ps, **fields)

    def dump(self) -> dict:
        """What the bundle recorded that folds, as one plain dict.

        The keys are ``metrics`` and ``evidence``; each appears only
        when its instrument recorded something.  This is the form a
        work unit's instruments travel in: on its outcome and in its
        cache envelope.  The command profile is wall time, so it
        travels beside the dump and is never cached.
        """
        dump: dict = {}
        metrics = self.metrics.as_dict()
        if any(metrics.values()):
            dump["metrics"] = metrics
        if self.evidence.nodes:
            dump["evidence"] = self.evidence.dump()
        return dump

    def merge(self, dump: dict, unit: str | None = None) -> None:
        """Fold one :meth:`dump` into this bundle's instruments
        (evidence nodes stamped with *unit*).  Disabled instruments
        ignore their part."""
        if "metrics" in dump:
            self.metrics.merge(dump["metrics"])
        if "evidence" in dump:
            self.evidence.merge(dump["evidence"], unit=unit)

    def finalize(self, host=None) -> None:
        """Close the trace, stamping *host*'s ledger (its
        ``ledger()``) as the summary."""
        self.recorder.close(host.ledger() if host is not None else None)


#: Shared all-disabled bundle: the ``obs`` of every host built without
#: one, and so of every component driving it.  Never used for a host hot
#: path (hosts gate on each instrument's ``enabled``).
NULL_OBS = Observability(recorder=NullRecorder(), metrics=NullMetrics(),
                         spans=NullSpans(), evidence=NULL_EVIDENCE)


def traced(path, *, manifest: dict | None = None,
           flush_every: int = 1024) -> Observability:
    """Convenience: a bundle recording a command trace to *path*, with
    a span tracker (and, like every bundle, metrics and evidence)."""
    return Observability(
        recorder=TraceRecorder(path, meta=manifest,
                               flush_every=flush_every),
        manifest=manifest)


__all__ = [
    "CommandProfiler",
    "Histogram",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "NULL_EVIDENCE",
    "NULL_OBS",
    "NullEvidence",
    "NullMetrics",
    "NullRecorder",
    "NullSpans",
    "Observability",
    "SpanTracker",
    "StructuredLog",
    "TRACE_VERSION",
    "TraceRecorder",
    "bucket_bound",
    "build_manifest",
    "data_digest",
    "git_describe",
    "mismatch_digest",
    "read_trace",
    "replay_ledger",
    "traced",
]
