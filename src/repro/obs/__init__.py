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

:class:`Observability` bundles one recorder + registry + tracker and is
what the rest of the library passes around; ``NULL_OBS`` is the shared
all-disabled instance components fall back to, so instrumented code
never branches on "is observability on?".

The package exports the bundle and the instruments above.  Everything
else is imported from its own module — :mod:`.evidence`, :mod:`.live`,
:mod:`.history`, :mod:`.replay`, :mod:`.diff` — because several of
those double as ``python -m`` entry points, which the package must not
import.
"""

from __future__ import annotations

from .manifest import MANIFEST_SCHEMA, build_manifest, git_describe
from .metrics import Histogram, MetricsRegistry, NullMetrics, bucket_bound
from .profile import CommandProfiler, NullProfiler
from .recorder import (TRACE_VERSION, NullRecorder, TraceRecorder,
                       data_digest, mismatch_digest, read_trace,
                       replay_ledger)
from .spans import NullSpans, SpanTracker
from .structlog import StructuredLog


class NullEvidence:
    """Strict no-op provenance ledger: the disabled path for
    :class:`~repro.obs.evidence.EvidenceLedger`.

    Lives here (not in :mod:`.evidence`) so building ``NULL_OBS`` at
    package import never pulls in the evidence module.  It keeps only
    the writers instrumented code calls unconditionally; readers
    (``dump``, ``summary``, ``emit_metrics``) run on real ledgers only.
    """

    enabled = False
    nodes: tuple = ()

    def decide(self, parameter, value=None, **kwargs) -> None:
        return None

    def merge(self, other, unit=None) -> None:
        return None


#: Shared disabled evidence ledger (the default ``evidence`` slot).
NULL_EVIDENCE = NullEvidence()


class Observability:
    """One run's observability bundle: recorder + metrics + spans.

    Components reach the bundle through their host (``host.obs``, which
    is :data:`NULL_OBS` for an uninstrumented host); metrics and span
    calls are made unconditionally (no-ops when disabled), while the
    per-command host hot path additionally gates on
    ``recorder.enabled`` / ``metrics.enabled`` so the disabled path
    costs nothing.
    """

    def __init__(self, recorder=None, metrics=None, spans=None,
                 manifest: dict | None = None, profiler=None,
                 evidence=None) -> None:
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanTracker()
        #: Command-bus profiler (opt-in: defaults to the null profiler
        #: so the host hot path keeps its single identity check).
        self.profiler = profiler if profiler is not None \
            else NullProfiler()
        #: Provenance ledger (opt-in: decision sites call it
        #: unconditionally, the null ledger records nothing).
        self.evidence = evidence if evidence is not None \
            else NULL_EVIDENCE
        self.manifest = manifest

    @classmethod
    def build(cls, instruments=(), *, spans: bool = False,
              recorder=None, manifest: dict | None = None
              ) -> "Observability":
        """A fresh bundle recording the named optional *instruments*.

        *instruments* holds names from :attr:`instruments`
        (``"evidence"``, ``"profile"``).  The bundle always has a
        metrics registry; a span tracker with *spans*; a command
        profiler and an evidence ledger when named.
        """
        ledger = None
        if "evidence" in instruments:
            from .evidence import EvidenceLedger
            ledger = EvidenceLedger()
        return cls(recorder=recorder, metrics=MetricsRegistry(),
                   spans=SpanTracker() if spans else NullSpans(),
                   manifest=manifest,
                   profiler=(CommandProfiler()
                             if "profile" in instruments else None),
                   evidence=ledger)

    @property
    def instruments(self) -> tuple[str, ...]:
        """Sorted names of the optional instruments this bundle
        records: what a work unit must record for it, and what a cached
        unit's key names."""
        return tuple(name for name, instrument
                     in (("evidence", self.evidence),
                         ("profile", self.profiler))
                     if instrument.enabled)

    def span(self, name: str, **attrs):
        return self.spans.span(name, **attrs)

    def event(self, kind: str, ps: int = 0, **fields) -> None:
        """Record a pipeline-level event into the trace (if recording)."""
        if self.recorder.enabled:
            self.recorder.event(kind, ps=ps, **fields)

    def dump(self) -> dict:
        """What the bundle recorded that folds, as one plain dict.

        The keys are ``metrics``, ``profile`` and ``evidence``; each
        appears only when its instrument recorded something.  This is
        the form a work unit's instruments travel in: on its outcome
        and in its cache envelope.
        """
        dump: dict = {}
        metrics = self.metrics.as_dict()
        if any(metrics.values()):
            dump["metrics"] = metrics
        if self.profiler.commands:
            dump["profile"] = self.profiler.as_dict()
        if self.evidence.nodes:
            dump["evidence"] = self.evidence.dump()
        return dump

    def merge(self, dump: dict, unit: str | None = None) -> None:
        """Fold one :meth:`dump` into this bundle's instruments
        (evidence nodes stamped with *unit*).  Disabled instruments
        ignore their part."""
        if "metrics" in dump:
            self.metrics.merge(dump["metrics"])
        if "profile" in dump:
            self.profiler.merge(dump["profile"])
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
                         spans=NullSpans(), profiler=NullProfiler())


def traced(path, *, manifest: dict | None = None,
           flush_every: int = 1024,
           profile: bool = False,
           evidence: bool = False) -> Observability:
    """Convenience: a fully-enabled bundle recording to *path*.

    ``profile=True`` additionally attaches a :class:`CommandProfiler`
    (per-opcode wall-time attribution on the host hot path);
    ``evidence=True`` attaches an
    :class:`~repro.obs.evidence.EvidenceLedger` capturing inference
    provenance.
    """
    instruments = [name for name, wanted
                   in (("evidence", evidence), ("profile", profile))
                   if wanted]
    return Observability.build(
        instruments, spans=True, manifest=manifest,
        recorder=TraceRecorder(path, meta=manifest,
                               flush_every=flush_every))


__all__ = [
    "CommandProfiler",
    "Histogram",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "NULL_EVIDENCE",
    "NULL_OBS",
    "NullEvidence",
    "NullMetrics",
    "NullProfiler",
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
