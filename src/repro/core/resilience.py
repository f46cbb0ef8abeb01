"""Resilience bookkeeping for the hardened U-TRR pipeline.

Every hardened tool (Row Scout, TRR Analyzer, the inference driver)
counts the recovery work it performs — retried validation rounds,
quarantined rows, outlier-rejected observations, schedule
recalibrations — into these plain counter dataclasses.  The chaos
harness (:mod:`repro.eval.resilience`) reports them so a passing run
demonstrably *exercised* the fault handling rather than dodging it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class RowScoutStats:
    """Recovery work performed by one :class:`~repro.core.RowScout`."""

    scan_passes: int = 0
    rounds_validated: int = 0
    #: Validation rounds that failed once but were re-probed.
    round_retries: int = 0
    #: Retried rounds whose re-probe agreed with the failure (hard reject).
    rows_rejected: int = 0
    #: Rows whose flakiness score crossed the quarantine threshold.
    rows_quarantined: int = 0
    groups_formed: int = 0
    #: Groups replaced mid-run after going bad under an analyzer.
    groups_replaced: int = 0
    #: Full scan restarts after a fruitless T escalation.
    scan_restarts: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class AnalyzerStats:
    """Recovery work performed across TRR Analyzer experiments."""

    experiments: int = 0
    #: Extra experiment repetitions run for majority voting.
    vote_rounds: int = 0
    #: Individual row observations overruled by the majority.
    outliers_rejected: int = 0
    #: flipped-despite-covering-REF surprises (stale schedule suspects).
    schedule_violations: int = 0
    #: Apparent TRR hits rejected by the zero-REF decay probe (the row's
    #: retention drifted past its bucket, so survival proves nothing).
    hits_disavowed: int = 0
    #: Row groups re-validated after their behaviour shifted.
    groups_revalidated: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class PipelineStats:
    """Aggregated resilience counters for one full inference run."""

    rowscout: RowScoutStats = field(default_factory=RowScoutStats)
    analyzer: AnalyzerStats = field(default_factory=AnalyzerStats)
    recalibrations: int = 0
    #: Stages that degraded to a partial result instead of crashing.
    degraded_stages: int = 0

    def as_dict(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        merged.update({f"rowscout_{k}": v
                       for k, v in self.rowscout.as_dict().items()})
        merged.update({f"analyzer_{k}": v
                       for k, v in self.analyzer.as_dict().items()})
        merged["recalibrations"] = self.recalibrations
        merged["degraded_stages"] = self.degraded_stages
        return merged
