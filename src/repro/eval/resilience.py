"""Chaos harness: full inference under injected faults.

For each representative module (one per vendor) this builds the chip,
wraps its SoftMC host in a seeded :class:`~repro.faults.FaultInjector`,
and runs :data:`~repro.core.HARDENED_INFERENCE` (the reduced effort
knobs with the one ``hardened`` switch on).  A module counts as
recovered when the inferred profile still matches the mechanism's
implanted ground truth — detection kind, TRR-to-REF period and
aggressor capacity — despite the injected VRT storms, temperature
drift, readback noise, command drops/duplicates and stale retention
scales.

The report includes the injector's per-family fault counters *and* the
pipeline's recovery-work counters (retries, quarantines, rejected
outliers, recalibrations): a passing run demonstrably exercised the
fault handling rather than dodging it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import (HARDENED_INFERENCE, InferenceConfig,
                    InferredTrrProfile, TrrInference)
from ..dram import DramChip
from ..faults import FaultInjector
from ..obs import build_manifest
from ..parallel import WorkUnit, run_units, unit_observability
from ..rng import derive_seed
from ..softmc import SoftMCHost
from ..vendors import ModuleSpec, get_module
from .report import render_table

#: One module per vendor, covering the three TRR families of Table 1
#: (counter table / activation sampler / deferred window).
RESILIENCE_MODULES = ("A5", "B0", "C7")


def _chaos_host(spec: ModuleSpec, fault_profile: str,
                seed: int) -> SoftMCHost:
    """An inference-friendly chip with a seeded injector at its boundary.

    Unlike the quiet evaluation chips, a small VRT population is kept so
    the injector's VRT storms have cells to act on — the hardened Row
    Scout must reject or quarantine them.  The executing work unit's
    bundle records the chaos run's command stream and fault events.
    """
    config = spec.device_config(rows_per_bank=8192, row_bits=1024,
                                weak_cells_per_row_mean=2.0,
                                vrt_fraction=0.005)
    injector = FaultInjector(fault_profile,
                             seed=derive_seed("resilience", seed,
                                              spec.module_id))
    return SoftMCHost(DramChip(config, spec.make_trr()), faults=injector,
                      obs=unit_observability())


@dataclass
class ModuleResilience:
    """Outcome of one chaos run: recovered or not, and at what cost."""

    module_id: str
    fault_profile: str
    profile: InferredTrrProfile
    expected: dict
    fault_counters: dict
    recovery: dict
    #: Run manifest (seed, fault profile, per-stream RNG seeds, recovery
    #: counters, git describe) — byte-diffable across identical runs.
    manifest: dict = field(default_factory=dict)

    @property
    def faults_injected(self) -> int:
        return sum(count for event, count in self.fault_counters.items()
                   if event != "session")

    @property
    def recovery_work(self) -> int:
        """Retry/quarantine/outlier/recalibration events (0 = untested)."""
        return (self.recovery.get("rowscout_round_retries", 0)
                + self.recovery.get("rowscout_rows_quarantined", 0)
                + self.recovery.get("rowscout_groups_replaced", 0)
                + self.recovery.get("rowscout_scan_restarts", 0)
                + self.recovery.get("analyzer_outliers_rejected", 0)
                + self.recovery.get("analyzer_hits_disavowed", 0)
                + self.recovery.get("analyzer_groups_revalidated", 0)
                + self.recovery.get("recalibrations", 0)
                + self.recovery.get("degraded_stages", 0))

    @property
    def recovered(self) -> bool:
        """Does the inferred profile match the implanted ground truth?"""
        expected = self.expected
        if self.profile.detection != expected["kind"]:
            return False
        if self.profile.trr_ref_period != expected["trr_ref_period"]:
            return False
        kind = expected["kind"]
        capacity = self.profile.aggressor_capacity
        if kind == "counter":
            return capacity == expected["table_size"]
        if kind == "sampling":
            return capacity == 1
        return capacity is None  # window: the paper leaves it Unknown


@dataclass
class ResilienceReport:
    """All chaos runs of one ``run_resilience`` invocation."""

    modules: list[ModuleResilience]
    #: ``(module_id, error)`` pairs for chaos runs the execution engine
    #: quarantined after exhausting retries (empty on healthy runs, so
    #: sequential and parallel reports stay byte-identical).
    quarantined: list[tuple[str, str]] = field(default_factory=list)
    #: ``(module_id, description)`` pairs for chaos runs the telemetry
    #: watchdog flagged as stalled mid-run.  Only ever populated when a
    #: stall deadline is armed (``telemetry.stall_deadline_s``), so
    #: default runs stay byte-identical for any worker count.
    stalled: list[tuple[str, str]] = field(default_factory=list)

    @property
    def all_recovered(self) -> bool:
        return (all(module.recovered for module in self.modules)
                and not self.quarantined)

    def render(self) -> str:
        headers = ["module", "faults", "injected", "detection", "TRR/REF",
                   "capacity", "retries", "quarantined", "outliers",
                   "recalib.", "degraded", "recovered"]
        table = []
        for module in self.modules:
            recovery = module.recovery
            table.append([
                module.module_id,
                module.fault_profile,
                module.faults_injected,
                module.profile.detection,
                (f"1/{module.profile.trr_ref_period}"
                 if module.profile.trr_ref_period else "none"),
                module.profile.aggressor_capacity,
                recovery.get("rowscout_round_retries", 0),
                recovery.get("rowscout_rows_quarantined", 0),
                recovery.get("analyzer_outliers_rejected", 0),
                recovery.get("recalibrations", 0),
                recovery.get("degraded_stages", 0),
                "yes" if module.recovered else "NO",
            ])
        rendered = render_table(
            headers, table,
            title="Resilience — inference under injected faults")
        if self.quarantined:
            lines = [f"QUARANTINED {module_id}: {error}"
                     for module_id, error in self.quarantined]
            rendered = "\n".join([rendered, *lines])
        if self.stalled:
            lines = [f"STALLED {module_id}: {description}"
                     for module_id, description in self.stalled]
            rendered = "\n".join([rendered, *lines])
        return rendered


def run_module_resilience(module_id: str, fault_profile: str = "default",
                          seed: int = 0,
                          config: InferenceConfig | None = None
                          ) -> ModuleResilience:
    """One chaos run: hardened inference on *module_id* under faults.

    The returned artifact is always stamped with a run manifest
    carrying the fault profile, the injector's per-stream RNG seeds and
    the recovery counters.
    """
    spec = get_module(module_id)
    host = _chaos_host(spec, fault_profile, seed)
    inference = TrrInference(host, config or HARDENED_INFERENCE)
    profile = inference.run()
    recovery = inference.stats.as_dict()
    manifest = build_manifest(
        seed=seed, module=module_id, fault_profile=fault_profile,
        include_time=False,
        fault_stream_seeds=host.faults.stream_seeds(),
        recovery_counters=recovery)
    return ModuleResilience(
        module_id=module_id,
        fault_profile=fault_profile,
        profile=profile,
        expected=spec.trr_parameters(),
        fault_counters=dict(host.faults.counters),
        recovery=recovery,
        manifest=manifest)


def run_resilience(module_ids=None, fault_profile: str = "default",
                   seed: int = 0,
                   config: InferenceConfig | None = None,
                   **engine) -> ResilienceReport:
    """Chaos runs over one representative module per vendor.

    *engine* is forwarded to :func:`repro.parallel.run_units`.  A
    module whose chaos run keeps failing (or whose worker keeps
    crashing) is *quarantined* — reported by name instead of sinking
    the whole fleet, the same isolate-and-name semantics the hardened
    Row Scout applies to misbehaving rows — at any worker count.  A
    *telemetry* config with a stall deadline additionally arms the
    watchdog: chaos runs whose command counters stop advancing are
    named in the report as STALLED with their last open span.
    """
    units = [WorkUnit(unit_id=f"resilience/{module_id}",
                      fn=run_module_resilience,
                      args=(module_id, fault_profile, seed, config),
                      meta={"module": module_id,
                            "fault_profile": fault_profile,
                            "seed": seed, "artifact": "resilience"})
             for module_id in module_ids or RESILIENCE_MODULES]
    run = run_units(units, quarantine=True, **engine)
    return ResilienceReport(
        modules=run.values,
        quarantined=[(outcome.unit_id.removeprefix("resilience/"),
                      outcome.error or "unknown")
                     for outcome in run.quarantined],
        stalled=[(stall.unit_id.removeprefix("resilience/"),
                  stall.describe())
                 for stall in run.stalled])
