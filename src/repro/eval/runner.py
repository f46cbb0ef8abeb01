"""Per-module evaluation: the attack recipe, pattern selection, sweeps.

U-TRR judges each custom pattern by attacking sampled victim rows of a
freshly initialized module for a fixed number of TRR-period windows
(§7.2-7.3).  :class:`AttackRecipe` is that setup, worked out once for
every attack harness (Figures 8-10, Table 1's attack columns and the
ablations): the TRR period the patterns sync to, the window count,
coupling-aware victim placement and a fresh module per run.

The paper selects, per module, the hammer count that maximizes the
number of vulnerable rows (§7.3, footnote 18's protocol) and then sweeps
a whole bank.  :func:`evaluate_module` mirrors that: it picks the best
of the module's TRR-family candidates on canary victims, then runs the
same position sweep as :func:`evaluate_baseline`.  The result feeds
Figure 9 (vulnerable fraction), Figure 10 (per-word flips), and Table
1's result columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..attacks import (AccessPattern, AttackExecutor,
                       PhaseLockedSamplerPattern, VendorAPattern,
                       VendorBPattern, VendorCPattern,
                       calibrate_phase_offset, default_context,
                       run_vulnerability_sweep, victim_positions)
from ..attacks.sweep import VulnerabilityResult
from ..core.mapping_re import CouplingTopology
from ..dram.mapping import RowMapping
from ..errors import AttackConfigError
from ..parallel import WorkUnit, run_units
from ..softmc import SoftMCHost
from ..vendors import ModuleSpec, get_module
from .scale import EvalScale


@dataclass(frozen=True)
class AttackRecipe:
    """How every attack harness sets up *spec* at *scale*."""

    spec: ModuleSpec
    scale: EvalScale

    @property
    def trr_period(self) -> int:
        """The TRR-to-REF period the patterns sync to."""
        return self.spec.trr_parameters().get("trr_ref_period", 9)

    @property
    def windows(self) -> int:
        """TRR-period windows per attack run.

        Two refresh cycles: every victim, whatever its refresh slot,
        sees one full between-regular-refreshes gap (the paper's SoftMC
        program runs each pattern "for a fixed interval of time", 7.2).
        """
        return max(2 * self.scale.scaled_cycle(self.spec)
                   // self.trr_period, 1)

    def victims(self, count: int, margin: int) -> list[int]:
        """*count* evenly spread victim rows, even-addressed on
        pair-isolated modules."""
        coupling = (CouplingTopology.PAIRED if self.spec.paired_rows
                    else CouplingTopology.STANDARD)
        return victim_positions(self.scale.rows_per_bank, count, coupling,
                                margin=margin)

    def new_host(self) -> tuple[SoftMCHost, RowMapping]:
        """A freshly built module and its row mapping."""
        host = self.scale.build_host(self.spec)
        return host, host._chip.mapping


@dataclass
class ModuleEvaluation:
    """Everything the figure/table harnesses need for one module."""

    spec: ModuleSpec
    pattern_name: str
    hammers_per_aggressor_per_ref: float
    result: VulnerabilityResult

    @property
    def vulnerable_fraction(self) -> float:
        return self.result.vulnerable_fraction

    @property
    def max_flips_per_row(self) -> int:
        return self.result.max_flips_per_row()

    @property
    def max_flips_per_row_per_hammer(self) -> float:
        hammers = self.hammers_per_aggressor_per_ref
        if hammers <= 0:
            return 0.0
        return self.max_flips_per_row / hammers


def candidate_patterns(spec: ModuleSpec, host: SoftMCHost,
                       trr_period: int
                       ) -> list[tuple[AccessPattern, float]]:
    """Attack candidates for one module's TRR family.

    Returns (pattern, hammers-per-aggressor-per-REF) pairs; the runner
    tries each on canary victims and keeps the best, mirroring the
    paper's per-module hammer-count selection.
    """
    params = spec.trr_parameters()
    kind = params.get("kind")
    interval_acts = host.hammers_per_ref_interval()
    if kind == "counter":
        return [(VendorAPattern(aggressor_hammers=h), h / trr_period)
                for h in (36, 72, 108)]
    if kind == "sampling" and not params.get("per_bank"):
        return [(VendorBPattern(aggressor_hammers=h), h / trr_period)
                for h in (50, 80, 95)]
    if kind == "sampling":  # B_TRR3: phase-locked diversion
        period = params["sample_period"]
        candidates = []
        for guard in (1,):
            # Offsets are calibrated lazily in evaluate_module.
            candidates.append((PhaseLockedSamplerPattern(period, 0, guard),
                               interval_acts / 2))
        return candidates
    if kind == "window":
        out = []
        for fraction in (0.65, 0.8):
            per_ref = interval_acts * (1 - fraction) / 2
            out.append((VendorCPattern(dummy_fraction=fraction), per_ref))
        return out
    raise AttackConfigError(f"no candidates for TRR kind {kind!r}")


def evaluate_module(spec: ModuleSpec, scale: EvalScale,
                    positions: int | None = None) -> ModuleEvaluation:
    """Select the best pattern on canaries, then sweep the bank."""
    recipe = AttackRecipe(spec, scale)
    host, mapping = recipe.new_host()
    trr_period, windows = recipe.trr_period, recipe.windows
    executor = AttackExecutor(host, mapping)

    def make_context(victim: int):
        return default_context(0, victim, mapping, trr_period,
                               host.num_banks, paired=spec.paired_rows)

    candidates = candidate_patterns(spec, host, trr_period)
    canaries = recipe.victims(4, margin=128)
    best = None
    for pattern, hammers_per_ref in candidates:
        if isinstance(pattern, PhaseLockedSamplerPattern):
            try:
                offset = calibrate_phase_offset(
                    executor, make_context, trr_period,
                    pattern.sample_period, windows, canaries[:1],
                    guard=pattern.guard)
            except AttackConfigError:
                continue
            pattern = PhaseLockedSamplerPattern(pattern.sample_period,
                                                offset, pattern.guard)
        flips = sum(
            executor.run(pattern, make_context(victim), windows)
            .flips_at(victim)
            for victim in canaries)
        if best is None or flips > best[0]:
            best = (flips, pattern, hammers_per_ref)
    _, pattern, hammers_per_ref = best
    result = evaluate_baseline(spec, scale, pattern,
                               positions or scale.positions)
    return ModuleEvaluation(spec=spec, pattern_name=pattern.name,
                            hammers_per_aggressor_per_ref=hammers_per_ref,
                            result=result)


def evaluate_module_unit(module_id: str, scale: EvalScale,
                         positions: int | None = None) -> ModuleEvaluation:
    """Process-pool work unit: one module's full evaluation.

    Top-level (hence picklable) and fully self-contained — the spec is
    re-resolved and the host rebuilt inside the worker, so the result
    depends only on ``(module_id, scale, positions)``.
    """
    return evaluate_module(get_module(module_id), scale, positions)


def evaluate_modules(module_ids, scale: EvalScale,
                     positions: int | None = None,
                     **engine) -> list[ModuleEvaluation]:
    """Evaluate many modules, one work unit each.

    Results come back in *module_ids* order whatever the scheduling.
    *engine* is forwarded to :func:`repro.parallel.run_units`:
    ``workers`` shards the units over processes, *obs* (a
    :class:`~repro.obs.Observability`) receives every unit's host
    metrics and, when it profiles, the per-opcode command-bus
    attribution (identical totals for any worker count), and
    *telemetry* (a :class:`~repro.obs.live.TelemetryConfig`) publishes live
    progress into its spool — side channels that leave the artifacts
    byte-identical.  *cache* (a :class:`~repro.cache.ResultCache`)
    serves previously computed units from the content-addressed store
    and publishes fresh ones — the ``eval/<module>`` unit ids are
    shared with the fig9/fig10 harnesses, so a fig9 run warms fig10
    and vice versa.
    """
    units = [WorkUnit(unit_id=f"eval/{module_id}",
                      fn=evaluate_module_unit,
                      args=(module_id, scale, positions),
                      meta={"module": module_id, "scale": scale.name})
             for module_id in module_ids]
    return run_units(units, **engine).values


def evaluate_baseline(spec: ModuleSpec, scale: EvalScale,
                      pattern: AccessPattern,
                      positions: int = 8) -> VulnerabilityResult:
    """Sweep *pattern* over *positions* victim rows of *spec*, each on a
    fresh module (the ablations' classic patterns, and the selected
    pattern of :func:`evaluate_module`)."""
    recipe = AttackRecipe(spec, scale)
    return run_vulnerability_sweep(recipe.new_host, pattern,
                                   recipe.victims(positions, margin=16),
                                   recipe.trr_period, recipe.windows,
                                   paired=spec.paired_rows)
