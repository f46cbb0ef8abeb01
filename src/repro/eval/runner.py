"""Per-module evaluation: pattern selection and vulnerability sweeps.

The paper selects, per module, the hammer count that maximizes the
number of vulnerable rows (§7.3, footnote 18's protocol) and then sweeps
a whole bank.  :func:`evaluate_module` mirrors that: synthesize attack
candidates from the module's TRR family, pick the best on canary
victims, then run the full position sweep.  The result feeds Figure 9
(vulnerable fraction), Figure 10 (per-word flips), and Table 1's result
columns.
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
from ..errors import AttackConfigError
from ..parallel import WorkUnit, run_units
from ..softmc import SoftMCHost
from ..vendors import ModuleSpec, get_module
from .scale import EvalScale


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
                       trr_period: int, windows: int
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
    host = scale.build_host(spec)
    mapping = host._chip.mapping
    trr_period = spec.trr_parameters().get("trr_ref_period", 9)
    cycle = scale.scaled_cycle(spec)
    # Two refresh cycles: every victim, whatever its refresh slot, sees
    # one full between-regular-refreshes gap (the paper's SoftMC program
    # runs each pattern "for a fixed interval of time", 7.2).
    windows = max(2 * cycle // trr_period, 1)
    coupling = (CouplingTopology.PAIRED if spec.paired_rows
                else CouplingTopology.STANDARD)
    executor = AttackExecutor(host, mapping)

    def make_context(victim: int):
        return default_context(0, victim, mapping, trr_period,
                               host.num_banks, paired=spec.paired_rows)

    candidates = candidate_patterns(spec, host, trr_period, windows)
    canaries = victim_positions(host.rows_per_bank, 4, coupling,
                                margin=128)
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

    sweep_positions = victim_positions(
        host.rows_per_bank, positions or scale.positions, coupling,
        margin=16)

    def fresh_host():
        new_host = scale.build_host(spec)
        return new_host, new_host._chip.mapping

    result = run_vulnerability_sweep(host, mapping, pattern,
                                     sweep_positions, trr_period, windows,
                                     paired=spec.paired_rows,
                                     host_factory=fresh_host)
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
    """Run a (classic) pattern against a module for the ablations."""
    host = scale.build_host(spec)
    mapping = host._chip.mapping
    trr_period = spec.trr_parameters().get("trr_ref_period", 9)
    windows = max(2 * scale.scaled_cycle(spec) // trr_period, 1)
    coupling = (CouplingTopology.PAIRED if spec.paired_rows
                else CouplingTopology.STANDARD)
    rows = victim_positions(host.rows_per_bank, positions, coupling,
                            margin=16)

    def fresh_host():
        new_host = scale.build_host(spec)
        return new_host, new_host._chip.mapping

    return run_vulnerability_sweep(host, mapping, pattern, rows,
                                   trr_period, windows,
                                   paired=spec.paired_rows,
                                   host_factory=fresh_host)
