"""Ablation studies called out in DESIGN.md.

* AB1 — interleaved vs cascaded hammering (§5.2): same raw activation
  budget, very different disturbance.
* AB2 — vendor A dummy-row count: the counter-table eviction needs the
  full 16 dummies; fewer leave aggressor entries standing.
* AB3 — classic vs custom patterns (footnote 18): classic patterns flip
  nothing on TRR-protected modules; the same double-sided pattern rips
  through an unprotected chip.
* AB4 — TRR vs PARA (the paper's future-work direction): dummy-row
  diversion defeats deterministic TRR state but buys nothing against a
  stateless per-ACT coin, whose protection costs refresh overhead
  proportional to its probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import dataclasses

from ..attacks import (AttackExecutor, DoubleSidedPattern,
                       ManySidedPattern, SingleSidedPattern,
                       VendorAPattern, default_context)
from ..dram import AllOnes, DramChip, HammerMode
from ..parallel import WorkUnit, run_units, unit_observability
from ..softmc import SoftMCHost
from ..trr import ParaMitigation
from ..vendors import get_module
from ..vendors.spec import ModuleSpec, TrrVersion
from .report import render_table
from .runner import evaluate_baseline, evaluate_module
from .scale import STANDARD, EvalScale


@dataclass
class AblationResult:
    title: str
    headers: list[str]
    rows: list[list]

    def render(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)


def run_hammer_mode_ablation(scale: EvalScale = STANDARD
                             ) -> AblationResult:
    """AB1: flips from one hammer budget, interleaved vs cascaded."""
    spec = get_module("B8")
    rows = []
    for mode in (HammerMode.INTERLEAVED, HammerMode.CASCADED):
        host = scale.build_host(spec)
        victim = 2048
        host.write_row(0, victim, AllOnes())
        threshold_budget = 4 * scale.scaled_hc_first(spec)
        host.hammer(0, ((victim - 1, threshold_budget),
                        (victim + 1, threshold_budget)), mode)
        flips = len(host.read_row_mismatches(0, victim))
        rows.append([mode.value, 2 * threshold_budget, flips])
    return AblationResult(
        title="Ablation AB1 — hammer ordering (same activation budget)",
        headers=["mode", "total activations", "victim bit flips"],
        rows=rows)


def run_dummy_count_ablation(scale: EvalScale = STANDARD
                             ) -> AblationResult:
    """AB2: vendor A custom pattern vs dummy-row count."""
    spec = get_module("A0")
    rows = []
    for dummies in (4, 8, 12, 16):
        pattern = VendorAPattern(aggressor_hammers=72, dummy_count=dummies)
        result = evaluate_baseline(spec, scale, pattern, positions=6)
        rows.append([dummies, result.total_flips,
                     f"{100 * result.vulnerable_fraction:.0f}%"])
    return AblationResult(
        title="Ablation AB2 — vendor A pattern vs dummy-row count "
              "(16-entry table needs 16 dummies)",
        headers=["dummy rows", "total flips", "vulnerable rows"],
        rows=rows)


def run_baseline_ablation(scale: EvalScale = STANDARD) -> AblationResult:
    """AB3: classic patterns vs custom, on protected and raw chips."""
    rows = []
    for module_id in ("A0", "B8", "C9"):
        spec = get_module(module_id)
        for pattern in (SingleSidedPattern(), DoubleSidedPattern(),
                        ManySidedPattern(sides=12)):
            result = evaluate_baseline(spec, scale, pattern, positions=6)
            rows.append([module_id, pattern.name, result.total_flips])
        custom = evaluate_module(spec, scale, positions=6)
        rows.append([module_id, custom.pattern_name,
                     custom.result.total_flips])
    raw = ModuleSpec(module_id="RAW", vendor="-", date_code="15-01",
                     density_gbit=4, ranks=1, num_banks=16, pins=8,
                     hc_first=139_000, trr_version=TrrVersion.NONE)
    result = evaluate_baseline(raw, scale, DoubleSidedPattern(),
                               positions=6)
    rows.append(["no-TRR", "double-sided", result.total_flips])
    return AblationResult(
        title="Ablation AB3 — classic vs custom patterns (footnote 18)",
        headers=["module", "pattern", "total flips"],
        rows=rows)


def run_mitigation_ablation(scale: EvalScale = STANDARD
                            ) -> AblationResult:
    """AB4: the vendor-A custom pattern vs its TRR and vs PARA."""
    spec = get_module("A0")
    rows = []
    for mitigation, probability in (("A_TRR1", None), ("PARA", 1 / 2000),
                                    ("PARA", 1 / 250)):
        for pattern in (DoubleSidedPattern(),
                        VendorAPattern(aggressor_hammers=72)):
            flips = 0
            overhead_acc = 0.0
            victims = (700, 1500, 2300, 3100)
            for victim in victims:
                if probability is None:
                    host = scale.build_host(spec)
                else:
                    config = spec.device_config(
                        rows_per_bank=scale.rows_per_bank,
                        row_bits=scale.row_bits)
                    config = dataclasses.replace(
                        config,
                        refresh_cycle_refs=scale.refresh_cycle_refs,
                        disturbance=dataclasses.replace(
                            config.disturbance,
                            hc_first=scale.scaled_hc_first(spec)))
                    # PARA in place of A0's TRR, on the scale's nominal
                    # refresh cycle rather than the A_TRR1 rows'
                    # ``scale.scaled_cycle(spec)``: aligning the two
                    # would change AB4's rows.
                    host = SoftMCHost(DramChip(
                        config, ParaMitigation(probability=probability,
                                               seed=11)),
                        obs=unit_observability())
                executor = AttackExecutor(host, host._chip.mapping)
                windows = 2 * scale.refresh_cycle_refs // 9
                context = default_context(0, victim, host._chip.mapping,
                                          9, host.num_banks)
                flips += executor.run(pattern, context,
                                      windows).flips_at(victim)
                stats = host._chip.stats
                overhead_acc += stats.trr_refreshes / max(stats.activates,
                                                          1)
            label = (mitigation if probability is None
                     else f"PARA 1/{round(1 / probability)}")
            rows.append([label, pattern.name, flips,
                         f"{1e6 * overhead_acc / len(victims):.0f}"])
    return AblationResult(
        title="Ablation AB4 — deterministic TRR vs stateless PARA",
        headers=["mitigation", "pattern", "flips",
                 "refreshes / M ACTs"],
        rows=rows)


#: The ablation studies in rendering order (AB1-AB4).
ABLATIONS = (
    ("ab1-hammer-mode", run_hammer_mode_ablation),
    ("ab2-dummy-count", run_dummy_count_ablation),
    ("ab3-baseline", run_baseline_ablation),
    ("ab4-mitigation", run_mitigation_ablation),
)


def run_ablations(scale: EvalScale = STANDARD,
                  **engine) -> list[AblationResult]:
    """All four ablation studies, one unit each, in AB1..AB4 order;
    *engine* is forwarded to :func:`repro.parallel.run_units`."""
    units = [WorkUnit(unit_id=f"ablations/{name}", fn=fn, args=(scale,),
                      meta={"ablation": name, "scale": scale.name,
                            "artifact": "ablations"})
             for name, fn in ABLATIONS]
    return run_units(units, **engine).values
