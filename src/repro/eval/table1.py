"""Table 1: full U-TRR reverse engineering + attack results per module.

For each module this runs the real inference pipeline (mapping RE, Row
Scout, refresh calibration, all §6 experiments) through the side channel
only, measures HC_first with refresh disabled, and reports the attack
outcome columns from the vulnerability sweep — side by side with the
implanted ground truth and the paper's reported values.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..attacks import measure_hc_first
from ..core import REDUCED_INFERENCE, InferredTrrProfile, TrrInference
from ..parallel import WorkUnit, run_units, unit_observability
from ..vendors import ModuleSpec, get_module
from .report import format_pct, render_table
from .runner import ModuleEvaluation, evaluate_module
from .scale import STANDARD, EvalScale


@dataclass
class Table1Row:
    spec: ModuleSpec
    profile: InferredTrrProfile
    measured_hc_first: int
    evaluation: ModuleEvaluation

    def ground_truth_matches(self) -> bool:
        params = self.spec.trr_parameters()
        return (self.profile.detection == params.get("kind")
                and self.profile.trr_ref_period
                == params.get("trr_ref_period"))


def _inference_host(spec: ModuleSpec, scale: EvalScale):
    """Inference needs denser weak rows than the attack sweeps (Row
    Scout must find 16+ same-bucket groups) and a VRT-free population so
    reduced validation rounds stay safe.  RowHammer thresholds stay
    *unscaled*: the §6 experiments' hammer counts are calibrated to
    trigger TRR without flipping the profiled rows (§6.1.1).  The host
    records into the executing work unit's bundle."""
    import dataclasses as dc
    from ..dram import DramChip
    from ..softmc import SoftMCHost
    config = spec.device_config(rows_per_bank=8192,
                                row_bits=scale.row_bits,
                                weak_cells_per_row_mean=2.0,
                                vrt_fraction=0.0)
    config = dc.replace(
        config,
        refresh_cycle_refs=max(scale.scaled_cycle(spec), 2048
                               * spec.refresh_cycle_refs // 8192))
    return SoftMCHost(DramChip(config, spec.make_trr()),
                      obs=unit_observability())


def run_table1_module(module_id: str,
                      scale: EvalScale = STANDARD) -> Table1Row:
    spec = get_module(module_id)
    inference_host = _inference_host(spec, scale)
    # Reduced validation rounds are safe: evaluation chips disable VRT.
    inference = TrrInference(inference_host, REDUCED_INFERENCE)
    profile = inference.run()
    hc_host = scale.build_host(spec)
    measured = measure_hc_first(
        hc_host, hc_host._chip.mapping,
        hi=6 * scale.scaled_hc_first(spec),
        paired=spec.paired_rows)
    evaluation = evaluate_module(spec, scale)
    return Table1Row(spec=spec, profile=profile,
                     measured_hc_first=scale.unscale_hc(measured),
                     evaluation=evaluation)


@dataclass
class Table1Result:
    rows: list[Table1Row]

    def render(self) -> str:
        headers = ["module", "date", "Gbit", "banks", "HC_first",
                   "HC_first(paper)", "version", "detection",
                   "capacity", "per-bank", "TRR/REF", "neighbors",
                   "vuln rows", "vuln(paper)", "flips/row/hammer",
                   "recovered"]
        table = []
        for row in self.rows:
            spec = row.spec
            paper = spec.paper
            table.append([
                spec.module_id, spec.date_code, spec.density_gbit,
                spec.num_banks,
                f"{row.measured_hc_first // 1000}K",
                (f"{paper.hc_first_range[0] // 1000}K-"
                 f"{paper.hc_first_range[1] // 1000}K"),
                spec.trr_version.value,
                row.profile.detection,
                row.profile.aggressor_capacity,
                row.profile.per_bank,
                f"1/{row.profile.trr_ref_period}",
                row.profile.neighbors_refreshed,
                format_pct(row.evaluation.vulnerable_fraction),
                (f"{paper.vulnerable_rows_pct_range[0]:.1f}-"
                 f"{paper.vulnerable_rows_pct_range[1]:.1f}%"),
                f"{row.evaluation.max_flips_per_row_per_hammer:.2f}",
                "yes" if row.ground_truth_matches() else "NO",
            ])
        return render_table(headers, table,
                            title="Table 1 — U-TRR observations and "
                                  "attack results")


#: Modules covering every distinct TRR implementation of Table 1.
TABLE1_REPRESENTATIVES = ("A0", "A13", "B0", "B9", "B13",
                          "C7", "C9", "C12")


def run_table1(module_ids=None, scale: EvalScale = STANDARD,
               **engine) -> Table1Result:
    """One Table 1 unit per module; *engine* is forwarded to
    :func:`repro.parallel.run_units`."""
    units = [WorkUnit(unit_id=f"table1/{module_id}",
                      fn=run_table1_module, args=(module_id, scale),
                      meta={"module": module_id, "scale": scale.name,
                            "artifact": "table1"})
             for module_id in module_ids or TABLE1_REPRESENTATIVES]
    return Table1Result(rows=run_units(units, **engine).values)
