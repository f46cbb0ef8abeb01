"""Survey: one combined markdown report per module list.

Stitches the Table 1 reverse-engineering row, the Figure 9 vulnerability
number, and the Figure 10 ECC assessment into a single document — the
artifact a lab would circulate after putting a new DIMM on the rig.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ecc import assess_ecc, dataword_flip_counts
from .report import format_pct, render_histogram, render_table
from .scale import STANDARD, EvalScale
from .table1 import Table1Row, run_table1


@dataclass
class ModuleSurvey:
    row: Table1Row

    def render(self) -> str:
        spec = self.row.spec
        profile = self.row.profile
        evaluation = self.row.evaluation
        flips = evaluation.result.flips_by_row
        assessment = assess_ecc(flips)
        lines = [
            f"## Module {spec.module_id} ({spec.date_code}, "
            f"{spec.density_gbit} Gbit, {spec.num_banks} banks)",
            "",
            f"* implanted TRR version: {spec.trr_version.value}",
            f"* recovered profile:     {profile.summary()}",
            "* ground truth match:    "
            f"{'yes' if self.row.ground_truth_matches() else 'NO'}",
            f"* HC_first (measured):   {self.row.measured_hc_first:,}",
            f"* best attack:           {evaluation.pattern_name} "
            f"({evaluation.hammers_per_aggressor_per_ref:.1f} "
            "hammers/aggr/REF)",
            "* vulnerable rows:       "
            f"{format_pct(evaluation.vulnerable_fraction)}",
            f"* max flips per row:     {evaluation.max_flips_per_row}",
            "* SECDED silently defeated words: "
            f"{assessment.secded_defeated} of {assessment.words_total}",
            "",
            render_histogram("8-byte datawords by flip count",
                             dict(dataword_flip_counts(flips))),
        ]
        return "\n".join(lines)


@dataclass
class SurveyResult:
    surveys: list[ModuleSurvey]

    def render(self) -> str:
        header = ["# U-TRR module survey", ""]
        summary_rows = []
        for survey in self.surveys:
            row = survey.row
            summary_rows.append([
                row.spec.module_id,
                row.spec.trr_version.value,
                row.profile.detection,
                "yes" if row.ground_truth_matches() else "NO",
                format_pct(row.evaluation.vulnerable_fraction),
                row.evaluation.result.windows,
            ])
        header.append(render_table(
            ["module", "version", "detected", "recovered", "vulnerable",
             "attack windows"], summary_rows))
        header.append("")
        return "\n\n".join(["\n".join(header)]
                           + [survey.render() for survey in self.surveys])


def run_survey(module_ids, scale: EvalScale = STANDARD,
               **engine) -> SurveyResult:
    """One survey per module, built from Table 1's units (so a store
    ``table1`` wrote serves it); *engine* is forwarded to
    :func:`repro.parallel.run_units`."""
    return SurveyResult(surveys=[
        ModuleSurvey(row=row)
        for row in run_table1(module_ids, scale, **engine).rows])
