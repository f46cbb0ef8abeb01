"""Figure 9: percentage of rows vulnerable to the custom patterns."""

from __future__ import annotations

from dataclasses import dataclass

from ..vendors import all_modules
from .report import format_pct, render_table
from .runner import ModuleEvaluation, evaluate_modules
from .scale import STANDARD, EvalScale


@dataclass
class Fig9Result:
    evaluations: list[ModuleEvaluation]

    def rows(self) -> list[list]:
        out = []
        for evaluation in self.evaluations:
            spec = evaluation.spec
            paper = spec.paper
            paper_pct = ("-" if paper is None else
                         f"{paper.vulnerable_rows_pct_range[0]:.1f}-"
                         f"{paper.vulnerable_rows_pct_range[1]:.1f}%")
            out.append([
                spec.module_id,
                spec.trr_version.value,
                evaluation.pattern_name,
                format_pct(evaluation.vulnerable_fraction),
                paper_pct,
                evaluation.max_flips_per_row,
            ])
        return out

    def render(self) -> str:
        return render_table(
            ["module", "TRR", "pattern", "vulnerable rows",
             "paper", "max flips/row"],
            self.rows(),
            title="Figure 9 — rows with >= 1 RowHammer bit flip under the "
                  "custom patterns")


def run_fig9(module_ids: list[str] | None = None,
             scale: EvalScale = STANDARD,
             positions: int | None = None, **engine) -> Fig9Result:
    """One evaluation unit per module (default: all 45).

    *engine* is forwarded to :func:`repro.parallel.run_units`
    (``workers``, ``log``, ``obs``, ``telemetry``, ``cache``).
    """
    ids = module_ids or [spec.module_id for spec in all_modules()]
    return Fig9Result(evaluations=evaluate_modules(ids, scale, positions,
                                                   **engine))


#: One representative module per TRR version (keeps benches tractable).
REPRESENTATIVE_MODULES = ("A0", "A13", "B0", "B9", "B13",
                          "C0", "C7", "C9", "C12")
