"""Figure 10: distribution of 8-byte datawords by bit-flip count.

Buckets the vulnerability-sweep flips into 64-bit words, histograms
per-word flip counts per module, and classifies each flipped word
against SECDED and Chipkill — the paper's §7.4 ECC-bypass argument.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..ecc import (ChipkillOutcome, DecodeStatus, assess_ecc,
                   dataword_flip_counts, required_rs_parity_symbols)
from .fig9 import run_fig9
from .report import render_histogram, render_table
from .runner import ModuleEvaluation
from .scale import STANDARD, EvalScale


@dataclass
class Fig10Result:
    evaluations: list[ModuleEvaluation]

    def per_module(self) -> list[tuple[str, Counter]]:
        return [(evaluation.spec.module_id,
                 dataword_flip_counts(evaluation.result.flips_by_row))
                for evaluation in self.evaluations]

    def render(self) -> str:
        sections = ["Figure 10 — 8-byte datawords by bit-flip count"]
        summary_rows = []
        worst = 0
        for module_id, histogram in self.per_module():
            evaluation = next(e for e in self.evaluations
                              if e.spec.module_id == module_id)
            assessment = assess_ecc(evaluation.result.flips_by_row)
            worst = max(worst, assessment.max_flips_in_word)
            sections.append(render_histogram(
                f"  {module_id} (words with N flips)", dict(histogram)))
            summary_rows.append([
                module_id,
                assessment.words_total,
                assessment.secded[DecodeStatus.CORRECTED],
                assessment.secded[DecodeStatus.DETECTED],
                assessment.secded_defeated,
                assessment.chipkill[ChipkillOutcome.BEYOND_GUARANTEE],
                assessment.max_flips_in_word,
            ])
        sections.append(render_table(
            ["module", "flipped words", "SECDED corrects",
             "SECDED detects", "SECDED silently defeated",
             "Chipkill beyond guarantee", "max flips/word"],
            summary_rows, title="ECC outcomes (7.4)"))
        sections.append(
            "Reed-Solomon parity symbols needed to detect the worst "
            f"word ({worst} flips): "
            f"{required_rs_parity_symbols(worst)}")
        return "\n\n".join(sections)


def run_fig10(module_ids: list[str] | None = None,
              scale: EvalScale = STANDARD,
              evaluations: list[ModuleEvaluation] | None = None,
              positions: int | None = None, **engine) -> Fig10Result:
    """Reuses Figure 9 evaluations when given (same underlying sweep);
    otherwise runs Figure 9's units, forwarding *engine* to
    :func:`repro.parallel.run_units`."""
    if evaluations is None:
        evaluations = run_fig9(module_ids, scale, positions,
                               **engine).evaluations
    return Fig10Result(evaluations=evaluations)
