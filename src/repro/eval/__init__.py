"""Evaluation harness: regenerates the paper's tables and figures."""

from .ablations import (run_ablations, run_baseline_ablation,
                        run_dummy_count_ablation, run_hammer_mode_ablation,
                        run_mitigation_ablation)
from .fig8 import Fig8Result, run_fig8, run_fig8_many
from .fig9 import REPRESENTATIVE_MODULES, Fig9Result, run_fig9
from .fig10 import Fig10Result, run_fig10
from .report import format_pct, render_histogram, render_series, render_table
from .resilience import (RESILIENCE_MODULES, ModuleResilience,
                         ResilienceReport, run_module_resilience,
                         run_resilience)
from .runner import (ModuleEvaluation, evaluate_baseline, evaluate_module,
                     evaluate_module_unit, evaluate_modules)
from .scale import QUICK, STANDARD, EvalScale, get_scale
from .survey import ModuleSurvey, SurveyResult, run_survey
from .table1 import (TABLE1_REPRESENTATIVES, Table1Result, run_table1,
                     run_table1_module)

__all__ = [
    "EvalScale",
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "ModuleEvaluation",
    "ModuleResilience",
    "ModuleSurvey",
    "ResilienceReport",
    "SurveyResult",
    "QUICK",
    "REPRESENTATIVE_MODULES",
    "RESILIENCE_MODULES",
    "STANDARD",
    "TABLE1_REPRESENTATIVES",
    "Table1Result",
    "evaluate_baseline",
    "evaluate_module",
    "evaluate_module_unit",
    "evaluate_modules",
    "format_pct",
    "get_scale",
    "render_histogram",
    "render_series",
    "render_table",
    "run_ablations",
    "run_baseline_ablation",
    "run_dummy_count_ablation",
    "run_fig8",
    "run_fig8_many",
    "run_fig9",
    "run_fig10",
    "run_hammer_mode_ablation",
    "run_mitigation_ablation",
    "run_module_resilience",
    "run_resilience",
    "run_survey",
    "run_table1",
    "run_table1_module",
]
