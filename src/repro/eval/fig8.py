"""Figure 8: bit flips per row vs hammers per aggressor per REF.

The paper plots box-and-whisker distributions for modules A5, B8 and C7
(the most vulnerable module of each vendor's first TRR version,
footnote 15) while sweeping the aggressor hammer count of each custom
pattern.  Shape targets: vendor A has an interior optimum; vendors B and
C rise to a knee and collapse when aggressor hammering starves the
diversion phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..attacks import (VendorAPattern, VendorBPattern, VendorCPattern,
                       run_hammer_sweep)
from ..attacks.sweep import HammerSweepResult
from ..errors import ConfigError
from ..parallel import WorkUnit, run_units
from ..vendors import get_module
from .report import render_table
from .runner import AttackRecipe
from .scale import STANDARD, EvalScale

#: Hammer sweep values per module: hammers per aggressor per *window*
#: for A/B (the pattern's native knob), dummy-fraction-derived counts
#: for C.
SWEEPS = {
    "A5": (12, 24, 48, 64, 72, 80, 96, 144),
    "B8": (20, 40, 60, 80, 95, 110, 130),
    "C7": (126, 252, 440, 630, 880, 1100),
}


def _pattern_factory(module_id: str):
    if module_id.startswith("A"):
        return lambda h: VendorAPattern(aggressor_hammers=h)
    if module_id.startswith("B"):
        return lambda h: VendorBPattern(aggressor_hammers=h)
    return lambda h: VendorCPattern(aggressor_hammers=h)


@dataclass
class Fig8Result:
    module_id: str
    trr_period: int
    sweep: HammerSweepResult

    def rows(self) -> list[list]:
        out = []
        for hammers in sorted(self.sweep.flips_by_hammers):
            flips = self.sweep.flips_by_hammers[hammers]
            q1, median, q3 = self.sweep.quartiles(hammers)
            per_ref = hammers / self.trr_period
            out.append([f"{per_ref:.1f}", hammers, min(flips), q1, median,
                        q3, max(flips)])
        return out

    def render(self) -> str:
        return render_table(
            ["hammers/aggr/REF", "hammers/aggr/window", "min", "q1",
             "median", "q3", "max"],
            self.rows(),
            title=f"Figure 8 ({self.module_id}) — flips per row vs "
                  "aggressor hammer count")


def run_fig8(module_id: str, scale: EvalScale = STANDARD,
             hammer_counts=None) -> Fig8Result:
    if module_id not in SWEEPS and hammer_counts is None:
        raise ConfigError(
            f"no default sweep for {module_id}; pass hammer_counts")
    recipe = AttackRecipe(get_module(module_id), scale)
    sweep = run_hammer_sweep(
        recipe.new_host, _pattern_factory(module_id),
        hammer_counts or SWEEPS[module_id],
        recipe.victims(scale.fig8_positions, margin=64),
        recipe.trr_period, recipe.windows,
        paired=recipe.spec.paired_rows)
    return Fig8Result(module_id=module_id, trr_period=recipe.trr_period,
                      sweep=sweep)


def run_fig8_many(module_ids, scale: EvalScale = STANDARD,
                  **engine) -> list[Fig8Result]:
    """One hammer sweep per module; *engine* is forwarded to
    :func:`repro.parallel.run_units` (``workers`` shards the sweeps)."""
    units = [WorkUnit(unit_id=f"fig8/{module_id}", fn=run_fig8,
                      args=(module_id, scale),
                      meta={"module": module_id, "scale": scale.name,
                            "artifact": "fig8"})
             for module_id in module_ids]
    return run_units(units, **engine).values
