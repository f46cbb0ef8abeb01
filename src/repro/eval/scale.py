"""Evaluation scaling: keep the attack/defense balance, shrink the clock.

The paper's experiments run for full 64 ms refresh windows (~8K REFs)
against banks of 16K-131K rows.  Simulating that per victim position for
45 modules is wasteful in pure Python, and — more importantly —
unnecessary: the dynamics that decide whether an attack defeats a TRR
mechanism depend on the *ratio* between how much disturbance a victim
accumulates per refresh window and its RowHammer threshold.  Shrinking
the refresh window (``refresh_cycle_refs``) and the implanted HC_first by
the **same factor** preserves that ratio exactly, along with every
TRR-visible quantity (TRR-to-REF periods, table sizes, sample periods,
detection windows are untouched).

Measured HC_first values are rescaled back (x ``hc_divisor``) before
reporting, and EXPERIMENTS.md documents the scaling per artifact.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..dram import DramChip
from ..errors import ConfigError
from ..parallel import unit_observability
from ..softmc import SoftMCHost
from ..vendors import ModuleSpec


@dataclass(frozen=True)
class EvalScale:
    """One evaluation operating point."""

    name: str
    rows_per_bank: int = 4096
    row_bits: int = 8192
    refresh_cycle_refs: int = 1024
    hc_divisor: int = 8
    #: Victim positions sampled per bank for vulnerability sweeps.
    positions: int = 48
    #: Victim rows per point in the Figure 8 hammer sweep.
    fig8_positions: int = 12

    def __post_init__(self) -> None:
        if self.refresh_cycle_refs > self.rows_per_bank:
            raise ConfigError("cycle cannot exceed rows (empty slots)")
        if self.hc_divisor < 1:
            raise ConfigError("hc_divisor must be >= 1")

    def scaled_hc_first(self, spec: ModuleSpec) -> int:
        return max(spec.hc_first // self.hc_divisor, 100)

    def unscale_hc(self, measured: int) -> int:
        """Rescale a measured HC back to real-module units."""
        return measured * self.hc_divisor

    def scaled_cycle(self, spec: ModuleSpec) -> int:
        """Refresh cycle at this operating point.

        Vendor A's shorter real-chip cycle (3758 vs the nominal 8192,
        Obs A8) shrinks by the same proportion.
        """
        proportional = (spec.refresh_cycle_refs * self.refresh_cycle_refs
                        // 8192)
        return max(min(proportional, self.refresh_cycle_refs), 64)

    def build_host(self, spec: ModuleSpec) -> SoftMCHost:
        """Build the module at this operating point, TRR attached.

        The host records into the executing work unit's bundle
        (:func:`repro.parallel.unit_observability`), which every
        pipeline component driving it reaches through ``host.obs``.
        """
        config = spec.device_config(rows_per_bank=self.rows_per_bank,
                                    row_bits=self.row_bits)
        config = dataclasses.replace(
            config,
            refresh_cycle_refs=self.scaled_cycle(spec),
            disturbance=dataclasses.replace(
                config.disturbance, hc_first=self.scaled_hc_first(spec)))
        return SoftMCHost(DramChip(config, spec.make_trr()),
                          obs=unit_observability())


#: Standard benchmark operating point.
STANDARD = EvalScale(name="standard")

#: Fast operating point for smoke runs (same physics, fewer samples).
QUICK = EvalScale(name="quick", positions=16, fig8_positions=6)


def get_scale(name: str) -> EvalScale:
    scales = {"standard": STANDARD, "quick": QUICK}
    try:
        return scales[name]
    except KeyError:
        raise ConfigError(f"unknown scale {name!r}; "
                          f"known: {sorted(scales)}") from None
