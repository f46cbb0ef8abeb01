"""Sweeps: HC_first measurement, hammer-count sweeps, bank vulnerability.

These drive the paper's quantitative results:

* :func:`measure_hc_first` — Table 1's HC_first column (minimum
  double-sided activations per aggressor for the first bit flip, refresh
  disabled).
* :func:`choose_pattern` — §7.1 attack synthesis from an inferred TRR
  profile: the attacker only uses what U-TRR recovered.
* :func:`run_vulnerability_sweep` — Figures 9 and 10 (fraction of
  vulnerable rows; per-row flip positions for the ECC analysis).
* :func:`run_hammer_sweep` — Figure 8 (flips-per-row distribution vs
  hammers per aggressor per REF): one vulnerability sweep per hammer
  count.

Both sweeps attack each victim position on a freshly built chip, as
U-TRR attacks each sampled row of a freshly initialized module (§7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.inference import InferredTrrProfile
from ..core.mapping_re import CouplingTopology
from ..dram import HammerMode
from ..dram.mapping import RowMapping
from ..dram.patterns import AllOnes, DataPattern
from ..errors import AttackConfigError
from ..softmc import SoftMCHost
from .base import AccessPattern, default_context
from .executor import AttackExecutor
from .vendor_a import VendorAPattern
from .vendor_b import VendorBPattern
from .vendor_c import VendorCPattern


def measure_hc_first(host: SoftMCHost, mapping: RowMapping, bank: int = 0,
                     sample_rows: tuple[int, ...] | None = None,
                     hi: int = 400_000,
                     pattern: DataPattern | None = None,
                     paired: bool = False) -> int:
    """Minimum double-sided hammers per aggressor for the first bit flip.

    Refresh stays disabled throughout (the paper's HC_first protocol), so
    TRR never gets a REF to act on.  Binary-searches each sampled victim
    row and returns the bank minimum.
    """
    pattern = pattern or AllOnes()
    num_rows = host.rows_per_bank
    if sample_rows is None:
        step = max(num_rows // 24, 1)
        sample_rows = tuple(row for row in range(step, num_rows - 2, step))
    if paired:
        sample_rows = tuple(row if row % 2 == 0 else row - 1
                            for row in sample_rows)

    def flips(victim: int, hammers: int) -> bool:
        host.write_row(bank, mapping.to_logical(victim), pattern)
        low, high = victim - 1, victim + 1
        host.hammer(bank, [(mapping.to_logical(low), hammers),
                           (mapping.to_logical(high), hammers)],
                    HammerMode.INTERLEAVED)
        return bool(host.read_row_mismatches(bank,
                                             mapping.to_logical(victim)))

    best = hi
    for victim in sample_rows:
        if not flips(victim, hi):
            continue
        lo, cur_hi = 1, hi
        while lo < cur_hi:
            mid = (lo + cur_hi) // 2
            if flips(victim, mid):
                cur_hi = mid
            else:
                lo = mid + 1
        best = min(best, lo)
    return best


def choose_pattern(profile: InferredTrrProfile,
                   aggressor_hammers: int | None = None) -> AccessPattern:
    """§7.1 attack synthesis: pick the custom pattern that defeats the
    reverse-engineered mechanism, using only inferred facts."""
    if profile.detection == "counter":
        if aggressor_hammers is None:
            return VendorAPattern()
        return VendorAPattern(aggressor_hammers=aggressor_hammers)
    if profile.detection == "sampling":
        return VendorBPattern(aggressor_hammers=aggressor_hammers or 80,
                              same_bank_dummy=bool(profile.per_bank))
    if profile.detection == "window":
        return VendorCPattern()
    raise AttackConfigError(
        f"no custom pattern for detection kind {profile.detection!r}")


def victim_positions(num_rows: int, count: int,
                     coupling: CouplingTopology, margin: int = 8
                     ) -> list[int]:
    """Evenly spread victim rows; even-addressed on pair-isolated chips
    (only their upper aggressor is odd and therefore disturbs them)."""
    step = max((num_rows - 2 * margin) // count, 1)
    rows = []
    for i in range(count):
        row = margin + i * step
        if row >= num_rows - margin:
            break
        if coupling is CouplingTopology.PAIRED and row % 2:
            row -= 1
        rows.append(row)
    return sorted(set(rows))


@dataclass
class HammerSweepResult:
    """Figure 8 raw data: hammers/aggressor/REF -> flips per victim row."""

    flips_by_hammers: dict[int, list[int]] = field(default_factory=dict)

    def quartiles(self, hammers: int) -> tuple[float, float, float]:
        values = sorted(self.flips_by_hammers[hammers])
        if not values:
            return (0.0, 0.0, 0.0)

        def pick(q: float) -> float:
            index = q * (len(values) - 1)
            low = int(index)
            high = min(low + 1, len(values) - 1)
            return values[low] + (values[high] - values[low]) * (index - low)

        return pick(0.25), pick(0.5), pick(0.75)


def run_hammer_sweep(new_host, pattern_factory, hammer_counts, positions,
                     trr_period: int, windows: int,
                     paired: bool = False) -> HammerSweepResult:
    """Figure 8: sweep hammers-per-aggressor, measure flips per row.

    One :func:`run_vulnerability_sweep` per hammer count, each attack
    run on a fresh chip from *new_host*.
    """
    result = HammerSweepResult()
    for hammers in hammer_counts:
        sweep = run_vulnerability_sweep(new_host, pattern_factory(hammers),
                                        positions, trr_period, windows,
                                        paired=paired)
        result.flips_by_hammers[hammers] = [
            len(sweep.flips_by_row[victim]) for victim in positions]
    return result


@dataclass
class VulnerabilityResult:
    """Figure 9/10 raw data for one module."""

    positions: list[int]
    flips_by_row: dict[int, list[int]]  #: physical row -> flip positions
    windows: int

    @property
    def vulnerable_fraction(self) -> float:
        if not self.positions:
            return 0.0
        hit = sum(1 for row in self.positions
                  if self.flips_by_row.get(row))
        return hit / len(self.positions)

    @property
    def total_flips(self) -> int:
        return sum(len(f) for f in self.flips_by_row.values())

    def max_flips_per_row(self) -> int:
        return max((len(f) for f in self.flips_by_row.values()), default=0)


def run_vulnerability_sweep(new_host, pattern: AccessPattern, positions,
                            trr_period: int, windows: int,
                            paired: bool = False) -> VulnerabilityResult:
    """Figures 9/10: attack every sampled victim position, record flips.

    *new_host* returns a freshly built ``(host, mapping)`` for each
    position — the power-cycle-between-tests hygiene of real rig
    experiments, which keeps one run's TRR-internal leftovers from
    biasing the next.  Victims sit in bank 0 with the default dummy
    rows of :func:`~repro.attacks.base.default_context`.
    """
    flips_by_row: dict[int, list[int]] = {}
    for victim in positions:
        host, mapping = new_host()
        context = default_context(0, victim, mapping, trr_period,
                                  host.num_banks, paired=paired)
        run = AttackExecutor(host, mapping).run(pattern, context, windows)
        flips_by_row[victim] = run.victim_flips[victim]
    return VulnerabilityResult(positions=list(positions),
                               flips_by_row=flips_by_row, windows=windows)
