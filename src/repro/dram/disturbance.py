"""RowHammer disturbance physics.

Hammering (repeatedly activating) an aggressor row electromagnetically
disturbs physically nearby rows; once a victim cell absorbs more
*effective hammers* than its threshold, its stored bit flips (§2.3).

Model summary
-------------
* Coupling strength decays with physical distance: distance-1 victims
  receive weight 1.0 per effective activation, distance-2 victims a small
  configurable weight — which is why vendor A's TRR refreshes +-2 rows
  around a detected aggressor (Vendor A Observation 2).
* Hammer-order matters (§5.2): the first activation after a row switch
  disturbs at full strength, while consecutive same-row activations
  disturb at a reduced ``cascade_weight``.  Interleaved hammering is thus
  strictly more disturbing per activation than cascaded hammering.
* Per-row thresholds are calibrated against the module's ``hc_first``
  (Table 1): the minimum double-sided hammer count that flips the first
  bit anywhere in the bank.  Each vulnerable row hosts a population of
  victim cells with spread thresholds, so flips-per-row grows as hammer
  counts rise past the threshold (Figure 8).
* Row base thresholds are truncated at ``row_threshold_floor``, twenty
  standard deviations of the log-threshold below its mean: a bound
  known without building any row's profile, so a row disturbed less
  (a Row Scout scan pass leaves each row about two effective hammers)
  never builds one.  No draw reaches it, so no threshold changes.
* Victim-cell bit positions are spatially clustered, reproducing the
  multi-flip 8-byte datawords that break SECDED/Chipkill (Figure 10).
* Modules C0-8 use *pair isolation* (Vendor C Observation 3): hammering
  an odd-addressed row disturbs only its even pair row, and hammering an
  even-addressed row disturbs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..rng import SeedSequenceFactory
from .commands import ActBatch


@dataclass(frozen=True)
class DisturbanceConfig:
    """Parameters of the RowHammer coupling and threshold population."""

    #: Minimum double-sided hammers (per aggressor) for the first bit flip
    #: anywhere in a bank; per-module value from Table 1.
    hc_first: int = 25_000
    #: Coupling weight by physical distance from the aggressor.
    neighbor_weights: dict[int, float] = field(
        default_factory=lambda: {1: 1.0, 2: 0.025})
    #: Relative disturbance of consecutive same-row activations.
    cascade_weight: float = 0.35
    #: Pair-isolated row organization (vendor C modules C0-8).
    paired_coupling: bool = False
    #: Lognormal spread of per-row base thresholds around hc_first.
    row_threshold_mu: float = 0.40
    row_threshold_sigma: float = 0.10
    #: Mean number of potential victim cells per vulnerable row.
    victim_cells_mean: float = 60.0
    #: Exponential scale of per-cell threshold spread above the row base.
    threshold_spread_scale: float = 0.5
    #: Fraction of victim cells clustered around shared bit positions.
    cluster_fraction: float = 0.5
    #: Std-dev (in bits) of clustered cell positions around their center.
    cluster_sigma_bits: float = 26.0

    def __post_init__(self) -> None:
        if self.hc_first <= 0:
            raise ConfigError("hc_first must be positive")
        if self.row_threshold_sigma < 0:
            raise ConfigError("row_threshold_sigma must be >= 0")
        if not 0 < self.cascade_weight <= 1:
            raise ConfigError("cascade_weight must be in (0, 1]")
        if not self.neighbor_weights:
            raise ConfigError("neighbor_weights must not be empty")
        for distance, weight in self.neighbor_weights.items():
            if distance <= 0 or weight < 0:
                raise ConfigError("invalid neighbor weight entry")
        if self.victim_cells_mean < 0:
            raise ConfigError("victim_cells_mean must be >= 0")
        if not 0 <= self.cluster_fraction <= 1:
            raise ConfigError("cluster_fraction must be in [0, 1]")

    @property
    def row_threshold_floor(self) -> float:
        """Effective hammers below which no cell of any row flips.

        :func:`generate_hammer_profile` truncates each row's base
        threshold here, twenty standard deviations of the log-threshold
        below its mean, so the bound holds by construction.  numpy's
        normal sampler never returns a deviate of magnitude 14 or more,
        so the truncation never changes a drawn threshold.
        """
        return 2.0 * self.hc_first * float(np.exp(
            self.row_threshold_mu - 20.0 * self.row_threshold_sigma))

    @property
    def blast_radius(self) -> int:
        """Largest victim distance with non-zero coupling."""
        return max(d for d, w in self.neighbor_weights.items() if w > 0)

    def victims_of(self, aggressor: int, num_rows: int
                   ) -> list[tuple[int, float]]:
        """Return ``(victim_physical_row, coupling_weight)`` pairs.

        Under pair isolation, only an odd aggressor disturbs anything,
        and only its even pair row (Vendor C Observation 3).
        """
        if self.paired_coupling:
            if aggressor % 2 == 1:
                return [(aggressor - 1, 1.0)]
            return []
        victims = []
        for distance, weight in sorted(self.neighbor_weights.items()):
            if weight <= 0:
                continue
            for victim in (aggressor - distance, aggressor + distance):
                if 0 <= victim < num_rows:
                    victims.append((victim, weight))
        return victims

    def effective_acts(self, batch: ActBatch) -> dict[int, float]:
        """Per-aggressor effective activation counts for an ACT batch.

        The first activation of each same-row run counts fully; the rest
        count at ``cascade_weight``.
        """
        pattern = batch.pattern
        if len(pattern) == 1:
            # Fast path for the dominant case — a single-aggressor
            # cascade (every row read/write, hammer_single, and most TRR
            # probe traffic) — skipping the run-stats machinery.
            row, count = pattern[0]
            if count == 0:
                return {}
            return {row: 1 + (count - 1) * self.cascade_weight}
        effective: dict[int, float] = {}
        for row, (runs, acts) in batch.run_stats().items():
            effective[row] = runs + (acts - runs) * self.cascade_weight
        return effective


class RowHammerProfile:
    """Victim-cell population of one row (lazy, seeded, immutable)."""

    __slots__ = ("positions", "thresholds", "polarity", "base_threshold")

    def __init__(self, positions: np.ndarray, thresholds: np.ndarray,
                 polarity: np.ndarray) -> None:
        self.positions = positions
        self.thresholds = thresholds
        self.polarity = polarity
        #: Effective hammers needed to flip the row's weakest cell
        #: (``inf`` without victim cells): no cell flips below it.
        #: Settle and fusion share this bound.
        self.base_threshold = (float(thresholds.min()) if len(thresholds)
                               else float("inf"))

    def __len__(self) -> int:
        return len(self.positions)

    def min_threshold_for(self, cell_bits: np.ndarray) -> float:
        """Weakest threshold among cells exposed by per-cell stored bits."""
        if len(self.thresholds) == 0:
            return float("inf")
        exposed = cell_bits == self.polarity
        if not exposed.any():
            return float("inf")
        return float(self.thresholds[exposed].min())

    def flipped_cells(self, effective_hammers: float,
                      cell_bits: np.ndarray | None = None) -> np.ndarray:
        """Indices of cells flipped by *effective_hammers* of disturbance.

        *cell_bits*, when given, holds the stored bit of each profile cell
        (aligned with ``positions``); a cell only flips if its stored bit
        equals the cell's charged polarity.
        """
        if len(self.positions) == 0:
            return np.empty(0, dtype=np.int64)
        flipped = self.thresholds <= effective_hammers
        if cell_bits is not None:
            flipped &= cell_bits == self.polarity
        return np.flatnonzero(flipped)

    def flip_count_at(self, effective_hammers: float) -> int:
        """Number of flippable cells at a disturbance level (any data)."""
        if len(self.thresholds) == 0:
            return 0
        return int((self.thresholds <= effective_hammers).sum())


def generate_hammer_profile(seeds: SeedSequenceFactory, bank: int, row: int,
                            config: DisturbanceConfig,
                            row_bits: int) -> RowHammerProfile:
    """Deterministically generate the victim-cell profile of one row."""
    rng = seeds.stream("hammer", bank, row)
    # Table 1's HC_first counts activations *per aggressor* in double-sided
    # hammering; the victim absorbs disturbance from both neighbors, so the
    # weakest cell threshold is ~2x HC_first effective hammers.
    base = max(2.0 * config.hc_first * float(np.exp(rng.normal(
        config.row_threshold_mu, config.row_threshold_sigma))),
        config.row_threshold_floor)
    count = 1 + int(rng.poisson(config.victim_cells_mean))
    spread = rng.exponential(config.threshold_spread_scale, size=count)
    spread[0] = 0.0  # the weakest cell sits exactly at the row base
    thresholds = base * (1.0 + spread)

    positions = np.empty(count, dtype=np.int64)
    clustered = rng.random(count) < config.cluster_fraction
    num_clustered = int(clustered.sum())
    if num_clustered:
        num_centers = max(2, 2 + int(rng.poisson(3.0)))
        centers = rng.integers(0, row_bits, size=num_centers)
        chosen = centers[rng.integers(0, num_centers, size=num_clustered)]
        offsets = rng.normal(0.0, config.cluster_sigma_bits,
                             size=num_clustered)
        positions[clustered] = np.clip(
            (chosen + offsets).astype(np.int64), 0, row_bits - 1)
    num_uniform = count - num_clustered
    if num_uniform:
        positions[~clustered] = rng.integers(0, row_bits, size=num_uniform)
    polarity = rng.integers(0, 2, size=count, dtype=np.uint8)
    return RowHammerProfile(positions, thresholds, polarity)
