"""Data-retention physics: weak cells and Variable Retention Time (VRT).

U-TRR's side channel is the data-retention failure: a DRAM cell left
unrefreshed longer than its retention time loses its charge and its
stored bit decays to the cell's discharged value.  This module generates
per-row weak-cell populations deterministically (from the module's seed
factory) and evaluates which cells have failed after a given unrefreshed
interval.

Model summary
-------------
* Each row hosts ``Poisson(weak_cells_per_row_mean)`` weak cells; all
  other cells are "strong" and never fail within experiment time scales
  (real strong cells retain for many seconds at 85 C).
* Weak-cell retention times are log-uniform between ``min_retention_ms``
  and ``max_retention_ms`` — matching the empirical spread that lets Row
  Scout find rows failing anywhere from ~100 ms upward (§4.2).
* Each weak cell has a *polarity*: the stored value that corresponds to
  the charged (decay-prone) state.  A cell only decays if the row's data
  holds that value at the cell position, reproducing the data-pattern
  dependence of retention profiling (§3.1).
* A configurable fraction of weak cells exhibit VRT (§4.1): their
  retention toggles between the base value and an alternate value at
  random observation points.  Row Scout's repeated consistency validation
  exists precisely to reject rows containing such cells.
* Retention scales with temperature: halving per +10 C around the 85 C
  reference, the fixed test temperature used in the paper (§6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..rng import SeedSequenceFactory
from ..units import PS_PER_MS


@dataclass(frozen=True)
class RetentionConfig:
    """Parameters of the retention-failure population."""

    weak_cells_per_row_mean: float = 0.12
    min_retention_ms: float = 80.0
    max_retention_ms: float = 8000.0
    vrt_fraction: float = 0.12
    #: Alternate VRT retention as a multiple of the base (low, high).
    vrt_ratio_range: tuple[float, float] = (0.25, 0.6)
    #: Probability that a VRT cell toggles state at each observation.
    vrt_toggle_probability: float = 0.04
    temperature_c: float = 85.0
    reference_temperature_c: float = 85.0

    def __post_init__(self) -> None:
        if self.weak_cells_per_row_mean < 0:
            raise ConfigError("weak_cells_per_row_mean must be >= 0")
        if not 0 < self.min_retention_ms < self.max_retention_ms:
            raise ConfigError("retention range must satisfy 0 < min < max")
        if not 0 <= self.vrt_fraction <= 1:
            raise ConfigError("vrt_fraction must be in [0, 1]")
        low, high = self.vrt_ratio_range
        if not 0 < low <= high:
            raise ConfigError("vrt_ratio_range must satisfy 0 < low <= high")
        if not 0 <= self.vrt_toggle_probability <= 1:
            raise ConfigError("vrt_toggle_probability must be in [0, 1]")

    def temperature_factor(self) -> float:
        """Retention multiplier for the configured temperature.

        Retention roughly halves for every +10 C; the factor is 1.0 at the
        85 C reference so paper-calibrated values apply unchanged.
        """
        delta = self.reference_temperature_c - self.temperature_c
        return float(2.0 ** (delta / 10.0))


class RowRetentionProfile:
    """Weak-cell population of a single row (lazy, seeded, mutable VRT state).

    Attributes are parallel numpy arrays over the row's weak cells.
    """

    __slots__ = ("positions", "base_retention_ps", "alt_retention_ps",
                 "polarity", "is_vrt", "vrt_state", "has_vrt",
                 "cell_floor_ps", "floor_ps")

    def __init__(self, positions: np.ndarray, base_retention_ps: np.ndarray,
                 alt_retention_ps: np.ndarray, polarity: np.ndarray,
                 is_vrt: np.ndarray) -> None:
        self.positions = positions
        self.base_retention_ps = base_retention_ps
        self.alt_retention_ps = alt_retention_ps
        self.polarity = polarity
        self.is_vrt = is_vrt
        #: True = cell currently in its alternate retention state.
        self.vrt_state = np.zeros(len(positions), dtype=bool)
        #: The VRT membership is fixed at generation; settle consults it
        #: on every observation, so the any() scan is done once here.
        self.has_vrt = bool(is_vrt.any())
        #: Per-cell shortest retention over both VRT states.
        self.cell_floor_ps = base_retention_ps
        if self.has_vrt:
            self.cell_floor_ps = np.where(
                is_vrt, np.minimum(base_retention_ps, alt_retention_ps),
                base_retention_ps)
        #: Shortest retention any cell has in any VRT state: no cell
        #: decays while the unrefreshed time stays below it (``inf``
        #: without weak cells).  Settle and fusion share this bound.
        self.floor_ps = self.floor_for()

    def __len__(self) -> int:
        return len(self.positions)

    def floor_for(self, cell_bits: np.ndarray | None = None) -> int | float:
        """:attr:`floor_ps` over the cells *cell_bits* exposes.

        *cell_bits* holds the stored bit of each profile cell; only a
        cell storing its charged polarity can decay, so while the row
        holds the same data no cell decays before this time.
        """
        floors = self.cell_floor_ps
        if cell_bits is not None:
            floors = floors[cell_bits == self.polarity]
        return int(floors.min()) if len(floors) else float("inf")

    @property
    def current_retention_ps(self) -> np.ndarray:
        """Per-cell retention times given current VRT state."""
        if not self.has_vrt:
            # vrt_state can never leave all-False; the base array is the
            # answer (returned by reference — callers do not mutate it).
            return self.base_retention_ps
        return np.where(self.vrt_state, self.alt_retention_ps,
                        self.base_retention_ps)

    def failed_cells(self, elapsed_ps: int,
                     cell_bits: np.ndarray | None = None) -> np.ndarray:
        """Indices (into the profile) of cells that decay after *elapsed_ps*.

        *cell_bits*, when given, holds the stored bit of each profile cell
        (aligned with ``positions``); a cell only decays if its stored bit
        equals the cell's charged polarity.
        """
        if len(self.positions) == 0:
            return np.empty(0, dtype=np.int64)
        failing = self.current_retention_ps <= elapsed_ps
        if cell_bits is not None:
            failing &= cell_bits == self.polarity
        return np.flatnonzero(failing)

    def toggle_vrt(self, rng: np.random.Generator,
                   toggle_probability: float) -> None:
        """Randomly toggle VRT cells (called at each row observation)."""
        if not self.has_vrt or toggle_probability <= 0:
            return
        flips = self.is_vrt & (rng.random(len(self.positions))
                               < toggle_probability)
        self.vrt_state ^= flips

    def min_retention_ps(self, cell_bits: np.ndarray | None = None) -> int:
        """Ground-truth retention time of the row given per-cell stored bits.

        Returns a very large sentinel when no weak cell is exposed by the
        stored pattern.  Test/analysis helper — the U-TRR tools never call
        this; they measure it through the side channel.
        """
        if len(self.positions) == 0:
            return np.iinfo(np.int64).max
        retention = self.current_retention_ps
        if cell_bits is not None:
            exposed = cell_bits == self.polarity
            if not exposed.any():
                return np.iinfo(np.int64).max
            retention = retention[exposed]
        return int(retention.min())


def generate_profile(seeds: SeedSequenceFactory, bank: int, row: int,
                     config: RetentionConfig,
                     row_bits: int) -> RowRetentionProfile:
    """Deterministically generate the weak-cell profile of one row."""
    rng = seeds.stream("retention", bank, row)
    count = int(rng.poisson(config.weak_cells_per_row_mean))
    if count == 0:
        empty = np.empty(0, dtype=np.int64)
        return RowRetentionProfile(empty, empty.copy(), empty.copy(),
                                   np.empty(0, dtype=np.uint8),
                                   np.empty(0, dtype=bool))
    positions = rng.choice(row_bits, size=min(count, row_bits), replace=False)
    positions = positions.astype(np.int64)
    count = len(positions)
    log_min = np.log(config.min_retention_ms)
    log_max = np.log(config.max_retention_ms)
    retention_ms = np.exp(rng.uniform(log_min, log_max, size=count))
    retention_ms *= config.temperature_factor()
    # ``units.ms`` per cell, vectorized: the same product, rounded half
    # to even.
    base = np.rint(retention_ms * PS_PER_MS).astype(np.int64)
    ratio_low, ratio_high = config.vrt_ratio_range
    ratios = rng.uniform(ratio_low, ratio_high, size=count)
    alt = (base * ratios).astype(np.int64)
    polarity = rng.integers(0, 2, size=count, dtype=np.uint8)
    is_vrt = rng.random(count) < config.vrt_fraction
    return RowRetentionProfile(positions, base, alt, polarity, is_vrt)
