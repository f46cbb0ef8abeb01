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

Each row's profile comes from its own PCG64 stream, keyed on (bank,
row).  :func:`generate_profile` draws one row with numpy's ``Generator``
and stays the reference.  :func:`generate_profiles` draws many rows at
once and returns the same profiles: it steps every row's stream side by
side (:class:`~repro.rng.PCG64Lanes`) and runs numpy's own algorithms
for each draw, handing back to :func:`generate_profile` the few rows
whose draws it does not mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..errors import ConfigError
from ..rng import PCG64Lanes, SeedSequenceFactory
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
        for field in fields(self):
            value = getattr(self, field.name)
            if not all(map(math.isfinite, value if isinstance(value, tuple)
                           else (value,))):
                raise ConfigError(f"{field.name} must be finite, "
                                  f"got {value!r}")
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


def _assembled(positions, base, alt, polarity, is_vrt, vrt_state, has_vrt,
               cell_floor_ps, floor_ps) -> RowRetentionProfile:
    """A profile whose derived fields the caller already computed."""
    profile = RowRetentionProfile.__new__(RowRetentionProfile)
    profile.positions = positions
    profile.base_retention_ps = base
    profile.alt_retention_ps = alt
    profile.polarity = polarity
    profile.is_vrt = is_vrt
    profile.vrt_state = vrt_state
    profile.has_vrt = has_vrt
    profile.cell_floor_ps = cell_floor_ps
    profile.floor_ps = floor_ps
    return profile


def _poisson(lanes: PCG64Lanes, lam: float) -> np.ndarray:
    """``Generator.poisson(lam)`` in every lane, for ``0 < lam < 10``:
    numpy's multiplication method (``random_poisson_mult``)."""
    enlam = math.exp(-lam)
    counts = np.zeros(len(lanes), dtype=np.int64)
    product = np.ones(len(lanes))
    active = np.arange(len(lanes))
    while active.size:
        product[active] *= lanes.next_double(active)
        active = active[product[active] > enlam]
        counts[active] += 1
    return counts


def generate_profiles(seeds: SeedSequenceFactory, bank: int, rows,
                      config: RetentionConfig,
                      row_bits: int) -> list[RowRetentionProfile]:
    """``[generate_profile(seeds, bank, row, config, row_bits) for row
    in rows]``, drawn as one block.

    Every row keeps its own PCG64 stream (:class:`PCG64Lanes`), and the
    block runs numpy's own ``Generator`` algorithms on those streams, so
    each profile equals the per-row one field for field.  A row whose
    draws the block does not mirror is drawn by :func:`generate_profile`
    itself: every row when the mean is 0 or at least 10 (numpy's
    Poisson switches algorithm there) or *row_bits* needs bounded draws
    past 32 bits, and a row whose cell count reaches *row_bits*, takes
    numpy's tail-shuffle branch of ``choice`` (*row_bits* above 10,000
    and more than ``row_bits // 50`` cells) or has a bounded draw in its
    rejection zone.  Each profile's cells are disjoint views into the
    block's arrays; rows without weak cells share one set of empty
    arrays.
    """
    rows = list(rows)
    lam = config.weak_cells_per_row_mean
    if not rows or not 0 < lam < 10 or row_bits >= 1 << 32:
        return [generate_profile(seeds, bank, row, config, row_bits)
                for row in rows]
    lanes = PCG64Lanes(seeds.seeds("retention", bank, rows=rows))
    counts = _poisson(lanes, lam)
    void = counts >= row_bits
    if row_bits > 10000:
        void |= counts > row_bits // 50
    weak = np.flatnonzero((counts > 0) & ~void)
    n = counts[weak]
    width = int(n.max(initial=0))
    active = [np.flatnonzero(n > k) for k in range(width)]

    # choice(row_bits, n, replace=False): Floyd's algorithm, then a
    # Fisher-Yates pass over the sample, both with bounded draws.
    positions = np.zeros((weak.size, width), dtype=np.int64)
    for k, at in enumerate(active):
        top = row_bits - n[at] + k
        drawn, rejected = lanes.bounded_uint32(weak[at], top)
        drawn = drawn.astype(np.int64)
        taken = (positions[at, :k] == drawn[:, None]).any(axis=1)
        positions[at, k] = np.where(taken, top, drawn)
        void[weak[at[rejected]]] = True
    for k, at in enumerate(active[1:], start=1):
        last = n[at] - k
        other, rejected = lanes.bounded_uint32(weak[at], last)
        other = other.astype(np.int64)
        swapped = positions[at, other]
        positions[at, other] = positions[at, last]
        positions[at, last] = swapped
        void[weak[at[rejected]]] = True

    def doubles() -> np.ndarray:
        out = np.zeros((weak.size, width))
        for k, at in enumerate(active):
            out[at, k] = lanes.next_double(weak[at])
        return out

    retention_u = doubles()
    ratio_u = doubles()
    # integers(0, 2, uint8): the top bit of each byte of buffered
    # 32-bit draws, low byte first.
    polarity = np.zeros((weak.size, width), dtype=np.uint8)
    word = np.zeros(weak.size, dtype=np.uint64)
    for k, at in enumerate(active):
        if k % 4 == 0:
            word[at] = lanes.next32(weak[at])
        polarity[at, k] = (word[at] >> np.uint64(8 * (k % 4) + 7)) & 1
    vrt_u = doubles()

    # Row-major flattening concatenates the rows' cells; the per-row
    # arithmetic below is generate_profile's, element for element.
    cells = np.arange(width) < n[:, None]
    positions = positions[cells]
    log_min = np.log(config.min_retention_ms)
    log_max = np.log(config.max_retention_ms)
    retention_ms = np.exp(log_min + (log_max - log_min) * retention_u[cells])
    retention_ms *= config.temperature_factor()
    base = np.rint(retention_ms * PS_PER_MS).astype(np.int64)
    ratio_low, ratio_high = config.vrt_ratio_range
    alt = (base * (ratio_low + (ratio_high - ratio_low) * ratio_u[cells])
           ).astype(np.int64)
    polarity = polarity[cells]
    is_vrt = vrt_u[cells] < config.vrt_fraction
    vrt_state = np.zeros(is_vrt.size, dtype=bool)
    cell_floor = np.where(is_vrt, np.minimum(base, alt), base)
    ends = np.cumsum(n)
    starts = ends - n
    has_vrt = np.logical_or.reduceat(is_vrt, starts).tolist()
    floors = np.minimum.reduceat(cell_floor, starts).tolist()
    cuts = [slice(start, end)
            for start, end in zip(starts.tolist(), ends.tolist())]

    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
             np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8),
             np.empty(0, dtype=bool), np.empty(0, dtype=bool))
    weak_index = np.full(len(rows), -1)
    weak_index[weak] = np.arange(weak.size)
    profiles = []
    for row, index, voided in zip(rows, weak_index.tolist(), void.tolist()):
        if voided:
            profiles.append(generate_profile(seeds, bank, row, config,
                                             row_bits))
        elif index < 0:
            profiles.append(_assembled(*empty, False, empty[1],
                                       float("inf")))
        else:
            cut = cuts[index]
            row_base = base[cut]
            vrt = has_vrt[index]
            profiles.append(_assembled(
                positions[cut], row_base, alt[cut], polarity[cut],
                is_vrt[cut], vrt_state[cut], vrt,
                cell_floor[cut] if vrt else row_base, floors[index]))
    return profiles
