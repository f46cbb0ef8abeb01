"""Bank state: lazily materialized rows with settle-on-observe faults.

A bank tracks only the rows an experiment has touched.  Each tracked row
stores its data as ``pattern + sparse fault overrides`` plus two fault
clocks: the wall time of its last charge restoration (any activation or
refresh restores charge) and its accumulated RowHammer disturbance.

Faults are *settled* lazily, at observation points (reads and refreshes):
pending retention decay and hammer flips are committed into the fault
overlay, and only then is the charge clock reset.  A refresh that arrives
after a cell has already decayed therefore restores the **decayed** value
— exactly the physical behaviour U-TRR's side channel relies on (§3.2,
footnote 4).

A regular-refresh slot does not commit that decay itself when nothing
else about the row is ordered (no VRT cell, a neutral environment, no
disturbance that could flip a cell): it keeps the longest such refresh
gap as the row's pending decay, which the row's next settle commits
before its own compares and its next write drops.  That is exact: a
decayed cell keeps its discharged value until it is rewritten, so a run
of gaps decays exactly the cells the longest gap decays, and nothing
but a settle or a write changes a row's data.

A row's retention profile is drawn at its first observation.  A
row-range write draws the profiles its rows still lack as one block
first (:func:`~repro.dram.retention.generate_profiles`, equal to the
per-row draws) and parks them until each row's first observation takes
its own, so rows are materialized and observed in the same order as by
per-row writes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..rng import SeedSequenceFactory
from .commands import ActBatch
from .disturbance import (DisturbanceConfig, RowHammerProfile,
                          generate_hammer_profile)
from .environment import ChipEnvironment
from .patterns import AllZeros, DataPattern
from .refresh import RefreshEngine
from .retention import (RetentionConfig, RowRetentionProfile,
                        generate_profile, generate_profiles)

_EPOCH_PATTERN = AllZeros()

_EMPTY_POSITIONS = np.empty(0, dtype=np.int64)
_EMPTY_VALUES = np.empty(0, dtype=np.uint8)
_EMPTY_POSITIONS.setflags(write=False)
_EMPTY_VALUES.setflags(write=False)


class RowState:
    """Mutable state of one tracked (materialized) row.

    The fault overlay is a pair of parallel vectors — sorted unique bit
    positions plus their stored values — instead of a ``dict``: every
    consumer (settle, read, mismatch scan) touches the whole overlay at
    once, so array operations replace per-cell Python loops.
    """

    __slots__ = ("pattern", "fault_positions", "fault_values",
                 "last_recharge_ps", "disturbance", "pending_decay_ps",
                 "retention_profile", "hammer_profile", "_overlay_cache",
                 "_decay_floor_ps")

    def __init__(self, pattern: DataPattern, last_recharge_ps: int) -> None:
        self.pattern = pattern
        #: Sparse overlay, parallel vectors: sorted unique bit positions
        #: (int64) and the stored bit at each (uint8).
        self.fault_positions: np.ndarray = _EMPTY_POSITIONS
        self.fault_values: np.ndarray = _EMPTY_VALUES
        self.last_recharge_ps = last_recharge_ps
        #: Accumulated effective hammers since the last charge restoration.
        self.disturbance = 0.0
        #: The longest refresh gap whose decay a REF slot deferred (0:
        #: none); :meth:`commit_pending_decay` commits it.
        self.pending_decay_ps = 0
        self.retention_profile: RowRetentionProfile | None = None
        self.hammer_profile: RowHammerProfile | None = None
        #: Overlay-lookup memo for ``stored_bits_at``: needle-array id ->
        #: (overlay ref, needles ref, hit mask, overlay indices).  Most
        #: settles commit nothing, so the overlay and both profile
        #: position arrays are unchanged between observations; holding
        #: references keeps the ids valid while entries live.
        self._overlay_cache: dict[int, tuple] = {}
        #: Memo of :meth:`decay_floor_ps`; ``None`` once the data changed.
        self._decay_floor_ps: int | float | None = None

    def clear_faults(self) -> None:
        """Drop the fault overlay and any pending decay (a write)."""
        self.fault_positions = _EMPTY_POSITIONS
        self.fault_values = _EMPTY_VALUES
        self.pending_decay_ps = 0
        self._decay_floor_ps = None

    def decay(self, elapsed_ps: int) -> None:
        """Commit the retention decay of *elapsed_ps* unrefreshed time:
        each weak cell storing its charged value with a retention of at
        most *elapsed_ps* takes its discharged value."""
        profile = self.retention_profile
        failed = profile.failed_cells(elapsed_ps,
                                      self.stored_bits_at(profile.positions))
        if failed.size:
            self.overlay_faults(profile.positions[failed],
                                1 - profile.polarity[failed])

    def commit_pending_decay(self) -> None:
        """Commit the refresh gap a REF slot deferred, if any.

        The row's data has not changed since that REF (a write drops the
        gap, and a settle commits it before anything else), so this
        commits exactly what a settle at the REF would have.
        """
        gap = self.pending_decay_ps
        if gap:
            self.pending_decay_ps = 0
            if gap >= self.decay_floor_ps():
                self.decay(gap)

    def mismatches(self) -> list[int]:
        """Bit positions whose stored bit differs from the written
        pattern (sorted)."""
        overlay = self.fault_positions
        if not overlay.size:
            return []
        written = self.pattern.bits_at(overlay)
        return overlay[written != self.fault_values].tolist()

    def decay_floor_ps(self) -> int | float:
        """The retention floor over the weak cells the stored data
        exposes (:meth:`RowRetentionProfile.floor_for`): no cell decays
        sooner until the data changes by a write or a committed fault.
        On most tracked rows it is ``inf``: the written data charges
        none of the weak cells, or those it charged already decayed."""
        floor = self._decay_floor_ps
        if floor is None:
            profile = self.retention_profile
            floor = self._decay_floor_ps = profile.floor_for(
                self.stored_bits_at(profile.positions))
        return floor

    def overlay_faults(self, positions: np.ndarray,
                       values: np.ndarray) -> None:
        """Merge new faults into the overlay (later entries win).

        Within *positions* a repeated bit position keeps its **last**
        value, matching the insertion order of the per-cell loop this
        replaces; against the existing overlay, new entries override.
        """
        if positions.size == 0:
            return
        self._decay_floor_ps = None
        if positions.size == 1 or bool((positions[1:] > positions[:-1])
                                       .all()):
            # Already sorted unique (settle's commits always are — they
            # index into sorted profile positions): skip the dedup sort.
            uniq = positions
            new_values = values.astype(np.uint8, copy=False)
        else:
            # Dedup keeping the last occurrence: the first occurrence in
            # the reversed array is the last in the original.
            uniq, first_in_reversed = np.unique(positions[::-1],
                                                return_index=True)
            new_values = np.ascontiguousarray(
                values[::-1][first_in_reversed]).astype(np.uint8,
                                                        copy=False)
        old_positions = self.fault_positions
        if old_positions.size:
            kept = ~_membership_mask(uniq, old_positions)
            merged_positions = np.concatenate(
                [old_positions[kept], uniq])
            merged_values = np.concatenate(
                [self.fault_values[kept], new_values])
            order = np.argsort(merged_positions, kind="stable")
            self.fault_positions = merged_positions[order]
            self.fault_values = merged_values[order]
        else:
            self.fault_positions = uniq
            self.fault_values = new_values

    def stored_bits_at(self, positions: np.ndarray) -> np.ndarray:
        """Current stored bits at *positions* (pattern + fault overlay)."""
        # bits_at materializes a fresh array, safe to overlay in place.
        bits = self.pattern.bits_at(positions)
        overlay = self.fault_positions
        if overlay.size:
            cached = self._overlay_cache.get(id(positions))
            if (cached is not None and cached[0] is overlay
                    and cached[1] is positions):
                hit, overlay_indices = cached[2], cached[3]
            else:
                indices = np.searchsorted(overlay, positions)
                hit = np.zeros(len(positions), dtype=bool)
                in_bounds = indices < overlay.size
                hit[in_bounds] = (overlay[indices[in_bounds]]
                                  == positions[in_bounds])
                overlay_indices = indices[hit]
                if len(self._overlay_cache) >= 8:
                    self._overlay_cache.clear()
                self._overlay_cache[id(positions)] = (
                    overlay, positions, hit, overlay_indices)
            bits[hit] = self.fault_values[overlay_indices]
        return bits


def _membership_mask(sorted_haystack: np.ndarray,
                     needles: np.ndarray) -> np.ndarray:
    """Boolean mask over *needles* marking members of *sorted_haystack*."""
    indices = np.searchsorted(sorted_haystack, needles)
    mask = np.zeros(len(needles), dtype=bool)
    in_bounds = indices < sorted_haystack.size
    mask[in_bounds] = sorted_haystack[indices[in_bounds]] == needles[in_bounds]
    return mask


class Bank:
    """One DRAM bank: physical rows, fault physics, refresh bookkeeping."""

    def __init__(self, index: int, num_rows: int, row_bits: int,
                 retention_config: RetentionConfig,
                 disturbance_config: DisturbanceConfig,
                 seeds: SeedSequenceFactory,
                 refresh_engine: RefreshEngine,
                 environment: ChipEnvironment | None = None) -> None:
        if num_rows <= 0 or row_bits <= 0:
            raise ConfigError("num_rows and row_bits must be positive")
        self.index = index
        #: Shared physical environment (fault injection's physics seam);
        #: ``None`` behaves exactly like a neutral environment.
        self.environment = environment
        self.num_rows = num_rows
        self.row_bits = row_bits
        self.retention_config = retention_config
        self.disturbance_config = disturbance_config
        self._seeds = seeds
        self._refresh_engine = refresh_engine
        self._vrt_rng = seeds.stream("vrt-dynamics", index)
        self.rows: dict[int, RowState] = {}
        #: Tracked rows grouped by regular-refresh slot; a slot is a key
        #: only once it holds a row, so the chip skips the others.
        self.slot_rows: dict[int, set[int]] = {}
        #: Most recently activated row: consecutive activations of one
        #: row cascade across batch boundaries exactly as within one.
        self._last_activated: int | None = None
        #: Materialized full-row pattern buffers (read-only masters) —
        #: reads copy these instead of rebuilding ``pattern.full``.
        self._pattern_buffers: dict[DataPattern, np.ndarray] = {}
        #: Victim/coupling lists per aggressor (pure function of the
        #: disturbance config and bank geometry).
        self._victims: dict[int, tuple[tuple[int, float], ...]] = {}
        #: No cell of any row flips below this many effective hammers
        #: (:attr:`DisturbanceConfig.row_threshold_floor`), so a row
        #: disturbed less needs no hammer profile.
        self._hammer_floor = disturbance_config.row_threshold_floor
        #: Retention profiles a row-range write drew as one block, each
        #: waiting for its row's first :meth:`_retention`.
        self._parked: dict[int, RowRetentionProfile] = {}

    # -- materialization ---------------------------------------------------

    def state(self, row: int) -> RowState:
        """Return (materializing if needed) the state of physical *row*."""
        existing = self.rows.get(row)
        if existing is not None:
            return existing
        if not 0 <= row < self.num_rows:
            raise ConfigError(
                f"row {row} out of range [0, {self.num_rows})")
        # A row untouched so far held the epoch pattern and was last
        # recharged by whichever regular refresh most recently covered it.
        last = self._refresh_engine.last_regular_refresh_ps(row)
        state = RowState(_EPOCH_PATTERN, last)
        self.rows[row] = state
        slot = self._refresh_engine.slot_of(row)
        self.slot_rows.setdefault(slot, set()).add(row)
        return state

    def _retention(self, row: int, state: RowState) -> RowRetentionProfile:
        if state.retention_profile is None:
            profile = self._parked.pop(row, None)
            if profile is None:
                profile = generate_profile(
                    self._seeds, self.index, row, self.retention_config,
                    self.row_bits)
            state.retention_profile = profile
        return state.retention_profile

    def _hammer(self, row: int, state: RowState) -> RowHammerProfile:
        if state.hammer_profile is None:
            state.hammer_profile = generate_hammer_profile(
                self._seeds, self.index, row, self.disturbance_config,
                self.row_bits)
        return state.hammer_profile

    # -- fault settlement --------------------------------------------------

    def _observe(self, row: int, state: RowState, now_ps: int) -> int:
        """The side effects every observation of *row* has, committed or
        not: draw its VRT toggles from the bank's shared stream and ask
        the environment for its scaled unrefreshed time (a stale-row
        query is drawn and recorded on first use).  Returns that time,
        or 0 when the row has no weak cells."""
        profile = state.retention_profile
        if profile is None:
            profile = self._retention(row, state)
        if not profile.positions.size:
            return 0
        environment = self.environment
        if profile.has_vrt:
            toggle_probability = self.retention_config.vrt_toggle_probability
            if environment is not None:
                toggle_probability = environment.toggle_probability(
                    toggle_probability)
            profile.toggle_vrt(self._vrt_rng, toggle_probability)
        elapsed = now_ps - state.last_recharge_ps
        if environment is not None and elapsed > 0:
            elapsed = environment.effective_elapsed(self.index, row, elapsed)
        return elapsed

    def settle(self, row: int, now_ps: int) -> None:
        """Commit pending retention decay and hammer flips into the row.

        A refresh gap a REF slot deferred is committed first
        (:meth:`RowState.commit_pending_decay`).  Each compare then runs
        only when its bound allows a commit: the scaled unrefreshed time
        has reached the row's retention floor (first ``floor_ps``, then
        the tighter floor of the cells its data exposes,
        :meth:`RowState.decay_floor_ps`), or the disturbance has reached
        the weakest hammer threshold (first the bank's threshold floor,
        so a row disturbed less builds no hammer profile, then the
        row's own).  Below both, the settle provably commits nothing;
        the observation's side effects (:meth:`_observe`) still come
        first, since later draws from the shared VRT stream depend on
        them.
        """
        state = self.rows.get(row)
        if state is None:
            state = self.state(row)
        elapsed = self._observe(row, state, now_ps)
        if state.pending_decay_ps:
            state.commit_pending_decay()
        if (elapsed > 0 and elapsed >= state.retention_profile.floor_ps
                and elapsed >= state.decay_floor_ps()):
            state.decay(elapsed)
        disturbance = state.disturbance
        if disturbance > 0 and disturbance >= self._hammer_floor:
            hammer = self._hammer(row, state)
            if disturbance >= hammer.base_threshold:
                stored = state.stored_bits_at(hammer.positions)
                flipped = hammer.flipped_cells(disturbance, stored)
                if flipped.size:
                    state.overlay_faults(hammer.positions[flipped],
                                         1 - hammer.polarity[flipped])

    def _recharge(self, state: RowState, now_ps: int) -> None:
        state.last_recharge_ps = now_ps
        state.disturbance = 0.0

    # -- host-visible operations (physical addressing) ----------------------

    def write(self, row: int, pattern: DataPattern, now_ps: int) -> None:
        """Overwrite the whole row; restores charge and clears faults."""
        state = self.state(row)
        state.pattern = pattern
        state.clear_faults()
        self._recharge(state, now_ps)

    def _pattern_full(self, pattern: DataPattern) -> np.ndarray:
        """Read-only materialized buffer for *pattern* (cached).

        Patterns hash by content, so repeated reads of the same data
        reuse one buffer instead of rebuilding ``pattern.full`` per read.
        """
        buffer = self._pattern_buffers.get(pattern)
        if buffer is None:
            if len(self._pattern_buffers) >= 256:
                self._pattern_buffers.clear()
            buffer = pattern.full(self.row_bits)
            buffer.setflags(write=False)
            self._pattern_buffers[pattern] = buffer
        return buffer

    def read(self, row: int, now_ps: int) -> np.ndarray:
        """Settle and return the row's stored bits; the ACT recharges it."""
        self.settle(row, now_ps)
        state = self.rows[row]
        bits = self._pattern_full(state.pattern).copy()
        if state.fault_positions.size:
            bits[state.fault_positions] = state.fault_values
        self._recharge(state, now_ps)
        return bits

    def read_mismatches(self, row: int, now_ps: int) -> list[int]:
        """Settle and return positions whose stored bit differs from the
        row's written pattern (sorted).  The ACT recharges the row."""
        self.settle(row, now_ps)
        state = self.rows[row]
        result = state.mismatches()
        self._recharge(state, now_ps)
        return result

    # -- row-range commands (physical addressing) ----------------------------
    # Row i of a range is activated at ``start_ps + i * step_ps``; each
    # row runs exactly what the chip's per-row command runs, without
    # the one-ACT batch that command builds.

    def _activate(self, row: int, now_ps: int,
                  overwrite: bool) -> RowState:
        """:meth:`absorb_hammering` of one ACT of *row*; returns the row's
        state, recharged at *now_ps*."""
        effective = 1.0
        if row == self._last_activated:
            effective -= 1.0 - self.disturbance_config.cascade_weight
        self._last_activated = row
        rows = self.rows
        state = rows.get(row)
        if state is None:
            state = self.state(row)
        if overwrite:
            self._observe(row, state, now_ps)
        else:
            self.settle(row, now_ps)
        self._recharge(state, now_ps)
        for victim, weight in self._victims_of(row):
            victim_state = rows.get(victim)
            if victim_state is None:
                victim_state = self.state(victim)
            victim_state.disturbance += effective * weight
        return state

    def write_rows(self, rows, pattern: DataPattern, start_ps: int,
                   step_ps: int) -> None:
        """Activate and overwrite each of *rows* in order: the ACT left
        the row recharged, so :meth:`write` only replaces its data.

        The retention profiles the range still lacks are drawn first, as
        one block (:func:`generate_profiles`), and parked for each row's
        first :meth:`_retention`; the loop then materializes and
        observes the rows in order, exactly as per-row writes would."""
        states = self.rows
        missing = [row for row in rows
                   if (state := states.get(row)) is None
                   or state.retention_profile is None]
        if missing:
            self._parked.update(zip(missing, generate_profiles(
                self._seeds, self.index, missing, self.retention_config,
                self.row_bits)))
        now_ps = start_ps
        for row in rows:
            state = self._activate(row, now_ps, overwrite=True)
            state.pattern = pattern
            state.clear_faults()
            now_ps += step_ps

    def read_rows_mismatches(self, rows, start_ps: int,
                             step_ps: int) -> list[list[int]]:
        """Activate each of *rows* in order and return its
        :meth:`read_mismatches`.  The ACT left the row recharged with no
        disturbance, so the read's settle is only its observation, which
        at zero unrefreshed time draws VRT toggles and nothing else, and
        its recharge changes nothing."""
        mismatches = []
        now_ps = start_ps
        for row in rows:
            state = self._activate(row, now_ps, overwrite=False)
            if state.retention_profile.has_vrt:
                self._observe(row, state, now_ps)
            mismatches.append(state.mismatches())
            now_ps += step_ps
        return mismatches

    def _victims_of(self, aggressor: int) -> tuple[tuple[int, float], ...]:
        victims = self._victims.get(aggressor)
        if victims is None:
            victims = tuple(self.disturbance_config.victims_of(
                aggressor, self.num_rows))
            self._victims[aggressor] = victims
        return victims

    def absorb_hammering(self, batch: ActBatch, now_ps: int,
                         overwrite: bool = False) -> None:
        """Apply an ACT batch: recharge aggressors, disturb their victims.

        *overwrite*: the caller overwrites the aggressors right after
        (the implicit ACT of a row write), which clears whatever a
        settle would commit, so they are only observed.
        """
        if batch.total == 0:
            return
        effective = self.disturbance_config.effective_acts(batch)
        # Cross-batch cascade continuity: if this batch starts with the
        # row the previous activation ended on, its first activation is a
        # run continuation, not a fresh full-strength run.
        first_row = batch.first_row
        if first_row == self._last_activated and effective.get(first_row):
            effective[first_row] -= (
                1.0 - self.disturbance_config.cascade_weight)
        self._last_activated = batch.last_row
        rows = self.rows
        for aggressor, eff_acts in effective.items():
            if not 0 <= aggressor < self.num_rows:
                raise ConfigError(f"aggressor row {aggressor} out of range")
            if overwrite:
                self._observe(aggressor, self.state(aggressor), now_ps)
            else:
                self.settle(aggressor, now_ps)
            self._recharge(rows[aggressor], now_ps)
            for victim, weight in self._victims_of(aggressor):
                victim_state = rows.get(victim)
                if victim_state is None:
                    victim_state = self.state(victim)
                victim_state.disturbance += eff_acts * weight

    def _steady_effective(self, batch: ActBatch) -> dict[int, float]:
        """Per-aggressor effective counts of *batch* when it follows an
        identical copy of itself (the cascade-continuity steady state)."""
        effective = self.disturbance_config.effective_acts(batch)
        first_row = batch.first_row
        if first_row == batch.last_row and effective.get(first_row):
            effective[first_row] -= (
                1.0 - self.disturbance_config.cascade_weight)
        return effective

    def fusion_safe(self, batch: ActBatch, step_ps: int) -> bool:
        """True when back-to-back repeats of *batch* (one per *step_ps*)
        provably commit nothing at the intermediate aggressor settles.

        :meth:`absorb_repeated` reproduces the per-command execution of
        K identical batches exactly — but only if the settles it skips
        would have been no-ops.  Each skipped settle sees an aggressor
        ``step_ps`` after its last recharge, carrying only the
        cross-coupled disturbance of one command.  The settle is a
        provable no-op when the aggressor's profile has no VRT cells
        (the toggle draw would consume shared RNG) and stays below the
        two bounds :meth:`settle` skips its compares by: ``step_ps``
        below the retention floor, and the cross-coupled disturbance
        strictly below the weakest hammer threshold.  The disturbance
        bound uses the *full* (non-continued) effective counts — an
        upper bound on both the first and the steady command — with a
        1% float-ordering margin.
        """
        if batch.total == 0:
            return False
        environment = self.environment
        if environment is not None and not environment.neutral:
            return False
        effective = self.disturbance_config.effective_acts(batch)
        cross: dict[int, float] = {row: 0.0 for row in effective}
        for aggressor, eff_acts in effective.items():
            if not 0 <= aggressor < self.num_rows:
                raise ConfigError(f"aggressor row {aggressor} out of range")
            for victim, weight in self._victims_of(aggressor):
                if victim in cross:
                    cross[victim] += eff_acts * weight
        for aggressor in effective:
            state = self.state(aggressor)
            profile = self._retention(aggressor, state)
            if profile.has_vrt or step_ps >= profile.floor_ps:
                return False
            added = cross[aggressor]
            if added > 0.0 and added >= 0.99 * self._hammer_floor:
                # Below the threshold floor the row's own bound holds
                # too, so only a row disturbed past it builds a profile.
                hammer = self._hammer(aggressor, state)
                if added >= 0.99 * hammer.base_threshold:
                    return False
        return True

    def absorb_repeated(self, batch: ActBatch, now_ps: int, repeats: int,
                        step_ps: int) -> None:
        """Apply *repeats* identical copies of *batch*, the i-th at
        ``now_ps + i * step_ps``, in one pass.

        Bit-exact reconstruction of the sequential loop given the
        :meth:`fusion_safe` guarantee that intermediate aggressor
        settles commit nothing: the first command runs verbatim (it
        carries the cross-batch cascade continuity against whatever ran
        before), then the remaining ``repeats - 1`` steady commands
        collapse into closed forms — victims accumulate their
        per-command disturbance additions in the exact sequential float
        order (``np.add.accumulate`` is strictly left-to-right),
        aggressors end recharged at the final command's timestamp
        holding only the additions later-ordered aggressors made after
        their recharge.
        """
        self.absorb_hammering(batch, now_ps)
        if repeats <= 1:
            return
        effective = self._steady_effective(batch)
        order = {row: index for index, row in enumerate(effective)}
        victim_adds: dict[int, list[float]] = {}
        residual: dict[int, float] = {row: 0.0 for row in effective}
        for aggressor, eff_acts in effective.items():
            position = order[aggressor]
            for victim, weight in self._victims_of(aggressor):
                add = eff_acts * weight
                other = order.get(victim)
                if other is None:
                    victim_adds.setdefault(victim, []).append(add)
                elif other < position:
                    # Lands after the victim-aggressor's own recharge in
                    # the final command, so it survives the run.
                    residual[victim] += add
        rows = self.rows
        tiles = repeats - 1
        for victim, adds in victim_adds.items():
            state = rows.get(victim)
            if state is None:
                state = self.state(victim)
            sequence = np.empty(1 + len(adds) * tiles, dtype=np.float64)
            sequence[0] = state.disturbance
            # One row per repeat, broadcast (np.tile costs more per call).
            sequence[1:].reshape(tiles, len(adds))[:] = adds
            state.disturbance = float(np.add.accumulate(sequence)[-1])
        final_ps = now_ps + tiles * step_ps
        for aggressor in effective:
            state = rows[aggressor]
            state.last_recharge_ps = final_ps
            state.disturbance = residual[aggressor]

    def refresh_rows(self, rows, now_ps: int) -> None:
        """Refresh specific rows (used for TRR-induced refreshes)."""
        for row in rows:
            self.settle(row, now_ps)
            self._recharge(self.rows[row], now_ps)

    def regular_refresh(self, slot: int, now_ps: int) -> None:
        """Apply a regular-refresh slot to the tracked rows it covers.

        A row whose settle has no ordered side effect is only recharged:
        its profile has no VRT cell (no toggle draw), the environment is
        neutral (no elapsed-time query), and its disturbance is below
        the bank's threshold floor (no flip).  A gap that reached its
        retention floor becomes its pending decay (the longest so far,
        :attr:`RowState.pending_decay_ps`), which its next settle
        commits and its next write drops.  Every other row settles here.
        """
        environment = self.environment
        neutral = environment is None or environment.neutral
        hammer_floor = self._hammer_floor
        rows = self.rows
        for row in self.slot_rows.get(slot, ()):
            state = rows[row]
            profile = state.retention_profile
            if profile is None:
                profile = self._retention(row, state)
            if (not neutral or profile.has_vrt
                    or state.disturbance >= hammer_floor):
                self.settle(row, now_ps)
            else:
                gap = now_ps - state.last_recharge_ps
                if gap >= profile.floor_ps and gap > state.pending_decay_ps:
                    state.pending_decay_ps = gap
            self._recharge(state, now_ps)

    # -- ground-truth helpers (tests/analysis only; tools never call) -------

    def true_retention_ps(self, row: int, pattern: DataPattern) -> int:
        """Ground-truth retention time of *row* under *pattern*."""
        state = self.state(row)
        profile = self._retention(row, state)
        if not len(profile):
            return np.iinfo(np.int64).max
        return profile.min_retention_ps(pattern.bits_at(profile.positions))

    def true_min_hammer_threshold(self, row: int,
                                  pattern: DataPattern | None = None
                                  ) -> float:
        """Ground-truth weakest victim-cell threshold of *row*.

        With *pattern* given, only cells whose charged polarity is exposed
        by the stored data count (RowHammer is data-dependent).
        """
        state = self.state(row)
        profile = self._hammer(row, state)
        if pattern is None:
            return profile.base_threshold
        return profile.min_threshold_for(pattern.bits_at(profile.positions))
