"""The fault injector: seeded noise at the SoftMC/chip boundary.

A :class:`FaultInjector` sits between :class:`~repro.softmc.SoftMCHost`
and the chip.  The host consults it around every operation; the injector
in turn drives the chip's :class:`~repro.dram.ChipEnvironment` (VRT
storms, temperature drift, per-row staleness) and perturbs the command
and readback streams (drops, duplicates, bit noise).

Everything is drawn from *named* :mod:`repro.rng` seed streams
(``"fault-vrt"``, ``"fault-temp"``, ``"fault-readnoise"``,
``"fault-commands"``, ``"fault-stale"``), so a chaos run is a pure
function of ``(profile, seed, experiment)``: two identically-seeded runs
produce identical fault traces, bit for bit.  The injector also keeps a
human-readable :attr:`trace` and per-family :attr:`counters` so the
resilience harness can report exactly which faults fired.
"""

from __future__ import annotations

import math

from ..errors import ConfigError
from ..rng import derive_seed, stream
from .profiles import FaultProfile, get_profile

_PS_PER_S = 1_000_000_000_000
_PS_PER_MS = 1_000_000_000


class FaultInjector:
    """Seeded, profile-driven fault source for one chip."""

    def __init__(self, profile: FaultProfile | str = "default",
                 seed: int = 0) -> None:
        if isinstance(profile, str):
            profile = get_profile(profile)
        self.profile = profile
        self.seed = seed
        self.session = 0
        #: (event, now_ps, detail) triples, in injection order.
        self.trace: list[tuple[str, int, int]] = []
        self.counters: dict[str, int] = {}
        self._chip = None
        self._obs = None
        self._vrt_rng = stream("fault-vrt", seed)
        self._temp_rng = stream("fault-temp", seed)
        self._read_rng = stream("fault-readnoise", seed)
        self._command_rng = stream("fault-commands", seed)
        self._stale_cache: dict[tuple[int, int], float] = {}
        # VRT storm schedule (Poisson arrivals, exponential durations).
        self._next_storm_ps: int | None = None
        self._storm_end_ps = -1
        self._storm_active = False
        # Temperature drift phase (radians), fixed per injector.
        self._drift_phase = float(self._temp_rng.uniform(0, 2 * math.pi))

    # -- lifecycle ---------------------------------------------------------

    def attach(self, chip) -> None:
        """Bind to *chip* and start perturbing its environment."""
        if self._chip is not None and self._chip is not chip:
            raise ConfigError("FaultInjector is already attached to a chip")
        self._chip = chip
        if self.profile.stale_row_fraction > 0:
            chip.environment.row_retention_scale = self._stale_scale
        if self.profile.vrt_storm_rate_per_s > 0:
            self._next_storm_ps = chip.now_ps + self._storm_gap_ps()
        self.advance(chip.now_ps)

    def bind_observability(self, obs) -> None:
        """Mirror every injected fault into *obs* (metrics + trace).

        Called by the host at construction with its bundle, which is
        the null bundle when the host records nothing (all the mirrored
        calls are no-ops then).
        """
        self._obs = obs

    def stream_seeds(self) -> dict[str, int]:
        """The derived seed of each named fault stream (for manifests)."""
        return {name: derive_seed(name, self.seed)
                for name in ("fault-vrt", "fault-temp", "fault-readnoise",
                             "fault-commands", "fault-stale")}

    def new_session(self) -> None:
        """Start a new measurement session: stale rows are re-drawn.

        Models the cross-session staleness of a retention profile: rows
        that drifted last session may be fine now and vice versa.
        """
        self.session += 1
        self._stale_cache.clear()
        self._record("session", self._chip.now_ps if self._chip else 0,
                     self.session)

    # -- bookkeeping -------------------------------------------------------

    def _record(self, event: str, now_ps: int, detail: int = 0) -> None:
        self.trace.append((event, now_ps, detail))
        self.counters[event] = self.counters.get(event, 0) + 1
        obs = self._obs
        if obs is not None:
            obs.metrics.inc("faults." + event)
            obs.event("fault:" + event, ps=now_ps, detail=detail)

    def fault_count(self) -> int:
        """Total faults injected (sessions excluded)."""
        return sum(count for event, count in self.counters.items()
                   if event != "session")

    # -- environment: VRT storms + temperature drift -----------------------

    def _storm_gap_ps(self) -> int:
        mean_gap_s = 1.0 / self.profile.vrt_storm_rate_per_s
        return max(int(self._vrt_rng.exponential(mean_gap_s) * _PS_PER_S), 1)

    def _storm_duration_ps(self) -> int:
        mean_ms = self.profile.vrt_storm_duration_ms
        return max(int(self._vrt_rng.exponential(mean_ms) * _PS_PER_MS), 1)

    def advance(self, now_ps: int) -> None:
        """Bring the chip environment up to the simulated time *now_ps*."""
        profile = self.profile
        environment = self._chip.environment if self._chip else None
        if environment is None:
            return
        if self._next_storm_ps is not None:
            while now_ps >= self._next_storm_ps:
                start = self._next_storm_ps
                self._storm_end_ps = max(self._storm_end_ps,
                                         start + self._storm_duration_ps())
                self._next_storm_ps = start + self._storm_gap_ps()
                self._record("vrt-storm", start,
                             self._storm_end_ps - start)
            active = now_ps < self._storm_end_ps
            if active != self._storm_active:
                self._storm_active = active
            environment.vrt_toggle_scale = (
                profile.vrt_storm_toggle_scale if active else 1.0)
        if profile.temperature_drift_amplitude_c > 0:
            angle = (2 * math.pi * now_ps
                     / (profile.temperature_drift_period_s * _PS_PER_S)
                     + self._drift_phase)
            delta_c = profile.temperature_drift_amplitude_c * math.sin(angle)
            # Retention halves per +10 C: hotter -> faster decay.
            environment.retention_scale = 2.0 ** (-delta_c / 10.0)

    def _stale_scale(self, bank: int, row: int) -> float:
        key = (bank, row)
        cached = self._stale_cache.get(key)
        if cached is not None:
            return cached
        profile = self.profile
        row_rng = stream("fault-stale", self.seed, self.session, bank, row)
        if row_rng.random() >= profile.stale_row_fraction:
            scale = 1.0
        else:
            low, high = profile.stale_scale_range
            scale = float(math.exp(row_rng.uniform(math.log(low),
                                                   math.log(high))))
            self._record("stale-row", derive_seed(bank, row) % 1000, row)
        self._stale_cache[key] = scale
        return scale

    # -- command-layer faults ----------------------------------------------

    def drop_write(self, now_ps: int) -> bool:
        """Should this WRITE be silently lost?"""
        p = self.profile.write_drop_probability
        if p <= 0 or self._command_rng.random() >= p:
            return False
        self._record("write-drop", now_ps)
        return True

    def duplicate_hammer(self, now_ps: int) -> bool:
        """Should this hammer batch execute twice?"""
        p = self.profile.hammer_duplicate_probability
        if p <= 0 or self._command_rng.random() >= p:
            return False
        self._record("hammer-duplicate", now_ps)
        return True

    def ref_repeats(self, now_ps: int) -> int:
        """How many times the chip actually executes one host REF.

        0 = the REF was lost, 1 = normal, 2 = duplicated.  The host's
        own REF ledger always advances by one either way — exactly the
        desynchronization a flaky rig produces.
        """
        drop = self.profile.ref_drop_probability
        duplicate = self.profile.ref_duplicate_probability
        if drop <= 0 and duplicate <= 0:
            return 1
        draw = self._command_rng.random()
        if draw < drop:
            self._record("ref-drop", now_ps)
            return 0
        if draw < drop + duplicate:
            self._record("ref-duplicate", now_ps)
            return 2
        return 1

    @property
    def perturbs_refs(self) -> bool:
        return (self.profile.ref_drop_probability > 0
                or self.profile.ref_duplicate_probability > 0)

    # -- readback noise ----------------------------------------------------

    def corrupt_mismatches(self, row_bits: int,
                           mismatches: list[int]) -> list[int]:
        """Transiently corrupt one readout bit with the profiled odds.

        Toggles membership of a random bit position: a clean bit reads
        as a spurious mismatch, a real mismatch is masked.  The stored
        cell is untouched — re-reading sees the true data again.
        """
        p = self.profile.read_noise_probability
        if p <= 0 or self._read_rng.random() >= p:
            return mismatches
        position = int(self._read_rng.integers(0, row_bits))
        self._record("read-noise", self._now(), position)
        if position in mismatches:
            return [m for m in mismatches if m != position]
        return sorted(mismatches + [position])

    def corrupt_bits(self, bits):
        """Same single-bit transient noise, for full-row reads."""
        p = self.profile.read_noise_probability
        if p <= 0 or self._read_rng.random() >= p:
            return bits
        position = int(self._read_rng.integers(0, len(bits)))
        self._record("read-noise", self._now(), position)
        bits = bits.copy()
        bits[position] ^= 1
        return bits

    def _now(self) -> int:
        return self._chip.now_ps if self._chip is not None else 0
