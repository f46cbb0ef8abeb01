"""Window-based ("mix") TRR — vendor C (§6.3).

Reverse-engineered behaviour this implementation reproduces exactly:

* **Obs C1** — a TRR-induced refresh is performed at most once per
  ``trr_ref_period`` REF commands (17th / 9th / 8th for C_TRR1/2/3), but
  *any* REF can carry it: when no aggressor candidate has been detected
  yet, the refresh is deferred to a later REF.
* **Obs C2** — aggressor candidates are drawn only from the rows
  targeted by the first ``window_acts`` activations (per bank; 2K, or 1K
  for C_TRR3) following the previous TRR-induced refresh, and rows
  activated *earlier* in the window are more likely to be selected.
* **Obs C3** — on the pair-isolated modules (C0-8) a detected aggressor
  protects only its pair row (handled by ``neighbor_victims`` via the
  chip context).

The early bias is modeled with an exponentially decaying adoption
probability over window position: the first activation is always
adopted as the candidate, and an activation at window position ``k``
replaces it with probability ``exp(-k / early_bias_tau)``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ..dram.commands import ActBatch
from ..errors import ConfigError
from ..rng import SeedSequenceFactory
from .base import TrrGroundTruth, TrrMechanism, neighbor_victims


class _BankWindow:
    """Per-bank detection window state."""

    __slots__ = ("acts_seen", "weight_seen", "candidate", "last_trr_ref")

    def __init__(self) -> None:
        self.acts_seen = 0
        self.weight_seen = 0.0
        self.candidate: int | None = None
        self.last_trr_ref = 0

    def reset_window(self) -> None:
        self.acts_seen = 0
        self.weight_seen = 0.0
        self.candidate = None


class WindowBasedTrr(TrrMechanism):
    """Vendor C's deferred, early-biased detection-window TRR."""

    def __init__(self, trr_ref_period: int = 17, window_acts: int = 2000,
                 early_bias_tau: float = 250.0, neighbor_radius: int = 1,
                 seed: int = 0) -> None:
        super().__init__()
        if trr_ref_period < 1:
            raise ConfigError("trr_ref_period must be >= 1")
        if window_acts < 1:
            raise ConfigError("window_acts must be >= 1")
        if early_bias_tau <= 0:
            raise ConfigError("early_bias_tau must be positive")
        if neighbor_radius < 1:
            raise ConfigError("neighbor_radius must be >= 1")
        self.trr_ref_period = trr_ref_period
        self.window_acts = window_acts
        self.early_bias_tau = early_bias_tau
        self.neighbor_radius = neighbor_radius
        self._seed = seed
        self._rng = SeedSequenceFactory("trr-window", seed).stream("adopt")
        self._banks: dict[int, _BankWindow] = {}
        self._ref_count = 0

    def _window(self, bank: int) -> _BankWindow:
        window = self._banks.get(bank)
        if window is None:
            window = _BankWindow()
            self._banks[bank] = window
        return window

    def _position_mass(self, start: int, length: int) -> float:
        """Selection weight of window positions [start, start + length).

        Per-position weight is exp(-k / tau); the geometric sum is
        evaluated in closed form so batches stay O(#runs).
        """
        tau = self.early_bias_tau
        decay = math.exp(-1.0 / tau)
        first = math.exp(-start / tau)
        if decay >= 1.0:  # enormous tau: effectively uniform weights
            return float(length)
        return first * (1.0 - decay ** length) / (1.0 - decay)

    def on_activations(self, bank: int, batch: ActBatch,
                       now_ps: int = 0) -> None:
        window = self._window(bank)
        remaining = self.window_acts - window.acts_seen
        consumed = 0
        if remaining > 0:
            # Weighted reservoir sampling over the batch's run structure:
            # the surviving candidate is distributed proportionally to the
            # exponentially decaying position weights, so rows activated
            # earlier in the window are more likely to be detected.
            for row, count in batch.pattern:
                if count == 0 or consumed >= remaining:
                    break
                usable = min(count, remaining - consumed)
                start = window.acts_seen + consumed
                mass = self._position_mass(start, usable)
                total = window.weight_seen + mass
                if total > 0 and self._rng.random() < mass / total:
                    window.candidate = row
                window.weight_seen = total
                consumed += usable
        window.acts_seen += batch.total

    def on_row_activations(self, bank: int, rows: Sequence[int],
                           first_ps: int, step_ps: int) -> None:
        if not rows:
            return
        window = self._window(bank)
        # Each row is a one-ACT batch; past the window's end an ACT is
        # only counted.
        usable = min(len(rows), max(self.window_acts - window.acts_seen, 0))
        for row in rows[:usable]:
            mass = self._position_mass(window.acts_seen, 1)
            total = window.weight_seen + mass
            if total > 0 and self._rng.random() < mass / total:
                window.candidate = row
            window.weight_seen = total
            window.acts_seen += 1
        window.acts_seen += len(rows) - usable

    def on_refresh(self) -> list[tuple[int, int]]:
        self._ref_count += 1
        victims: list[tuple[int, int]] = []
        for bank in range(self.context.num_banks):
            window = self._window(bank)
            due = self._ref_count - window.last_trr_ref >= self.trr_ref_period
            if not due or window.candidate is None:
                continue  # Obs C1: defer until a candidate exists
            detected = window.candidate
            window.reset_window()
            window.last_trr_ref = self._ref_count
            for victim in neighbor_victims(detected, self.neighbor_radius,
                                           self.context):
                victims.append((bank, victim))
        return victims

    def power_cycle(self) -> None:
        self._banks.clear()
        self._ref_count = 0
        self._rng = SeedSequenceFactory("trr-window", self._seed).stream(
            "adopt")

    @property
    def ground_truth(self) -> TrrGroundTruth:
        paired = self._context is not None and self._context.paired_rows
        return TrrGroundTruth(
            kind="window",
            trr_ref_period=self.trr_ref_period,
            neighbors_refreshed=1 if paired else 2 * self.neighbor_radius,
            aggressor_capacity=None,
            per_bank=True,
            extra={"window_acts": self.window_acts,
                   "deferred": True,
                   "early_bias_tau": self.early_bias_tau},
        )
