"""Sampling-based TRR — vendor B (§6.2).

Reverse-engineered behaviour this implementation reproduces exactly:

* **Obs B1** — only every ``trr_ref_period``-th REF performs a
  TRR-induced refresh (4th for B_TRR1, 9th for B_TRR2, 2nd for B_TRR3).
* **Obs B2** — a TRR-induced refresh protects the two rows immediately
  adjacent to the detected aggressor (radius 1).
* **Obs B3** — aggressors are detected by *sampling* the row addresses
  of incoming ACT commands.  The paper's experiments suggest the
  sampling "does not happen truly randomly but is likely based on
  pseudo-random sampling of an incoming ACT": we model it as a
  deterministic free-running counter that samples every
  ``sample_period``-th activation.  Observable consequences match §6.2.2:
  ~2K consecutive activations to one row always get it sampled, while
  shorter bursts are sampled with probability proportional to their
  length (their alignment against the counter phase looks random to an
  experimenter).  The determinism is also what makes the paper's §7.1
  pattern work: a dummy phase at least one sample period long *always*
  owns the last sample before a TRR-capable REF.
* **Obs B4** — the sampler holds exactly **one** row; for B_TRR1/B_TRR2
  the single slot (and the ACT counter) is shared across all banks, for
  B_TRR3 each bank has its own.  A new sample overwrites the previous.
* **Obs B5** — a TRR-induced refresh does *not* clear the sampled row:
  the same row keeps being protected until another sample replaces it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..dram.commands import ActBatch
from ..errors import ConfigError
from .base import TrrGroundTruth, TrrMechanism, neighbor_victims


class _Sampler:
    """Free-running every-Nth-ACT sampler."""

    __slots__ = ("period", "countdown", "row")

    def __init__(self, period: int) -> None:
        self.period = period
        self.countdown = period
        self.row: int | None = None

    def observe(self, total: int, row_at: Callable[[int], int]) -> bool:
        """Advance the counter over *total* ACTs, the i-th to row
        ``row_at(i)``; True if a sample occurred."""
        if total < self.countdown:
            self.countdown -= total
            return False
        # At least one sample lands in this batch; the register keeps the
        # last one.  Sample offsets (0-based): countdown-1, countdown-1+P, ...
        last_offset = self.countdown - 1 + (
            (total - self.countdown) // self.period) * self.period
        self.row = row_at(last_offset)
        self.countdown = self.period - (total - 1 - last_offset)
        return True

    def reset(self) -> None:
        self.countdown = self.period
        self.row = None


class SamplingBasedTrr(TrrMechanism):
    """Vendor B's single-slot ACT-sampling TRR."""

    def __init__(self, trr_ref_period: int = 4, sample_period: int = 500,
                 per_bank: bool = False, neighbor_radius: int = 1,
                 seed: int = 0) -> None:
        super().__init__()
        if trr_ref_period < 1:
            raise ConfigError("trr_ref_period must be >= 1")
        if sample_period < 1:
            raise ConfigError("sample_period must be >= 1")
        if neighbor_radius < 1:
            raise ConfigError("neighbor_radius must be >= 1")
        self.trr_ref_period = trr_ref_period
        self.sample_period = sample_period
        self.per_bank = per_bank
        self.neighbor_radius = neighbor_radius
        self._seed = seed  # kept for registry API symmetry
        self._shared = _Sampler(sample_period)
        #: Which bank the shared sampler's row belongs to.
        self._shared_bank: int | None = None
        self._bank_samplers: dict[int, _Sampler] = {}
        self._ref_count = 0

    def on_activations(self, bank: int, batch: ActBatch,
                       now_ps: int = 0) -> None:
        if batch.total == 0:
            return
        if self.per_bank:
            sampler = self._bank_samplers.get(bank)
            if sampler is None:
                sampler = _Sampler(self.sample_period)
                self._bank_samplers[bank] = sampler
            sampler.observe(batch.total, batch.row_at)
        elif self._shared.observe(batch.total, batch.row_at):
            self._shared_bank = bank

    def on_row_activations(self, bank: int, rows: Sequence[int],
                           first_ps: int, step_ps: int) -> None:
        # The sampler only counts ACTs, so one-ACT batches in a row
        # advance it exactly as one batch of them does.
        total = len(rows)
        if total == 0:
            return
        if self.per_bank:
            sampler = self._bank_samplers.get(bank)
            if sampler is None:
                sampler = _Sampler(self.sample_period)
                self._bank_samplers[bank] = sampler
            sampler.observe(total, rows.__getitem__)
        elif self._shared.observe(total, rows.__getitem__):
            self._shared_bank = bank

    def on_refresh(self) -> list[tuple[int, int]]:
        self._ref_count += 1
        if self._ref_count % self.trr_ref_period != 0:
            return []
        victims: list[tuple[int, int]] = []
        if self.per_bank:
            # Obs B5: samples persist across TRR-induced refreshes.
            for bank, sampler in self._bank_samplers.items():
                if sampler.row is not None:
                    for victim in neighbor_victims(
                            sampler.row, self.neighbor_radius, self.context):
                        victims.append((bank, victim))
        elif self._shared.row is not None and self._shared_bank is not None:
            for victim in neighbor_victims(self._shared.row,
                                           self.neighbor_radius,
                                           self.context):
                victims.append((self._shared_bank, victim))
        return victims

    def power_cycle(self) -> None:
        self._shared.reset()
        self._shared_bank = None
        self._bank_samplers.clear()
        self._ref_count = 0

    @property
    def ground_truth(self) -> TrrGroundTruth:
        return TrrGroundTruth(
            kind="sampling",
            trr_ref_period=self.trr_ref_period,
            neighbors_refreshed=2 * self.neighbor_radius,
            aggressor_capacity=1,
            per_bank=self.per_bank,
            extra={"sample_period": self.sample_period,
                   "sample_cleared_on_trr": False},
        )
