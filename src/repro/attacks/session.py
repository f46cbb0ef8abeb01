"""Attack session: REF-synchronized hammering under the real ACT budget.

A RowHammer attacker on a live system must keep the memory controller's
REF cadence (one REF per tREFI) while squeezing activations into the
intervals between them — at most 149 single-bank activations per
interval (footnote 10), fewer when spreading ACTs over multiple banks
under tFAW (footnote 12).  :class:`AttackSession` models exactly that:
hammer requests are split into interval-sized chunks, a REF is issued
whenever the interval's time budget is exhausted, and patterns can close
intervals or whole TRR-period windows explicitly.

The paper's custom patterns rely on synchronizing with (TRR-capable)
REF commands; on real systems this is possible from user space (SMASH
[19]).  Here the attacker drives the SoftMC host, so
:meth:`align_to_period` simply issues REFs until the next REF index is a
multiple of the (U-TRR-discovered) TRR period.
"""

from __future__ import annotations

from ..dram import HammerMode
from ..dram.timing import MAX_PARALLEL_BANKS
from ..errors import AttackConfigError
from ..softmc import SoftMCHost


class AttackSession:
    """Budget-accounted, REF-paced access to one module."""

    def __init__(self, host: SoftMCHost, trr_period: int) -> None:
        if trr_period < 1:
            raise AttackConfigError("trr_period must be >= 1")
        self._host = host
        self.trr_period = trr_period
        timing = host.timing
        #: Hammering time available between two REFs.
        self._interval_budget_ps = timing.trefi_ps - timing.trfc_ps
        self._used_ps = 0
        self.refs_issued = 0
        self.acts_issued = 0

    def adopt(self, other: "AttackSession") -> None:
        """Take over *other*'s budget counters.

        Used by window capture: the virtual session is seeded from the
        live one before a window is recorded.
        """
        self.refs_issued = other.refs_issued
        self.acts_issued = other.acts_issued
        self._used_ps = other._used_ps

    # -- REF pacing -----------------------------------------------------------

    @property
    def remaining_ps(self) -> int:
        return self._interval_budget_ps - self._used_ps

    def ref(self, count: int = 1) -> None:
        """Issue REF(s), closing the current hammer interval."""
        self._host.refresh(count)
        self.refs_issued += count
        self._used_ps = 0

    def refs_into_window(self) -> int:
        """REFs issued so far within the current TRR-period window."""
        return self._host.ref_count % self.trr_period

    def fill_window(self) -> None:
        """Issue REFs until the next TRR-capable REF boundary."""
        gap = (-self._host.ref_count) % self.trr_period
        if gap:
            self.ref(gap)

    def align_to_period(self) -> None:
        """Synchronize: make the next REF index a TRR-period multiple."""
        self.fill_window()

    # -- hammering ------------------------------------------------------------

    def hammer(self, bank: int, pairs, mode: HammerMode = HammerMode.
               INTERLEAVED) -> None:
        """Hammer one bank, auto-splitting across REF intervals."""
        queue = [[row, count] for row, count in pairs if count > 0]
        trc = self._host.timing.trc_ps
        while queue:
            fit = self.remaining_ps // trc
            if fit == 0:
                self.ref()
                continue
            chunk = self._take(queue, fit, mode)
            self._host.hammer(bank, chunk, mode)
            acts = sum(count for _, count in chunk)
            self.acts_issued += acts
            self._used_ps += acts * trc

    def multibank_act_cost_ps(self, banks: int) -> int:
        """Interval budget one ACT uses when *banks* banks hammer in
        parallel: tFAW allows four ACTs per window, and each bank still
        waits tRC between its own ACTs."""
        timing = self._host.timing
        return max(timing.tfaw_ps // 4, timing.trc_ps // banks)

    def hammer_multibank(self, rows_by_bank: dict[int, int],
                         count_per_bank: int) -> None:
        """Hammer one dummy row in each of up to four banks in parallel.

        Cross-bank activation rate is tFAW-limited: four ACTs per tFAW
        window, regardless of bank count (footnote 12).
        """
        if not rows_by_bank:
            return
        if len(rows_by_bank) > MAX_PARALLEL_BANKS:
            raise AttackConfigError(
                f"tFAW limits parallel hammering to "
                f"{MAX_PARALLEL_BANKS} banks")
        act_cost_ps = self.multibank_act_cost_ps(len(rows_by_bank))
        remaining = {bank: count_per_bank for bank in rows_by_bank}
        while any(remaining.values()):
            fit_total = self.remaining_ps // act_cost_ps
            if fit_total < len(rows_by_bank):
                self.ref()
                continue
            share = max(fit_total // len(rows_by_bank), 1)
            batch = {}
            for bank, row in rows_by_bank.items():
                count = min(share, remaining[bank])
                if count:
                    batch[bank] = [(row, count)]
                    remaining[bank] -= count
            if not batch:
                break
            self._host.hammer_multi(batch)
            acts = sum(pairs[0][1] for pairs in batch.values())
            self.acts_issued += acts
            self._used_ps += acts * act_cost_ps

    @staticmethod
    def _take(queue: list[list[int]], fit: int,
              mode: HammerMode) -> list[tuple[int, int]]:
        """Remove up to *fit* activations from the queue, preserving the
        requested ordering semantics."""
        if mode is HammerMode.CASCADED:
            chunk = []
            while queue and fit > 0:
                row, count = queue[0]
                take = min(count, fit)
                chunk.append((row, take))
                fit -= take
                if take == count:
                    queue.pop(0)
                else:
                    queue[0][1] = count - take
            return chunk
        # Interleaved: spread the chunk round-robin over all rows still
        # pending, keeping per-row shares within one activation of each
        # other (exact round-robin across chunk boundaries is preserved
        # to within the chunk granularity).
        total_pending = sum(count for _, count in queue)
        take_total = min(fit, total_pending)
        chunk = []
        remaining = take_total
        for index, (row, count) in enumerate(queue):
            rows_left = len(queue) - index
            share = min(count, -(-remaining // rows_left))
            chunk.append((row, share))
            remaining -= share
        for entry, (_, taken) in zip(list(queue), chunk):
            entry[1] -= taken
        queue[:] = [entry for entry in queue if entry[1] > 0]
        return [(row, count) for row, count in chunk if count > 0]
