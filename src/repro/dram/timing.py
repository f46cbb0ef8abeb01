"""DDR4 timing parameters.

The simulator's virtual clock advances according to these constraints, so
quantities the paper derives from wall time fall out of the model — most
importantly the *hammers-per-REF-interval budget* (footnote 10: at most
149 activations to one bank fit between two REF commands issued every
7.8 us, given typical tRAS/tRP/tRFC).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..units import ns, us

#: Banks one parallel hammer may span: tFAW admits at most four ACTs per
#: window (footnote 12).
MAX_PARALLEL_BANKS = 4


@dataclass(frozen=True)
class TimingParameters:
    """DDR4 timing constraints, in integer picoseconds.

    Defaults follow the values the paper assumes (35 ns activation,
    15 ns precharge, 350 ns refresh, 7.8 us REF cadence).
    """

    tras_ps: int = ns(35.0)   #: ACT to PRE minimum (row open time)
    trp_ps: int = ns(15.0)    #: PRE to next ACT on the same bank
    trcd_ps: int = ns(14.0)   #: ACT to first RD/WR
    trfc_ps: int = ns(350.0)  #: REF execution time
    trefi_ps: int = us(7.8)   #: controller REF cadence
    tfaw_ps: int = ns(160.0)  #: four-activation window (ACT throttle)
    trrd_ps: int = ns(5.3)    #: ACT to ACT, different banks
    burst_read_ps: int = ns(500.0)   #: full-row readout through the row buffer
    burst_write_ps: int = ns(500.0)  #: full-row write through the row buffer

    def __post_init__(self) -> None:
        for name in ("tras_ps", "trp_ps", "trcd_ps", "trfc_ps", "trefi_ps",
                     "tfaw_ps", "trrd_ps", "burst_read_ps", "burst_write_ps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.trefi_ps <= self.trfc_ps:
            raise ConfigError("tREFI must exceed tRFC")

    @property
    def trc_ps(self) -> int:
        """Row cycle time: the cost of one hammer (ACT + PRE)."""
        return self.tras_ps + self.trp_ps

    @property
    def row_write_ps(self) -> int:
        """Virtual time of one full-row write: ACT, burst, PRE."""
        return self.trcd_ps + self.burst_write_ps + self.trp_ps

    @property
    def row_read_ps(self) -> int:
        """Virtual time of one full-row read: ACT, burst, PRE."""
        return self.trcd_ps + self.burst_read_ps + self.trp_ps

    def hammers_per_ref_interval(self) -> int:
        """Maximum single-bank activations between two REF commands.

        Matches the paper's footnote 10: (7.8 us - 350 ns) / 50 ns = 149.
        """
        return (self.trefi_ps - self.trfc_ps) // self.trc_ps

    def hammer_duration_ps(self, count: int) -> int:
        """Virtual time taken by *count* back-to-back one-bank hammers."""
        if count < 0:
            raise ConfigError("hammer count must be non-negative")
        return count * self.trc_ps

    def multi_bank_hammer_duration_ps(self, count_per_bank: int,
                                      num_banks: int) -> int:
        """Virtual time for hammering *num_banks* banks in parallel.

        Cross-bank activations are limited by tFAW (at most four ACTs per
        tFAW window), which is why the paper's vendor-B pattern hammers
        dummy rows in at most four banks (footnote 12).
        """
        if num_banks < 1:
            raise ConfigError("num_banks must be >= 1")
        if num_banks > MAX_PARALLEL_BANKS:
            raise ConfigError(
                f"tFAW permits parallel hammering of at most "
                f"{MAX_PARALLEL_BANKS} banks")
        total_acts = count_per_bank * num_banks
        faw_limited = (total_acts * self.tfaw_ps + 3) // 4
        bank_limited = count_per_bank * self.trc_ps
        return max(faw_limited, bank_limited)


#: Shared default instance; timing is immutable so sharing is safe.
DDR4_DEFAULT = TimingParameters()


@dataclass(frozen=True)
class TimingStats:
    """Accumulated command counts, useful for tests and benchmarks."""

    activates: int = 0
    precharges: int = 0
    refreshes: int = 0
    reads: int = 0
    writes: int = 0

    def bump(self, **deltas: int) -> "TimingStats":
        values = {f: getattr(self, f) + deltas.get(f, 0)
                  for f in ("activates", "precharges", "refreshes",
                            "reads", "writes")}
        return TimingStats(**values)
