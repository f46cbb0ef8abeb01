"""SoftMC-style command-level host access (the experiment boundary)."""

from .bus import Ddr, DdrBus, TimedCommand
from .interface import SoftMCHost
from .program import (Hammer, Loop, MultiHammer, Refresh, SoftMCProgram,
                      Wait)

__all__ = [
    "Ddr",
    "DdrBus",
    "TimedCommand",
    "Hammer",
    "Loop",
    "MultiHammer",
    "Refresh",
    "SoftMCHost",
    "SoftMCProgram",
    "Wait",
]
