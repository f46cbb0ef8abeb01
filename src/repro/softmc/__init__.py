"""SoftMC-style command-level host access (the experiment boundary)."""

from .bus import Ddr, DdrBus, TimedCommand
from .interface import SoftMCHost
from .program import Hammer, MultiHammer, Refresh, SoftMCProgram, Wait

__all__ = [
    "Ddr",
    "DdrBus",
    "TimedCommand",
    "Hammer",
    "MultiHammer",
    "Refresh",
    "SoftMCHost",
    "SoftMCProgram",
    "Wait",
]
