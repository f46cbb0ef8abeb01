"""Command-bus profiling: where does a sweep's wall time actually go?

The span layer answers "which pipeline *stage* is slow"; this module
answers the layer below: which DDR **opcode** (ACT / RD / WR / REF /
WAIT) the :class:`~repro.softmc.SoftMCHost` spends its wall time
executing.

:class:`CommandProfiler` does exact per-opcode wall-time accounting
from outside the host: :meth:`CommandProfiler.attach` wraps one host's
opcode methods on that instance, and a host built on a bundle with a
profiler attaches it itself.  An unprofiled host runs no profiling code
at all.  Every command passes through exactly one wrapped method, so
the opcode rows sum to the host's command-bus wall time by
construction.

A work unit's profile is a side channel, like its wall-clock, and is
never cached: it folds into the caller's profiler in submission order
with the unit's wall (:meth:`CommandProfiler.merge`), the base of the
coverage line, so coverage stays at or below 100% at any worker count.
A run-history row records the per-opcode seconds so command-bus
regressions gate like wall-clock does (``python -m repro.obs.history
--gate``).
"""

from __future__ import annotations

from time import perf_counter

#: Canonical opcode order for reports (matches the trace record types).
OPCODES = ("ACT", "RD", "WR", "REF", "WAIT")

#: The host methods :meth:`CommandProfiler.attach` times, with the
#: opcode each issues (besides ``_try_fused_hammer``).
HOST_METHODS = (("write_row", "WR"), ("read_row", "RD"),
                ("read_row_mismatches", "RD"), ("_issue_hammer", "ACT"),
                ("_issue_hammer_multi", "ACT"), ("refresh", "REF"),
                ("wait", "WAIT"))

#: The host's row-range methods: one command per row of the range.
RANGE_METHODS = (("write_rows", "WR"), ("read_rows_mismatches", "RD"))


class CommandProfiler:
    """Per-opcode wall-time attribution."""

    def __init__(self) -> None:
        #: opcode -> total seconds.
        self.seconds: dict[str, float] = {}
        #: opcode -> command count.
        self.counts: dict[str, int] = {}
        #: Summed wall-clock seconds of the work units folded in: the
        #: base of the coverage line.
        self.wall_s = 0.0

    def attach(self, host) -> None:
        """Time every command *host* issues, per opcode.

        Wraps the host's opcode methods on that instance, never on its
        class, so other hosts stay unprofiled.  A command the chip
        rejects raises before it is counted.  A row-range command
        counts one command per row.  A fused run of identical hammers
        counts as *repeats* ACT commands, and only when the host took
        the fused path.
        """
        for name, opcode in HOST_METHODS:
            setattr(host, name, self._timed(getattr(host, name), opcode))
        for name, opcode in RANGE_METHODS:
            setattr(host, name, self._timed_range(getattr(host, name),
                                                  opcode))
        try_fused = host._try_fused_hammer

        def fused(batch, repeats: int, step_ps: int) -> bool:
            start = perf_counter()
            if not try_fused(batch, repeats, step_ps):
                return False
            self.add("ACT", perf_counter() - start, repeats)
            return True

        host._try_fused_hammer = fused

    def _timed(self, method, opcode: str):
        def timed(*args, **kwargs):
            start = perf_counter()
            result = method(*args, **kwargs)
            self.add(opcode, perf_counter() - start)
            return result
        return timed

    def _timed_range(self, method, opcode: str):
        def timed(bank, rows, *args, **kwargs):
            start = perf_counter()
            result = method(bank, rows, *args, **kwargs)
            if rows:
                self.add(opcode, perf_counter() - start, len(rows))
            return result
        return timed

    def add(self, opcode: str, seconds: float, count: int = 1) -> None:
        """Account *count* commands retired in *seconds*."""
        self.seconds[opcode] = self.seconds.get(opcode, 0.0) + seconds
        self.counts[opcode] = self.counts.get(opcode, 0) + count

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def commands(self) -> int:
        return sum(self.counts.values())

    def merge(self, dump: dict, wall_s: float = 0.0) -> None:
        """Fold one unit's :meth:`as_dict` dump into self, with the
        unit's measured *wall_s* (the coverage base)."""
        for opcode, seconds in dump.get("seconds", {}).items():
            self.seconds[opcode] = (self.seconds.get(opcode, 0.0)
                                    + seconds)
        for opcode, count in dump.get("counts", {}).items():
            self.counts[opcode] = self.counts.get(opcode, 0) + count
        self.wall_s += wall_s

    def as_dict(self) -> dict:
        return {
            "seconds": {op: round(s, 6) for op, s
                        in sorted(self.seconds.items())},
            "counts": dict(sorted(self.counts.items())),
            "total_s": round(self.total_s, 6),
            "commands": self.commands,
        }

    def render(self) -> str:
        """The attribution table: one row per opcode, sums at the foot.

        Once units' walls are folded in (:attr:`wall_s`), the footer
        reports coverage: the fraction of that summed wall the opcode
        rows explain.
        """
        if not self.seconds:
            return "  (no commands profiled)"
        total = self.total_s
        lines = [f"  {'opcode':<6} {'commands':>10} {'seconds':>10} "
                 f"{'us/cmd':>8} {'share':>7}"]
        ordered = [op for op in OPCODES if op in self.seconds]
        ordered += [op for op in sorted(self.seconds)
                    if op not in OPCODES]
        for opcode in ordered:
            seconds = self.seconds[opcode]
            count = self.counts.get(opcode, 0)
            per = seconds / count * 1e6 if count else 0.0
            share = seconds / total if total else 0.0
            lines.append(f"  {opcode:<6} {count:>10} {seconds:>10.4f} "
                         f"{per:>8.1f} {share:>6.1%}")
        lines.append(f"  {'total':<6} {self.commands:>10} "
                     f"{total:>10.4f}")
        if self.wall_s > 0:
            lines.append(f"  coverage: {total / self.wall_s:.1%} of "
                         f"{self.wall_s:.3f}s summed unit wall")
        return "\n".join(lines)
