"""Command-bus profiling: where does a sweep's wall time actually go?

The span layer answers "which pipeline *stage* is slow"; this module
answers the layer below: which DDR **opcode** (ACT / RD / WR / REF /
WAIT) the :class:`~repro.softmc.SoftMCHost` hot path spends its wall
time executing.

:class:`CommandProfiler` does exact per-opcode wall-time accounting.
The host brackets every command with two ``perf_counter`` reads when a
profiler is attached; with :class:`NullProfiler` (the default) the hot
path pays one identity check, inside the <5% disabled-overhead budget.
Because every host-side operation is bracketed, the opcode rows sum to
the host's total command-bus wall time by construction — the
attribution table's coverage line shows what fraction of an enclosing
wall-clock that explains.

Profiles fold across process-pool workers exactly like metrics do
(:meth:`CommandProfiler.merge`, submission order), and a run-history
row records the per-opcode seconds so command-bus regressions gate like
wall-clock does (``python -m repro.obs.history --gate``).
"""

from __future__ import annotations

#: Canonical opcode order for reports (matches the trace record types).
OPCODES = ("ACT", "RD", "WR", "REF", "WAIT")


class CommandProfiler:
    """Per-opcode wall-time attribution."""

    enabled = True

    def __init__(self) -> None:
        #: opcode -> total seconds.
        self.seconds: dict[str, float] = {}
        #: opcode -> command count.
        self.counts: dict[str, int] = {}

    def add(self, opcode: str, seconds: float) -> None:
        """Account one retired command (called from the host hot path)."""
        self.seconds[opcode] = self.seconds.get(opcode, 0.0) + seconds
        self.counts[opcode] = self.counts.get(opcode, 0) + 1

    def add_bulk(self, opcode: str, count: int, seconds: float) -> None:
        """Account *count* commands retired by one batched bracket.

        The fused-payload path executes a whole run of identical ACT
        commands inside a single ``perf_counter`` bracket; the profile
        must still report N commands (so ``us/cmd`` and the per-opcode
        counts match the per-command path), not one wide bracket.
        """
        self.seconds[opcode] = self.seconds.get(opcode, 0.0) + seconds
        self.counts[opcode] = self.counts.get(opcode, 0) + count

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def commands(self) -> int:
        return sum(self.counts.values())

    def merge(self, other) -> None:
        """Fold another profiler (or its ``as_dict`` dump) into self."""
        if isinstance(other, dict):
            dump = other
        else:
            if not getattr(other, "enabled", False):
                return
            dump = other.as_dict()
        for opcode, seconds in dump.get("seconds", {}).items():
            self.seconds[opcode] = (self.seconds.get(opcode, 0.0)
                                    + seconds)
        for opcode, count in dump.get("counts", {}).items():
            self.counts[opcode] = self.counts.get(opcode, 0) + count

    def as_dict(self) -> dict:
        return {
            "seconds": {op: round(s, 6) for op, s
                        in sorted(self.seconds.items())},
            "counts": dict(sorted(self.counts.items())),
            "total_s": round(self.total_s, 6),
            "commands": self.commands,
        }

    def render(self, wall_s: float | None = None) -> str:
        """The attribution table: one row per opcode, sums at the foot.

        With *wall_s* (an externally measured enclosing wall-clock) the
        footer reports coverage — the fraction of that wall the opcode
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
        if wall_s is not None and wall_s > 0:
            lines.append(f"  coverage: {total / wall_s:.1%} of "
                         f"{wall_s:.3f}s measured wall")
        return "\n".join(lines)


class NullProfiler:
    """The disabled profiler: the hot path sees one identity check.

    It keeps the writers instrumented code calls unconditionally and
    the empty totals :meth:`repro.obs.Observability.dump` checks; only
    a real profiler is dumped (``as_dict``) or rendered.
    """

    enabled = False
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    total_s = 0.0
    commands = 0

    def add(self, opcode: str, seconds: float) -> None:
        pass

    def add_bulk(self, opcode: str, count: int, seconds: float) -> None:
        pass

    def merge(self, other) -> None:
        pass
