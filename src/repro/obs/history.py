"""Cross-run regression sentinel: an append-only run-history store.

Traces, metrics, and spans each describe *one* run; regressions live
*between* runs.  :class:`RunHistory` is a stdlib-only append-only JSONL
store the harnesses record into — one row per completed run carrying
the run manifest, the flattened metrics registry, and per-stage span
wall-clocks — so any two runs of the same experiment, days apart, can
be compared with plain tools.

:func:`gate` is the sentinel: given the rows of one run *kind* it
compares the newest row against a rolling baseline of the previous runs
and flags

- counters whose relative delta exceeds a tolerance (drift in either
  direction is suspect: fewer retries can mean a fixed bug or a stage
  silently skipped), and
- span wall-clocks beyond the baseline by more than a slack factor
  (slower only — faster is not a regression).

A run with no baseline passes vacuously, so the gate is safe to enable
from the first CI run.

CLI: ``python -m repro.obs.history store.jsonl [--gate]`` — reports
trends, or gates the newest run of each kind; ``--gate`` exits 0 when
clean (including no-baseline), 1 on a flagged regression, 2 on an empty
or unreadable store.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigError

#: Bump when the row shape changes (rows are self-describing).
HISTORY_SCHEMA = 1


def flatten_metrics(metrics) -> dict[str, float]:
    """One flat ``name -> number`` map from a metrics dump.

    *metrics* is a :class:`~repro.obs.MetricsRegistry` or its
    ``as_dict`` form.  Counters keep their names; histograms
    flatten to ``<name>.count`` / ``<name>.mean`` / ``<name>.max`` —
    the three facets a cross-run comparison can act on.
    """
    if hasattr(metrics, "as_dict"):
        metrics = metrics.as_dict()
    flat: dict[str, float] = {}
    flat.update(metrics.get("counters", {}))
    for name, dump in metrics.get("histograms", {}).items():
        flat[f"{name}.count"] = dump.get("count", 0)
        flat[f"{name}.mean"] = dump.get("mean", 0.0)
        if dump.get("max") is not None:
            flat[f"{name}.max"] = dump["max"]
    return flat


def span_wallclocks(timeline) -> dict[str, float]:
    """Per-name wall-clock seconds from a span timeline.

    *timeline* is ``SpanTracker.as_timeline()`` (or the tracker itself).
    Durations of same-named spans sum, so a stage entered once per
    module contributes its total.
    """
    if hasattr(timeline, "as_timeline"):
        timeline = timeline.as_timeline()
    clocks: dict[str, float] = {}
    for entry in timeline:
        duration = entry.get("duration_s")
        if duration is None:
            continue
        name = entry["name"]
        clocks[name] = round(clocks.get(name, 0.0) + duration, 6)
    return clocks


class RunHistory:
    """Append-only JSONL store of completed runs."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def record(self, kind: str, *, manifest: dict | None = None,
               metrics=None, spans=None, wall_s: float | None = None,
               profile=None, extra: dict | None = None) -> dict:
        """Append one run row; returns the row as written.

        *profile*, when given, is a
        :class:`~repro.obs.CommandProfiler` (its per-opcode
        ``seconds``) or a plain ``{name: seconds}`` dict: wall-time
        attribution recorded alongside the spans and gated by the same
        slowdown-only rule, so a command-bus regression fails the gate
        like a wall-clock one.
        """
        row: dict = {"schema": HISTORY_SCHEMA, "kind": kind}
        if manifest:
            row["manifest"] = manifest
        if metrics is not None:
            row["metrics"] = flatten_metrics(metrics)
        if spans is not None:
            row["spans"] = span_wallclocks(spans)
        if profile is not None:
            profile = getattr(profile, "seconds", profile)
            if profile:
                row["profile"] = {name: round(seconds, 6)
                                  for name, seconds
                                  in sorted(profile.items())}
        if wall_s is not None:
            row["wall_s"] = round(wall_s, 6)
        if extra:
            row["extra"] = extra
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, separators=(",", ":"),
                                    sort_keys=False) + "\n")
        return row

    def rows(self, kind: str | None = None) -> list[dict]:
        """All rows (append order), optionally filtered by *kind*."""
        if not self.path.exists():
            return []
        rows = []
        with open(self.path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ConfigError(
                        f"{self.path}:{number}: corrupt history row "
                        f"({error})") from error
                if kind is None or row.get("kind") == kind:
                    rows.append(row)
        return rows


@dataclass
class Regression:
    """One flagged cross-run drift."""

    kind: str
    metric: str  # metric name, or "span:<name>"
    baseline: float
    value: float

    @property
    def delta(self) -> float:
        return self.value - self.baseline

    def describe(self) -> str:
        relative = (self.delta / self.baseline if self.baseline
                    else float("inf"))
        return (f"[{self.kind}] {self.metric}: {self.value:g} vs "
                f"baseline {self.baseline:g} ({relative:+.0%})")


def _baseline_mean(rows: list[dict], key: str, name: str,
                   window: int) -> float | None:
    values = [row.get(key, {}).get(name) for row in rows[-window:]]
    values = [value for value in values if value is not None]
    if not values:
        return None
    return sum(values) / len(values)


#: Metric-name prefixes gated slowdown-only: these count the commands
#: the inference pipeline spent to reach a conclusion, so *more* is a
#: cost regression but *fewer* is an improvement (a cheaper experiment
#: schedule), not a silently skipped stage.
EFFORT_METRIC_PREFIXES = ("inference.commands_to_discovery",)


def _effort_metric(name: str) -> bool:
    return name.startswith(EFFORT_METRIC_PREFIXES)


def gate(rows: list[dict], *, tolerance: float = 0.25,
         span_tolerance: float = 0.5, baseline: int = 5
         ) -> list[Regression]:
    """Flag the newest of *rows* (one kind) against a rolling baseline.

    *tolerance* bounds the relative delta of each counter metric
    (either direction — except :data:`EFFORT_METRIC_PREFIXES` names,
    which flag increases only).  *span_tolerance* bounds span
    wall-clocks (slower only — timing jitter makes "too fast"
    meaningless).  *baseline* is the rolling-window size.  Fewer than
    two rows → no baseline → no flags.
    """
    if len(rows) < 2:
        return []
    newest, previous = rows[-1], rows[:-1]
    kind = newest.get("kind", "?")
    flags: list[Regression] = []
    for name, value in (newest.get("metrics") or {}).items():
        base = _baseline_mean(previous, "metrics", name, baseline)
        if base is None:
            continue
        if _effort_metric(name):
            if value > abs(base) * (1.0 + tolerance) and value > base:
                flags.append(Regression(kind, name, base, value))
            continue
        if base == 0:
            if value != 0:
                flags.append(Regression(kind, name, base, value))
            continue
        if abs(value - base) / abs(base) > tolerance:
            flags.append(Regression(kind, name, base, value))
    for name, value in (newest.get("spans") or {}).items():
        base = _baseline_mean(previous, "spans", name, baseline)
        if base is None or base <= 0:
            continue
        if value > base * (1.0 + span_tolerance):
            flags.append(Regression(kind, f"span:{name}", base, value))
    # Per-opcode profiles gate exactly like spans: wall time, slower
    # only — a command-bus regression is a perf regression.
    for name, value in (newest.get("profile") or {}).items():
        base = _baseline_mean(previous, "profile", name, baseline)
        if base is None or base <= 0:
            continue
        if value > base * (1.0 + span_tolerance):
            flags.append(Regression(kind, f"profile:{name}", base,
                                    value))
    wall = newest.get("wall_s")
    if wall is not None:
        values = [row.get("wall_s") for row in previous[-baseline:]]
        values = [value for value in values if value is not None]
        if values:
            base = sum(values) / len(values)
            if base > 0 and wall > base * (1.0 + span_tolerance):
                flags.append(Regression(kind, "wall_s", base, wall))
    return flags


def render_trend(rows: list[dict], metric: str | None = None) -> str:
    """Per-kind trend lines (newest last)."""
    if not rows:
        return "(empty history)"
    lines = []
    kinds: dict[str, list[dict]] = {}
    for row in rows:
        kinds.setdefault(row.get("kind", "?"), []).append(row)
    for kind, kind_rows in kinds.items():
        lines.append(f"{kind} ({len(kind_rows)} runs)")
        if metric:
            for number, row in enumerate(kind_rows, start=1):
                value = (row.get("metrics") or {}).get(metric)
                if value is None:
                    value = (row.get("spans") or {}).get(metric)
                if value is None:
                    value = (row.get("profile") or {}).get(metric)
                lines.append(f"  run {number:>3}: {metric} = {value}")
            continue
        newest = kind_rows[-1]
        for name, value in sorted((newest.get("spans") or {}).items()):
            lines.append(f"  span {name:<28} {value:>10.3f}s")
        for name, value in sorted(
                (newest.get("profile") or {}).items()):
            lines.append(f"  prof {name:<28} {value:>10.3f}s")
        if "wall_s" in newest:
            lines.append(f"  wall {'total':<28} "
                         f"{newest['wall_s']:>10.3f}s")
        metrics = newest.get("metrics") or {}
        lines.append(f"  metrics recorded: {len(metrics)}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.history",
        description="Report trends from a run-history store, or gate the "
                    "newest run of each kind against its rolling "
                    "baseline.")
    parser.add_argument("store", help="path to a run-history .jsonl file")
    parser.add_argument("--kind", default=None,
                        help="restrict to one run kind")
    parser.add_argument("--metric", default=None,
                        help="trend one metric (or span name) per run")
    parser.add_argument("--gate", action="store_true",
                        help="flag regressions in the newest run of each "
                             "kind; exit 1 when any are found")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative counter-delta tolerance "
                             "(default 0.25)")
    parser.add_argument("--span-tolerance", type=float, default=0.5,
                        help="span wall-clock slowdown slack "
                             "(default 0.5)")
    parser.add_argument("--baseline", type=int, default=5,
                        help="rolling-baseline window (default 5)")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    args = parser.parse_args(argv)

    store = RunHistory(args.store)
    try:
        rows = store.rows(kind=args.kind)
    except ConfigError as error:
        print(f"history error: {error}", file=sys.stderr)
        return 2
    if not rows:
        print("history store is empty", file=sys.stderr)
        return 2

    if not args.gate:
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(render_trend(rows, metric=args.metric))
        return 0

    kinds: dict[str, list[dict]] = {}
    for row in rows:
        kinds.setdefault(row.get("kind", "?"), []).append(row)
    flags: list[Regression] = []
    for kind_rows in kinds.values():
        flags.extend(gate(kind_rows, tolerance=args.tolerance,
                          span_tolerance=args.span_tolerance,
                          baseline=args.baseline))
    if args.json:
        print(json.dumps([{
            "kind": flag.kind, "metric": flag.metric,
            "baseline": flag.baseline, "value": flag.value,
        } for flag in flags], indent=2))
    else:
        for kind, kind_rows in kinds.items():
            baseline_size = min(len(kind_rows) - 1, args.baseline)
            print(f"{kind}: {len(kind_rows)} runs, baseline of "
                  f"{max(baseline_size, 0)}")
        if flags:
            print()
            for flag in flags:
                print(f"REGRESSION: {flag.describe()}")
        else:
            print("gate: clean — no cross-run regressions flagged")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
