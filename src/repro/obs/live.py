"""Live telemetry: the side channel a running sweep reports into.

Traces, metrics, and history rows exist only after a run finishes.
This module is the *live* layer: every work unit publishes
``unit-start``, periodic ``heartbeat`` snapshots (commands issued, the
open span) and ``unit-done`` (wall-clock, commands) into a **spool
directory** of JSONL files, strictly off the artifact path.  One reader
consumes the spool while the sweep runs: the coordinator's
:class:`Watchdog`, which flags stalled units.

Design rules:

- **Determinism is untouched.**  Telemetry carries wall-clock
  timestamps and worker PIDs, which is exactly why it lives in its own
  spool and never in the trace, the metrics fold, or any rendered
  artifact.  ``--workers N`` stays byte-identical to sequential with
  telemetry enabled (``tests/eval/test_parallel_determinism.py``).
- **Crash-tolerant transport.**  Each work unit appends to its own
  file (open-append-close per event), so a worker dying mid-line can
  corrupt at most its own tail; :func:`read_spool` skips unparseable
  lines instead of failing the whole read.
- **Trace-context propagation.**  Every event is stamped with the
  coordinator's ``run_id`` and its own ``unit`` id
  (:class:`TraceContext`), so one spool holds a whole worker pool's
  events, each attributable to its unit.
- **Liveness is observable.**  :class:`Watchdog` flags units whose
  command counters stopped advancing within a deadline — a worker that
  is *alive but wedged* still heartbeats, so staleness is judged on
  progress, not on process liveness alone.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

#: Counter names summed into the ``commands`` figure of heartbeat and
#: ``unit-done`` events (the progress the watchdog judges).
COMMAND_COUNTERS = ("host.acts", "host.refs")


@dataclass(frozen=True)
class TraceContext:
    """Parent stamps propagated from the coordinator into every event.

    ``run_id`` names the coordinating run; ``unit_id`` the work unit a
    worker is executing (None for coordinator-side events).  Stamped
    verbatim on every published event, the pair is what attributes
    each event in a shared spool to its run and unit.
    """

    run_id: str
    unit_id: str | None = None

    def stamp(self, event: dict) -> dict:
        event["run"] = self.run_id
        if self.unit_id is not None:
            event["unit"] = self.unit_id
        return event


def spool_filename(unit_id: str | None) -> str:
    """Stable, collision-free spool file name for one unit."""
    if unit_id is None:
        return "_coordinator.jsonl"
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "__"
                   for ch in unit_id)
    tag = zlib.crc32(unit_id.encode("utf-8")) & 0xFFFFFFFF
    return f"{safe}-{tag:08x}.jsonl"


class TelemetrySink:
    """One unit's (or the coordinator's) end of the telemetry bus.

    ``publish`` appends one JSON line per event; ``heartbeat`` publishes
    one snapshot (the :class:`Heartbeat` thread paces the calls).  A
    sink is cheap to construct and holds no open file handle, so it
    survives fork/pickle boundaries trivially (the engine rebuilds one
    inside each worker).
    """

    def __init__(self, spool, context: TraceContext) -> None:
        self.spool = Path(spool)
        self.context = context
        self.path = self.spool / spool_filename(context.unit_id)
        self._seq = 0

    def publish(self, kind: str, **fields) -> dict:
        """Append one event; returns the event as written."""
        event: dict = {"kind": kind, "ts": round(time.time(), 6),
                       "seq": self._seq}
        self.context.stamp(event)
        event.update(fields)
        self._seq += 1
        self.spool.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(event, separators=(",", ":"))
                         + "\n")
        return event

    def heartbeat(self, metrics=None, spans=None, **fields) -> dict:
        """Publish one ``heartbeat`` snapshot; returns the event.

        Carries the ambient registry's command total and the innermost
        open span, the two facts the watchdog needs to answer "is this
        unit moving, and in which stage?".
        """
        if metrics is not None and getattr(metrics, "enabled", False):
            fields.setdefault("commands", sum(
                metrics.counter(name) for name in COMMAND_COUNTERS))
        if spans is not None and getattr(spans, "enabled", False):
            current = spans.current_name()
            if current is not None:
                fields.setdefault("span", current)
        return self.publish("heartbeat", **fields)


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable recipe for the telemetry side channel of one run.

    The engine ships this into every pool worker; each worker derives
    its own :class:`TelemetrySink` from it.  ``interval_s`` paces the
    background heartbeat; ``stall_deadline_s`` (when set) arms the
    coordinator-side :class:`Watchdog`.
    """

    spool: str
    run_id: str = "run"
    interval_s: float = 1.0
    stall_deadline_s: float | None = None

    def sink(self, unit_id: str | None = None) -> TelemetrySink:
        return TelemetrySink(self.spool, TraceContext(run_id=self.run_id,
                                                     unit_id=unit_id))


class Heartbeat:
    """Background thread publishing periodic unit snapshots.

    Reads the ambient metrics registry and span tracker from *outside*
    the unit's thread — dict reads are atomic under the GIL — so the
    hot path pays nothing for liveness reporting.
    """

    def __init__(self, sink: TelemetrySink, metrics=None, spans=None,
                 interval_s: float = 1.0) -> None:
        self._sink = sink
        self._metrics = metrics
        self._spans = spans
        self._interval_s = max(interval_s, 0.05)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "Heartbeat":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-telemetry")
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self._sink.heartbeat(self._metrics, self._spans)
            except OSError:  # spool unwritable: liveness must not kill
                return       # the unit it reports on

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)


# -- coordinator side: reading the spool ---------------------------------


def read_spool(spool) -> list[dict]:
    """All events in a spool directory, oldest first.

    Corrupt lines (a worker died mid-write) and foreign files are
    skipped: a mid-run read must return whatever is readable *now*.
    """
    spool = Path(spool)
    if not spool.is_dir():
        return []
    events: list[dict] = []
    for path in sorted(spool.glob("*.jsonl")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
    events.sort(key=lambda e: (e.get("ts", 0.0), e.get("seq", 0)))
    return events


def _by_unit(events: list[dict]) -> dict[str, list[dict]]:
    units: dict[str, list[dict]] = {}
    for event in events:
        unit = event.get("unit")
        if unit is not None:
            units.setdefault(unit, []).append(event)
    return units


@dataclass
class StalledUnit:
    """One unit the watchdog flagged: alive (maybe), but not moving."""

    unit_id: str
    age_s: float
    last_kind: str
    span: str | None = None

    def describe(self) -> str:
        where = f" in span {self.span!r}" if self.span else ""
        return (f"{self.unit_id}: no progress for {self.age_s:.1f}s "
                f"(last event {self.last_kind}{where})")


class Watchdog:
    """Stall detector over spool events.

    A unit is *stalled* when it started, has not finished, and its
    command counter has not advanced within ``deadline_s``.  Judged on
    progress rather than heartbeat arrival: a wedged worker whose
    heartbeat thread still runs is exactly the case a deadline on raw
    liveness would miss.  Only a unit's latest attempt (the events from
    its last ``unit-start`` on) is judged: a failed attempt publishes
    ``unit-done`` before the engine retries it.
    """

    def __init__(self, deadline_s: float) -> None:
        self.deadline_s = deadline_s

    def scan(self, events: list[dict],
             now: float | None = None) -> list[StalledUnit]:
        if now is None:
            now = time.time()
        stalled: list[StalledUnit] = []
        for unit_id, unit_events in sorted(_by_unit(events).items()):
            starts = [index for index, event in enumerate(unit_events)
                      if event.get("kind") == "unit-start"]
            if starts:
                unit_events = unit_events[starts[-1]:]
            if any(e.get("kind") == "unit-done" for e in unit_events):
                continue
            progress_ts = unit_events[0].get("ts", now)
            commands = None
            span = None
            last_kind = unit_events[0].get("kind", "?")
            for event in unit_events:
                span = event.get("span", span)
                last_kind = event.get("kind", last_kind)
                issued = event.get("commands")
                if issued is not None and issued != commands:
                    commands = issued
                    progress_ts = event.get("ts", progress_ts)
                elif issued is None:
                    progress_ts = event.get("ts", progress_ts)
            age = now - progress_ts
            if age > self.deadline_s:
                stalled.append(StalledUnit(unit_id=unit_id,
                                           age_s=round(age, 3),
                                           last_kind=last_kind,
                                           span=span))
        return stalled
