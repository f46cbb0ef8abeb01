"""Command-level trace recording (the observability tentpole).

The whole U-TRR methodology observes a module *only* through the DDR
command stream and read-back data; a trace recorder makes that stream a
first-class artifact.  :class:`TraceRecorder` hooks into
:class:`~repro.softmc.SoftMCHost` and streams one JSON object per line
(JSONL) for every host-level command — ACT batches, WR/RD row accesses,
REF bursts (with the host's REF index), and idle WAITs — each stamped
with the host's picosecond clock.  Precharges are implicit: the
simulated controller runs a closed-row policy, so every ACT carries its
own PRE and no separate PRE records are emitted.

Memory stays bounded no matter how long the run: records are serialized
immediately into a small line buffer that is flushed to disk every
``flush_every`` events, so a multi-minute inference run (hundreds of
thousands of commands) never holds more than the buffer in memory.

Traces are *deterministic*: every field derives from the simulation
(host clock, REF index, row addresses), never from the wall clock, so
two identically-seeded runs produce byte-identical event streams.

Schema **v2** additionally makes a trace *executable*: WR records carry
the written pattern's spec, RD records carry a CRC-32 digest of the
read-back payload, and multi-bank hammer batches are group-stamped, so
:mod:`repro.obs.replay` can re-issue the whole command stream against a
freshly built module and verify every read.  v1 traces (no digests)
still load and report (:func:`replay_ledger` counts their ledger), but
cannot be re-executed.

The disabled path is :class:`NullRecorder` — a strict no-op whose
``enabled`` flag lets hot paths skip even the method call.
"""

from __future__ import annotations

import json
import zlib
from typing import IO, Iterable, Iterator

import numpy as np

from ..errors import ConfigError

#: Bump when the record schema changes shape (see docs/OBSERVABILITY.md).
#: v2 added RD digests, WR pattern specs, and multi-batch group stamps.
TRACE_VERSION = 2


def data_digest(bits) -> int:
    """CRC-32 of a read-back bit array (cheap, deterministic).

    The digest covers exactly what the experimenter sees — post
    fault-injection — so a replayed run with the same injector seed must
    reproduce it bit for bit.
    """
    return zlib.crc32(np.ascontiguousarray(bits).tobytes())


def mismatch_digest(positions) -> int:
    """CRC-32 of a mismatch-position list (``read_row_mismatches``)."""
    return zlib.crc32(np.asarray(positions, dtype=np.int64).tobytes())


def _dumps(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), sort_keys=False)


class NullRecorder:
    """The disabled recorder: every hook is a strict no-op.

    ``enabled`` is False so :class:`~repro.softmc.SoftMCHost` caches
    ``None`` for its recorder slot and the per-command hot path stays
    bit-identical to a host built with no observability at all (the
    overhead bound is enforced by ``benchmarks/bench_components.py``).
    """

    enabled = False
    events = 0
    path = None

    def on_write(self, ps: int, bank: int, row: int,
                 pattern=None) -> None:
        pass

    def on_read(self, ps: int, bank: int, row: int, digest=None,
                mismatches: bool = False) -> None:
        pass

    def on_act(self, ps: int, bank: int, entries, mode,
               group: int | None = None) -> None:
        pass

    def on_ref(self, ps: int, index: int, count: int,
               nominal: bool = False) -> None:
        pass

    def on_wait(self, ps: int, duration_ps: int) -> None:
        pass

    def event(self, kind: str, ps: int = 0, **fields) -> None:
        pass

    def close(self, summary: dict | None = None) -> None:
        pass

    def __enter__(self) -> "NullRecorder":
        return self

    def __exit__(self, *exc) -> None:
        pass


class TraceRecorder:
    """Streams host-level DDR commands to a JSONL file.

    Record shapes (all share the host picosecond timestamp ``ps``):

    - ``{"type":"header","version":2,"meta":{...}}`` — first line.
    - ``{"t":"WR","ps":..,"bk":..,"row":..,"pat":..}`` — row write
      (1 implicit ACT); ``pat`` is the written pattern's spec
      (:func:`repro.dram.pattern_spec`).
    - ``{"t":"RD","ps":..,"bk":..,"row":..,"crc":..}`` — row read
      (1 implicit ACT); ``crc`` digests the read-back bits, ``"mm":1``
      marks a mismatch-positions read (``crc`` then digests positions).
    - ``{"t":"ACT","ps":..,"bk":..,"n":..,"rows":[[row,count],..],
      "mode":"cascaded"}`` — one hammer batch; ``"mg":k`` marks a record
      belonging to a k-bank ``hammer_multi`` group.
    - ``{"t":"REF","ps":..,"idx":..,"n":..}`` — REF burst; ``idx`` is the
      host's REF counter *before* the burst.
    - ``{"t":"WAIT","ps":..,"dur":..}`` — idle time, refresh disabled.
    - ``{"t":"EVT","ps":..,"kind":..,...}`` — pipeline-level event
      (``trr-hit``, ``fault:*``, stage markers).
    - ``{"type":"summary","ref_count":..,"acts_per_bank":{..}}`` — last
      line, the host's own ledger for cross-checking.
    """

    enabled = True

    def __init__(self, path, *, meta: dict | None = None,
                 flush_every: int = 1024) -> None:
        if flush_every < 1:
            raise ConfigError("flush_every must be >= 1")
        self.path = str(path)
        self._fh: IO[str] | None = open(path, "w", encoding="utf-8")
        self._buffer: list[str] = []
        self._flush_every = flush_every
        #: Events recorded so far (header and summary excluded).
        self.events = 0
        header: dict = {"type": "header", "version": TRACE_VERSION}
        if meta:
            header["meta"] = meta
        self._fh.write(_dumps(header) + "\n")

    # -- internals -----------------------------------------------------------

    def _emit(self, record: dict) -> None:
        if self._fh is None:
            raise ConfigError(f"trace {self.path} is already closed")
        self._buffer.append(_dumps(record))
        self.events += 1
        if len(self._buffer) >= self._flush_every:
            self._flush()

    def _flush(self) -> None:
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()

    # -- command hooks (called by SoftMCHost) --------------------------------

    def on_write(self, ps: int, bank: int, row: int,
                 pattern=None) -> None:
        """*pattern* is the written pattern's replayable spec (v2)."""
        record = {"t": "WR", "ps": ps, "bk": bank, "row": row}
        if pattern is not None:
            record["pat"] = pattern
        self._emit(record)

    def on_read(self, ps: int, bank: int, row: int, digest=None,
                mismatches: bool = False) -> None:
        """*digest* is the CRC-32 of the read-back payload (v2);
        *mismatches* marks a ``read_row_mismatches`` call."""
        record = {"t": "RD", "ps": ps, "bk": bank, "row": row}
        if mismatches:
            record["mm"] = 1
        if digest is not None:
            record["crc"] = digest
        self._emit(record)

    def on_act(self, ps: int, bank: int, entries, mode,
               group: int | None = None) -> None:
        """One hammer batch: *entries* is a ``((row, count), ...)`` tuple;
        *group* stamps the batch count of a ``hammer_multi`` call."""
        record = {"t": "ACT", "ps": ps, "bk": bank,
                  "n": sum(count for _, count in entries),
                  "rows": [[row, count] for row, count in entries],
                  "mode": mode.value}
        if group is not None:
            record["mg"] = group
        self._emit(record)

    def on_ref(self, ps: int, index: int, count: int,
               nominal: bool = False) -> None:
        record = {"t": "REF", "ps": ps, "idx": index, "n": count}
        if nominal:
            record["nominal"] = True
        self._emit(record)

    def on_wait(self, ps: int, duration_ps: int) -> None:
        self._emit({"t": "WAIT", "ps": ps, "dur": duration_ps})

    def event(self, kind: str, ps: int = 0, **fields) -> None:
        """Pipeline-level event (TRR hit, injected fault, stage marker)."""
        self._emit({"t": "EVT", "ps": ps, "kind": kind, **fields})

    # -- lifecycle -----------------------------------------------------------

    def close(self, summary: dict | None = None) -> None:
        """Flush and close; *summary* (the host ledger) becomes the last
        line so a reader can cross-check the replayed counts."""
        if self._fh is None:
            return
        self._flush()
        if summary is not None:
            self._fh.write(_dumps({"type": "summary", **summary}) + "\n")
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path) -> Iterator[dict]:
    """Yield every record of a JSONL trace (header and summary included)."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def replay_ledger(records: Iterable[dict]) -> dict:
    """Reconstruct the host's ledger by replaying a trace's commands.

    Returns ``{"ref_count", "acts_per_bank", "events", "by_type",
    "header", "summary"}`` where ``acts_per_bank`` counts one implicit
    ACT per WR/RD and ``n`` ACTs per ACT batch — exactly the accounting
    :class:`~repro.softmc.SoftMCHost` applies to its own ledger, so a
    faithful trace replays to identical numbers.
    """
    ref_count = 0
    acts: dict[str, int] = {}
    by_type: dict[str, int] = {}
    events = 0
    header: dict | None = None
    summary: dict | None = None
    for record in records:
        kind = record.get("type")
        if kind == "header":
            header = record
            continue
        if kind == "summary":
            summary = record
            continue
        op = record["t"]
        by_type[op] = by_type.get(op, 0) + 1
        events += 1
        if op in ("WR", "RD"):
            bank = str(record["bk"])
            acts[bank] = acts.get(bank, 0) + 1
        elif op == "ACT":
            bank = str(record["bk"])
            acts[bank] = acts.get(bank, 0) + record["n"]
        elif op == "REF":
            ref_count += record["n"]
    return {"ref_count": ref_count, "acts_per_bank": acts,
            "events": events, "by_type": by_type,
            "header": header, "summary": summary}
