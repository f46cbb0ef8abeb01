"""Trace replay: re-execute a recorded command stream and verify it.

A schema-v2 trace (see :mod:`repro.obs.recorder`) is an *executable*
artifact: its header manifest names the module, the chip build recipe
and the fault-injector seed, WR records carry the written pattern, and
RD records carry a digest of the data that came back.  :func:`replay_trace`
rebuilds that module from scratch, issues every recorded command through
a real :class:`~repro.softmc.SoftMCHost`, and verifies

- the host's virtual clock at each command matches the recorded ``ps``,
- the REF index at each burst matches the recorded ``idx``,
- every read's digest matches the recorded CRC, and
- the final host ledger matches the trace summary,

turning a trace into a machine-checkable proof of the run it recorded.
The first failed check is the *first divergence* — the exact command at
which a re-execution stopped being the run.

A trace older than schema 2 (no digests, no pattern specs) cannot be
re-executed and is rejected like a trace without a recipe;
``python -m repro.obs.report`` still cross-checks any trace's ledger by
counting.

CLI: ``python -m repro.obs.replay trace.jsonl`` — exits 0 on a verified
replay, 1 on the first divergence or a ledger mismatch, 2 on a trace
that carries no replayable recipe (or predates schema 2), and 3 on a
truncated trace (no summary record).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from ..errors import ConfigError
from .recorder import data_digest, mismatch_digest, read_trace

#: Eval-scale names the replayer can rebuild hosts for (``scale`` in the
#: manifest); anything else needs an explicit ``chip`` recipe.
_EVAL_SCALES = ("standard", "quick")


@dataclass
class Divergence:
    """One point where re-execution stopped matching the record."""

    index: int
    check: str  # "ps" | "ref-idx" | "rd-digest" | "structure"
    record: dict
    expected: object
    actual: object

    def describe(self) -> str:
        what = self.record.get("t", self.record.get("type", "?"))
        return (f"record #{self.index} ({what} ps={self.record.get('ps')}):"
                f" {self.check} mismatch — trace has {self.expected!r}, "
                f"replay produced {self.actual!r}")


@dataclass
class ReplayResult:
    """Outcome of one :func:`replay_trace` call."""

    path: str
    version: int
    commands: int = 0
    reads_verified: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    ledger_ok: bool = False
    #: No summary record — the trace was cut off before finalize().
    truncated: bool = False
    ledger: dict = field(default_factory=dict)
    summary: dict | None = None

    @property
    def ok(self) -> bool:
        return (not self.divergences and not self.truncated
                and self.ledger_ok)


def host_from_manifest(meta: dict):
    """Rebuild the recorded run's host from a trace-header manifest.

    Understands two recipes: an explicit ``chip`` kwargs dict (stamped
    by ``python -m repro.obs``) passed to
    :func:`repro.vendors.build_module`, or an eval ``scale`` name whose
    operating point rebuilds the host.  A ``fault_profile`` other than
    ``"none"`` additionally reattaches a :class:`~repro.faults.
    FaultInjector` seeded with the manifest's ``fault_seed``, so every
    fault decision replays identically.
    """
    from ..faults import FaultInjector
    from ..softmc import SoftMCHost
    from ..vendors import build_module, get_module

    module_id = meta.get("module")
    if not module_id:
        raise ConfigError("trace manifest names no module; cannot rebuild "
                          "the device under test")
    spec = get_module(module_id)
    if "chip" in meta:
        chip = build_module(spec, **meta["chip"])
    elif meta.get("scale") in _EVAL_SCALES:
        from ..eval.scale import get_scale
        return get_scale(meta["scale"]).build_host(spec)
    else:
        raise ConfigError(
            f"trace manifest has no chip recipe (scale="
            f"{meta.get('scale')!r}); cannot rebuild module {module_id}")
    faults = None
    profile = meta.get("fault_profile")
    if profile and profile != "none":
        if "fault_seed" not in meta:
            raise ConfigError(f"fault profile {profile!r} recorded without "
                              "a fault_seed; cannot replay faults")
        faults = FaultInjector(profile, seed=meta["fault_seed"])
    return SoftMCHost(chip, faults=faults)


def _check(result: ReplayResult, index: int, check: str, record: dict,
           expected, actual, stop_after: int) -> bool:
    """Record a failed check; True when replay should stop."""
    if expected == actual:
        return False
    result.divergences.append(Divergence(
        index=index, check=check, record=record,
        expected=expected, actual=actual))
    return len(result.divergences) >= stop_after


def _collect_multi(records, start: int, first: dict) -> list[dict]:
    """The ``hammer_multi`` group beginning at *start* (``mg`` stamped)."""
    group = [first]
    size = first["mg"]
    for offset in range(1, size):
        record = records[start + offset]
        if record.get("t") != "ACT" or record.get("mg") != size:
            raise ConfigError(
                f"record #{start + offset}: broken hammer_multi group "
                f"(expected {size} consecutive ACT records)")
        group.append(record)
    return group


def replay_trace(path, *, host=None, max_divergences: int = 1
                 ) -> ReplayResult:
    """Re-execute the trace at *path*; stop after *max_divergences*.

    *host* overrides the manifest-derived module (tests use this to
    replay against a deliberately different device).
    """
    from ..dram import HammerMode, pattern_from_spec

    records = list(read_trace(path))
    if not records or records[0].get("type") != "header":
        raise ConfigError(f"{path}: not a trace (no header record)")
    header = records[0]
    version = header.get("version", 0)
    meta = header.get("meta") or {}

    if version < 2:
        raise ConfigError(
            f"{path}: schema-v{version} trace carries no read digests or "
            "pattern specs; cannot re-execute it")
    if host is None:
        host = host_from_manifest(meta)
    result = ReplayResult(path=str(path), version=version)
    summary = None
    index = 0
    stop = max(max_divergences, 1)
    while index < len(records):
        record = records[index]
        kind = record.get("type")
        if kind == "header":
            index += 1
            continue
        if kind == "summary":
            summary = record
            index += 1
            continue
        op = record["t"]
        if op == "EVT":  # pipeline-level, not a command
            index += 1
            continue
        result.commands += 1
        if _check(result, index, "ps", record, record["ps"], host.now_ps,
                  stop):
            break
        if op == "WR":
            if "pat" not in record:
                raise ConfigError(f"record #{index}: v2 WR record has no "
                                  "pattern spec; trace is not executable")
            host.write_row(record["bk"], record["row"],
                           pattern_from_spec(record["pat"]))
        elif op == "RD":
            if record.get("mm"):
                actual = mismatch_digest(
                    host.read_row_mismatches(record["bk"], record["row"]))
            else:
                actual = data_digest(host.read_row(record["bk"],
                                                   record["row"]))
            if "crc" in record:
                result.reads_verified += 1
                if _check(result, index, "rd-digest", record,
                          record["crc"], actual, stop):
                    break
        elif op == "ACT":
            if "mg" in record:
                group = _collect_multi(records, index, record)
                host.hammer_multi(
                    {r["bk"]: [tuple(entry) for entry in r["rows"]]
                     for r in group},
                    HammerMode(group[0]["mode"]))
                result.commands += len(group) - 1
                index += len(group) - 1
            else:
                host.hammer(record["bk"],
                            [tuple(entry) for entry in record["rows"]],
                            HammerMode(record["mode"]))
        elif op == "REF":
            if _check(result, index, "ref-idx", record, record["idx"],
                      host.ref_count, stop):
                break
            host.refresh(record["n"],
                         at_nominal_rate=bool(record.get("nominal")))
        elif op == "WAIT":
            host.wait(record["dur"])
        else:
            raise ConfigError(f"record #{index}: unknown command {op!r}")
        index += 1

    result.ledger = host.ledger()
    if summary is None and not result.divergences:
        # Only scan for a summary we did not reach if we broke early.
        summary = next((r for r in records if r.get("type") == "summary"),
                       None)
    result.summary = summary
    result.truncated = summary is None
    result.ledger_ok = (
        summary is not None
        and summary.get("ref_count") == result.ledger["ref_count"]
        and summary.get("acts_per_bank") == result.ledger["acts_per_bank"])
    return result


def render_replay(result: ReplayResult) -> str:
    """Plain-text rendering of a :func:`replay_trace` outcome."""
    lines = ["Trace replay", "============", "",
             f"trace          : {result.path}",
             f"schema version : {result.version}",
             f"commands       : {result.commands}",
             f"reads verified : {result.reads_verified}"]
    for divergence in result.divergences:
        lines.append(f"DIVERGENCE     : {divergence.describe()}")
    if result.truncated:
        lines.append("LEDGER         : trace truncated: no summary record")
    elif result.ledger_ok:
        lines.append("ledger         : OK — replayed host ledger matches "
                     "the trace summary exactly")
    else:
        recorded = {k: v for k, v in (result.summary or {}).items()
                    if k != "type"}
        lines.append(f"LEDGER         : MISMATCH — replayed "
                     f"{result.ledger}, trace summary recorded "
                     f"{recorded}")
    lines.append("")
    lines.append("result         : "
                 + ("OK — the trace is an executable proof of the run"
                    if result.ok else "FAIL"))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.replay",
        description="Re-execute a recorded command trace against a "
                    "freshly built module and verify clocks, read "
                    "digests, and the final ledger.")
    parser.add_argument("trace", help="path to a trace .jsonl file")
    parser.add_argument("--all", action="store_true",
                        help="keep replaying past the first divergence "
                             "(collect up to 25)")
    args = parser.parse_args(argv)
    try:
        result = replay_trace(args.trace,
                              max_divergences=25 if args.all else 1)
    except ConfigError as error:
        print(f"replay error: {error}", file=sys.stderr)
        return 2
    print(render_replay(result))
    if result.divergences:
        return 1
    if result.truncated:
        print("trace truncated: no summary record", file=sys.stderr)
        return 3
    return 0 if result.ledger_ok else 1


if __name__ == "__main__":
    sys.exit(main())
