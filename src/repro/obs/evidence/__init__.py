"""Inference provenance: evidence ledger + commands-to-discovery.

U-TRR's output is a handful of inferred TRR parameters per module
(sampler period, table capacity, REF-to-TRR ratio, HC_first, the
classifier label).  This module records *why* the pipeline believes
each of them — and what each conclusion cost in DRAM commands — as an
append-only ledger of **decision nodes**:

``{"kind": "decision", "seq": 3, "module": "A5", "unit": "eval/A5",
"stage": "inference.period", "parameter": "period", "value": 16,
"outcome": "accepted", "confidence": 1.0,
"commands": {"acts": 120384, "refs": 9216, "total": 129600},
"commands_to_discovery": 41200,
"evidence": [{"kind": "ref-indices", "count": 9, "refs": [..]}],
"detail": {...}}``

* ``outcome`` is one of :data:`OUTCOMES` — a hypothesis was accepted,
  rejected, or degraded (accepted as a fallback after faults).
* ``commands`` is the cumulative command stamp at decision time, taken
  from the host's own ACT/REF ledger only — never from wall time or
  the command profiler, so stamps are deterministic for a seed,
  identical across worker counts, and the same with or without
  ``--profile``.
* ``commands_to_discovery`` is the waterfall delta: commands issued
  since the previous decision on the same ledger.  Summed per
  parameter it attributes the whole run's command budget to the
  conclusions it paid for (the metric the ROADMAP's adaptive-planner
  item optimizes).
* ``evidence`` is the chain of concrete observations backing the
  decision — REF indices, REF windows, probed rows, read digests —
  built with the ``ev_*`` helpers so the schema stays uniform and
  bounded (:data:`MAX_ITEMS` caps inline lists).

Ledgers ride the same side channels as metrics: every run records one,
per-unit ledgers fold into the caller's in submission order
(``--workers N`` byte-identical to sequential), cache hits replay their
stored nodes, and a run given ``--evidence PATH`` writes the merged
ledger as an ``evidence.jsonl`` sidecar.

``python -m repro.obs.evidence sidecar.jsonl`` renders the per-module
report (parameter -> evidence chain -> command budget); ``--json``
emits the structured form; the exit code is nonzero when any
conclusion carries an empty evidence chain.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Sidecar schema version (header row ``{"kind": "evidence-header"}``).
EVIDENCE_SCHEMA = 1

#: Decision outcomes.
OUTCOMES = ("accepted", "rejected", "degraded")

#: Cap on inline list payloads so sidecars stay bounded.
MAX_ITEMS = 64


def _jsonify(value, _depth: int = 0):
    """Best-effort conversion to a JSON- and pickle-safe value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        try:
            return _jsonify(value.item(), _depth)
        except Exception:
            return repr(value)[:120]
    if _depth >= 6:
        return repr(value)[:120]
    if isinstance(value, dict):
        return {str(key): _jsonify(item, _depth + 1)
                for key, item in list(value.items())[:MAX_ITEMS]}
    if isinstance(value, (list, tuple, set, frozenset)):
        seq = list(value)
        if isinstance(value, (set, frozenset)):
            try:
                seq = sorted(seq)
            except TypeError:
                pass
        out = [_jsonify(item, _depth + 1) for item in seq[:MAX_ITEMS]]
        if len(seq) > MAX_ITEMS:
            out.append(f"... +{len(seq) - MAX_ITEMS} more")
        return out
    return repr(value)[:120]


def command_stamp(host=None) -> dict:
    """Cumulative command counts at this instant (deterministic).

    *host* is anything exposing ``ref_count`` / ``acts_per_bank`` (the
    SoftMC host's own ledger).  Only that ledger enters a stamp — never
    wall time, and never what the command profiler saw — so a
    sidecar's bytes do not depend on whether the run was profiled.
    """
    acts = refs = 0
    if host is not None:
        refs = int(getattr(host, "ref_count", 0) or 0)
        per_bank = getattr(host, "acts_per_bank", None) or {}
        acts = int(sum(per_bank.values()))
    return {"acts": acts, "refs": refs, "total": acts + refs}


# -- observation constructors (uniform evidence-chain schema) ----------

def ev_refs(indices, label: str = "ref-indices") -> dict:
    """REF indices at which an effect was observed (trace-resolvable)."""
    seq = [int(index) for index in indices]
    node = {"kind": label, "count": len(seq), "refs": seq[:MAX_ITEMS]}
    if len(seq) > MAX_ITEMS:
        node["truncated"] = True
    return node


def ev_window(lo, hi, label: str = "ref-window") -> dict:
    """A half-open REF-index window covering an observation."""
    return {"kind": label, "lo": int(lo), "hi": int(hi)}


def ev_rows(rows, label: str = "rows") -> dict:
    """Row addresses supporting a decision."""
    seq = [int(row) for row in rows]
    node = {"kind": label, "count": len(seq), "rows": seq[:MAX_ITEMS]}
    if len(seq) > MAX_ITEMS:
        node["truncated"] = True
    return node


def ev_probe(row, flipped, testable) -> dict:
    """One mapping-RE hammer probe: which neighbours flipped."""
    return {"kind": "probe", "row": int(row),
            "flipped": [int(r) for r in flipped][:MAX_ITEMS],
            "testable": [int(r) for r in testable][:MAX_ITEMS]}


def ev_value(label: str, value) -> dict:
    """A generic labelled observation (counts, digests, fractions)."""
    return {"kind": label, "value": _jsonify(value)}


def ev_error(err) -> dict:
    """The error that forced a rejection or degradation."""
    return {"kind": "error", "error": type(err).__name__,
            "detail": str(err)[:200]}


class EvidenceLedger:
    """Append-only ledger of decision nodes for one run (or one unit).

    Every :class:`~repro.obs.Observability` bundle carries one.
    Per-unit ledgers are created by the parallel engine and folded into
    the caller's ledger in submission order via :meth:`merge`; the
    merged ledger is what persists as the sidecar.  Recording sites
    call :meth:`decide` once per accepted/rejected hypothesis — cold
    paths only, so the ledger stays off the command hot path entirely.
    """

    def __init__(self, module: str | None = None):
        self.module = module
        self.nodes: list[dict] = []
        # Cumulative command total at the previous decision: the
        # waterfall baseline for commands_to_discovery.
        self._last_total = 0

    def decide(self, parameter: str, value=None, *,
               outcome: str = "accepted", stage: str | None = None,
               confidence: float | None = None, evidence=(),
               detail: dict | None = None, host=None,
               module: str | None = None) -> dict:
        """Record one decision node and return it."""
        if outcome not in OUTCOMES:
            raise ValueError(f"outcome must be one of {OUTCOMES}, "
                             f"got {outcome!r}")
        stamp = command_stamp(host=host)
        node: dict = {
            "kind": "decision",
            "seq": len(self.nodes),
            "parameter": str(parameter),
            "value": _jsonify(value),
            "outcome": outcome,
        }
        mod = module if module is not None else self.module
        if mod is not None:
            node["module"] = mod
        if stage is not None:
            node["stage"] = stage
        if confidence is not None:
            node["confidence"] = round(float(confidence), 6)
        node["commands"] = stamp
        node["commands_to_discovery"] = max(
            stamp["total"] - self._last_total, 0)
        self._last_total = max(self._last_total, stamp["total"])
        node["evidence"] = [_jsonify(item) for item in evidence if item]
        if detail:
            node["detail"] = _jsonify(detail)
        self.nodes.append(node)
        return node

    def merge(self, nodes: list[dict], unit: str | None = None) -> None:
        """Fold another ledger's :meth:`dump` (its node dicts) in order.

        *unit* stamps the originating work-unit id onto nodes that do
        not carry one yet — the engine passes the submission-order unit
        id, so a ``--workers N`` fold is byte-identical to sequential.
        """
        for node in nodes:
            row = dict(node)
            if unit is not None and "unit" not in row:
                row["unit"] = unit
            row["seq"] = len(self.nodes)
            self.nodes.append(row)

    def dump(self) -> list[dict]:
        """Plain-dict node list (envelope / sidecar payload)."""
        return [dict(node) for node in self.nodes]

    def emit_metrics(self, metrics) -> None:
        """Fold this ledger into a :class:`MetricsRegistry`.

        Emits ``evidence.*`` counters plus one
        ``inference.commands_to_discovery.<parameter>`` counter per
        parameter (summed over that parameter's decisions, retries
        included) — the counters the history gate compares.
        """
        for node in self.nodes:
            metrics.inc("evidence.decisions")
            metrics.inc("evidence." + node.get("outcome", "accepted"))
            if not node.get("evidence"):
                metrics.inc("evidence.empty_chains")
            cost = int(node.get("commands_to_discovery", 0) or 0)
            if cost:
                metrics.inc("inference.commands_to_discovery."
                            + node["parameter"], cost)

    def summary(self) -> dict:
        return nodes_summary(self.nodes)


def nodes_summary(nodes) -> dict:
    """Aggregate node dicts into the compact per-parameter summary the
    CLIs log and print."""
    out: dict = {"decisions": 0, "accepted": 0, "rejected": 0,
                 "degraded": 0, "empty_chains": 0, "commands": 0,
                 "parameters": {}}
    for node in nodes:
        out["decisions"] += 1
        outcome = node.get("outcome", "accepted")
        if outcome in OUTCOMES:
            out[outcome] += 1
        if not node.get("evidence"):
            out["empty_chains"] += 1
        cost = int(node.get("commands_to_discovery", 0) or 0)
        out["commands"] += cost
        stats = out["parameters"].setdefault(
            node.get("parameter", "?"),
            {"decisions": 0, "accepted": 0, "commands": 0, "evidence": 0})
        stats["decisions"] += 1
        if outcome == "accepted":
            stats["accepted"] += 1
        stats["commands"] += cost
        stats["evidence"] += len(node.get("evidence") or ())
    out["parameters"] = dict(sorted(out["parameters"].items()))
    return out


# -- sidecar IO --------------------------------------------------------

def write_evidence(path, nodes, meta: dict | None = None) -> Path:
    """Persist *nodes* as the ``evidence.jsonl`` sidecar.

    Line 1 is the header (schema + optional run meta); every following
    line is one decision node.  Keys are sorted so identical ledgers
    serialize byte-identically (the CI workers-vs-sequential check
    diffs these files directly).
    """
    path = Path(path)
    if isinstance(nodes, EvidenceLedger):
        nodes = nodes.dump()
    header: dict = {"kind": "evidence-header", "schema": EVIDENCE_SCHEMA,
                    "decisions": len(nodes)}
    if meta:
        header.update(_jsonify(meta))
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for node in nodes:
            fh.write(json.dumps(node, sort_keys=True) + "\n")
    return path


def read_evidence(path) -> tuple[dict, list[dict]]:
    """Read a sidecar back as ``(header, nodes)``."""
    header: dict = {}
    nodes: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("kind") == "evidence-header":
                header = row
            else:
                nodes.append(row)
    return header, nodes


# -- report ------------------------------------------------------------

def node_module(node: dict) -> str:
    """The module a node belongs to (explicit tag, else unit id)."""
    module = node.get("module")
    if module:
        return str(module)
    unit = node.get("unit")
    if unit:
        parts = str(unit).split("/")
        return parts[1] if len(parts) > 1 else parts[0]
    return "-"


def _render_observation(obs: dict) -> str:
    kind = obs.get("kind", "?")
    fields = ", ".join(f"{key}={_compact(value)}"
                       for key, value in sorted(obs.items())
                       if key != "kind")
    return f"{kind}({fields})" if fields else kind


def _compact(value, limit: int = 48) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def render_report(nodes, *, chains: bool = True) -> str:
    """Markdown report: per-module parameter table + evidence chains."""
    by_module: dict[str, list[dict]] = {}
    for node in nodes:
        by_module.setdefault(node_module(node), []).append(node)
    total = nodes_summary(nodes)
    lines = [f"# Evidence report — {len(by_module)} module(s), "
             f"{total['decisions']} decision(s), "
             f"{total['commands']} command(s) attributed", ""]
    for module in sorted(by_module):
        rows = by_module[module]
        summary = nodes_summary(rows)
        lines.append(f"## {module}")
        lines.append("")
        lines.append("| parameter | value | outcome | confidence "
                     "| commands_to_discovery | evidence |")
        lines.append("|---|---|---|---|---|---|")
        for node in rows:
            confidence = node.get("confidence")
            lines.append(
                "| {p} | {v} | {o} | {c} | {n} | {e} |".format(
                    p=node.get("parameter", "?"),
                    v=_compact(node.get("value")),
                    o=node.get("outcome", "accepted"),
                    c="-" if confidence is None else confidence,
                    n=node.get("commands_to_discovery", 0),
                    e=len(node.get("evidence") or ())))
        lines.append("")
        lines.append(f"Command budget: {summary['commands']} commands "
                     f"over {summary['decisions']} decisions "
                     f"({summary['accepted']} accepted, "
                     f"{summary['rejected']} rejected, "
                     f"{summary['degraded']} degraded).")
        if chains:
            lines.append("")
            lines.append("Evidence chains:")
            for node in rows:
                chain = node.get("evidence") or ()
                rendered = ("; ".join(_render_observation(obs)
                                      for obs in chain)
                            if chain else "(EMPTY)")
                lines.append(f"- {node.get('parameter', '?')} "
                             f"[{node.get('outcome', 'accepted')}] "
                             f"<- {rendered}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _max_ref_index(nodes) -> int | None:
    """Largest REF index referenced by any evidence observation."""
    top: int | None = None
    for node in nodes:
        for obs in node.get("evidence") or ():
            candidates: list[int] = []
            refs = obs.get("refs")
            if isinstance(refs, list):
                candidates.extend(int(r) for r in refs
                                  if isinstance(r, int))
            for key in ("lo", "hi"):
                bound = obs.get(key)
                if isinstance(bound, int) and "window" in str(
                        obs.get("kind", "")):
                    candidates.append(bound)
            if candidates:
                peak = max(candidates)
                top = peak if top is None else max(top, peak)
    return top


def check_trace(nodes, trace_path) -> tuple[bool, str]:
    """Verify REF-index evidence resolves inside *trace_path*.

    Uses the trace's closing ledger summary (``ref_count``): every REF
    index cited as evidence must have been issued by the traced run.
    """
    from ..recorder import read_trace, replay_ledger
    records = read_trace(trace_path)
    ledger = replay_ledger(records)
    ref_count = int(ledger.get("ref_count", 0))
    peak = _max_ref_index(nodes)
    if peak is None:
        return True, "no REF-index evidence to resolve"
    if peak < ref_count:
        return True, (f"max cited REF index {peak} < traced "
                      f"ref_count {ref_count}")
    return False, (f"REF index {peak} cited as evidence but the trace "
                   f"only issued {ref_count} REFs")


def _collect_paths(raw_paths) -> list[Path]:
    paths: list[Path] = []
    for raw in raw_paths:
        path = Path(raw)
        if path.is_dir():
            paths.extend(sorted(path.glob("**/evidence*.jsonl")))
        else:
            paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.evidence",
        description="Render inference-provenance sidecars: parameter "
                    "-> evidence chain -> command budget.")
    parser.add_argument("paths", nargs="+",
                        help="evidence.jsonl sidecars (or directories "
                             "to search)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the structured report instead of "
                             "markdown")
    parser.add_argument("--no-chains", action="store_true",
                        help="omit per-decision evidence chains")
    parser.add_argument("--trace", default=None,
                        help="trace.jsonl to resolve REF-index "
                             "evidence against")
    args = parser.parse_args(argv)

    paths = _collect_paths(args.paths)
    if not paths:
        print("no evidence sidecars found", file=sys.stderr)
        return 2
    runs = []
    nodes: list[dict] = []
    for path in paths:
        try:
            header, rows = read_evidence(path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"cannot read {path}: {err}", file=sys.stderr)
            return 2
        runs.append({"path": str(path), "header": header,
                     "summary": nodes_summary(rows), "nodes": rows})
        nodes.extend(rows)

    empty = sum(1 for node in nodes if not node.get("evidence"))
    resolved = None
    if args.trace is not None:
        try:
            ok, message = check_trace(nodes, args.trace)
        except (OSError, json.JSONDecodeError) as err:
            print(f"cannot read trace {args.trace}: {err}",
                  file=sys.stderr)
            return 2
        resolved = {"ok": ok, "message": message}

    if args.as_json:
        report = {"schema": EVIDENCE_SCHEMA, "runs": runs,
                  "summary": nodes_summary(nodes),
                  "empty_chains": empty}
        if resolved is not None:
            report["trace"] = resolved
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        sys.stdout.write(render_report(nodes,
                                       chains=not args.no_chains))
        if resolved is not None:
            print(f"\ntrace resolution: "
                  f"{'ok' if resolved['ok'] else 'FAILED'} — "
                  f"{resolved['message']}")
    if empty:
        print(f"ERROR: {empty} decision(s) carry an empty evidence "
              f"chain", file=sys.stderr)
        return 1
    if resolved is not None and not resolved["ok"]:
        print(f"ERROR: {resolved['message']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
