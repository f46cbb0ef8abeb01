"""In-memory span tree built by wrapping each layer's public functions.

Only the traced pass loads this module.  :func:`install` replaces the
functions and methods listed in :data:`TARGETS` (and every module-level
name bound to them by ``from x import f``) with timing wrappers that
record into one :class:`Tracer`: a tree of nodes keyed by span name,
each holding a call count and inclusive seconds.  A node's self time is
its inclusive time minus its children's.  Nothing is written until the
pass ends; pool workers write one tree per unit (see :func:`install`).

:func:`layer_metrics` folds the trees into the flat per-layer ledger and
:func:`render_tree` prints them as harness -> stage -> opcode -> chip-op.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import weakref
from time import perf_counter

#: (module, attribute path, span name).  Class methods are given as
#: ``Class.method``.  Span names are ``<layer>.<operation>``.
TARGETS = [
    ("repro.eval.__main__", "main", "eval.main"),
    ("repro.parallel.engine", "run_units", "parallel.run_units"),
    ("repro.eval.table1", "run_table1_module", "eval.unit"),
    ("repro.eval.runner", "evaluate_module_unit", "eval.unit"),
    ("repro.cache.store", "ResultCache.lookup", "cache.lookup"),
    ("repro.cache.store", "ResultCache.publish", "cache.publish"),
    ("repro.core.inference", "TrrInference.run", "core.inference"),
    ("repro.core.inference", "TrrInference.test_ref_independence",
     "core.stage.ref_independence"),
    ("repro.core.inference", "TrrInference.find_trr_period",
     "core.stage.period"),
    ("repro.core.inference", "TrrInference.find_refreshed_neighbors",
     "core.stage.neighbors"),
    ("repro.core.inference", "TrrInference.test_state_persistence",
     "core.stage.persistence"),
    ("repro.core.inference", "TrrInference.classify_detection",
     "core.stage.detection"),
    ("repro.core.inference", "TrrInference.estimate_capacity",
     "core.stage.capacity"),
    ("repro.core.inference", "TrrInference.test_per_bank",
     "core.stage.per_bank"),
    ("repro.core.mapping_re", "discover_row_mapping", "core.mapping"),
    ("repro.core.rowscout", "RowScout.find_groups_joint", "core.scout"),
    ("repro.core.rowscout", "RowScout.replace_group", "core.scout"),
    ("repro.core.refclassifier", "RefreshCalibrator.find_cycle",
     "core.calibrate"),
    ("repro.core.refclassifier", "RefreshCalibrator.calibrate_rows",
     "core.calibrate"),
    ("repro.core.trranalyzer", "TrrAnalyzer.run", "core.analyzer.run"),
    ("repro.core.trranalyzer", "TrrAnalyzer.run_robust",
     "core.analyzer.run_robust"),
    ("repro.attacks.sweep", "measure_hc_first", "attacks.hc_first"),
    ("repro.eval.runner", "evaluate_module", "attacks.evaluate_module"),
    ("repro.attacks.sweep", "run_vulnerability_sweep", "attacks.sweep"),
    ("repro.attacks.executor", "AttackExecutor.run", "attacks.executor"),
    ("repro.attacks.capture", "capture_window", "attacks.capture"),
    ("repro.program.compiler", "compile_program", "program.compile"),
    ("repro.program.executor", "execute_payload", "program.execute"),
    ("repro.softmc.interface", "SoftMCHost.write_row", "softmc.write"),
    ("repro.softmc.interface", "SoftMCHost.read_row", "softmc.read"),
    ("repro.softmc.interface", "SoftMCHost.read_row_mismatches",
     "softmc.read"),
    ("repro.softmc.interface", "SoftMCHost.hammer", "softmc.hammer"),
    ("repro.softmc.interface", "SoftMCHost.hammer_single", "softmc.hammer"),
    ("repro.softmc.interface", "SoftMCHost._hammer_prebuilt",
     "softmc.hammer"),
    ("repro.softmc.interface", "SoftMCHost._try_fused_hammer",
     "softmc.hammer_fused"),
    ("repro.softmc.interface", "SoftMCHost.hammer_multi",
     "softmc.hammer_multi"),
    ("repro.softmc.interface", "SoftMCHost._hammer_multi_prebuilt",
     "softmc.hammer_multi"),
    ("repro.softmc.interface", "SoftMCHost.refresh", "softmc.refresh"),
    ("repro.dram.bank", "Bank.settle", "dram.settle"),
    ("repro.dram.bank", "Bank.regular_refresh", "dram.refresh_slot"),
    ("repro.dram.bank", "Bank.absorb_hammering", "dram.absorb"),
    ("repro.dram.bank", "Bank.absorb_repeated", "dram.absorb_repeated"),
    ("repro.dram.bank", "Bank.read_mismatches", "dram.read_mismatch"),
    ("repro.dram.chip", "DramChip.hammer_repeated", "dram.hammer_repeated"),
]

#: TRR hooks are defined per mechanism class; every subclass of
#: ``TrrMechanism`` that defines one is wrapped.
TRR_HOOKS = (("on_activations", "trr.on_activations"),
             ("on_refresh", "trr.on_refresh"))

#: ``ChipStats`` fields summed into the ``sim.*`` counts.
SIM_FIELDS = ("activates", "refreshes", "row_reads", "row_writes",
              "trr_refreshes")


class Node:
    """One span name at one position in the call tree."""

    __slots__ = ("name", "children", "n", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.children: dict[str, Node] = {}
        self.n = 0
        self.total = 0.0

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    @property
    def self_s(self) -> float:
        return self.total - sum(c.total for c in self.children.values())

    def as_dict(self) -> dict:
        return {"name": self.name, "n": self.n, "total": self.total,
                "children": [c.as_dict() for c in self.children.values()]}

    @classmethod
    def from_dict(cls, data: dict) -> "Node":
        node = cls(data["name"])
        node.n = data["n"]
        node.total = data["total"]
        for child in data["children"]:
            node.children[child["name"]] = cls.from_dict(child)
        return node

    def merge(self, other: "Node") -> None:
        self.n += other.n
        self.total += other.total
        for name, child in other.children.items():
            self.child(name).merge(child)

    def walk(self, ancestors: tuple = ()):
        """Yield ``(node, names of its ancestors)`` depth-first."""
        yield self, ancestors
        for child in self.children.values():
            yield from child.walk(ancestors + (self.name,))


class Tracer:
    """The span stack, counters and chip ledger of one process.

    The containers are created once and cleared in place, because the
    wrappers hold references to them.
    """

    def __init__(self) -> None:
        self.stack: list[Node] = []
        self.counts: dict[str, float] = {}
        #: ``run_units`` calls, each a dict: the CLI ``step`` that made
        #: it, ``workers``, ``wall_s`` and ``units`` ([unit wall, served]).
        self.runs: list[dict] = []
        #: Index of the CLI step running now; set by the pass.
        self.step = 0
        #: Chips still alive, and the summed stats of collected ones.
        self.chips: weakref.WeakSet = weakref.WeakSet()
        self.sim_done: dict[str, int] = {}
        #: Bumped by every reset; a chip only counts in its own.
        self.generation = 0
        self.reset("harness")

    def reset(self, root: str) -> None:
        self.generation += 1
        self.root = Node(root)
        self.stack[:] = [self.root]
        self.counts.clear()
        self.runs.clear()
        self.chips.clear()
        self.sim_done.clear()
        self._started = perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def fold_chip(self, chip, into: dict) -> None:
        stats = chip.stats
        for field in SIM_FIELDS:
            into[field] = into.get(field, 0) + getattr(stats, field)
        into["time_ps"] = into.get("time_ps", 0) + chip.now_ps

    def dump(self) -> dict:
        """The tree, counters, runs and sim counts recorded since reset."""
        self.root.total = perf_counter() - self._started
        self.root.n = 1
        sim = dict(self.sim_done)
        for chip in list(self.chips):
            self.fold_chip(chip, sim)
        return {"tree": self.root.as_dict(), "counts": dict(self.counts),
                "sim": sim, "runs": list(self.runs)}

    def timed(self, fn, name: str, after=None):
        """Wrap *fn* in span *name*; ``after(args, kwargs, result)``
        may add counts once the call returns."""
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node = stack[-1].child(name)
            stack.append(node)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total += perf_counter() - start
                node.n += 1
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _rebind_everywhere(original, replacement) -> None:
    """Point every ``repro`` module-level name bound to *original* at
    *replacement* (covers ``from x import f`` copies)."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def install(tracer: Tracer, unit_dir: str) -> None:
    """Wrap every target so its calls record into *tracer*.

    The process pool forks after this runs, so pool workers inherit the
    wrappers.  The worker trampoline is wrapped too: it resets the
    worker's tracer before each unit and writes the unit's tree into
    *unit_dir* once the unit returns.
    """
    importlib.import_module("repro.eval.__main__")
    from repro.attacks.capture import CaptureUnsupported
    from repro.dram.chip import DramChip
    from repro.parallel import engine
    from repro.trr.base import TrrMechanism

    count = tracer.count
    counts = tracer.counts
    stack = tracer.stack
    timed = tracer.timed

    def after_refresh(args, kwargs, result):
        count("softmc.refresh.cmds",
              args[1] if len(args) > 1 else kwargs.get("count", 1))

    def after_fused(args, kwargs, ran):
        # A refused group issues nothing here; the guarded path then
        # issues each command through ``_hammer_prebuilt``.
        if ran:
            count("softmc.hammer.cmds", args[2])

    after = {
        "cache.lookup": lambda a, k, r: count(
            "cache.hits" if r is not None else "cache.misses"),
        "cache.publish": lambda a, k, r: count(
            "cache.bytes", _size(a[0]._path(a[1].key))),
        "program.execute": lambda a, k, r: count(
            "program.payload_cmds", len(a[1])),
        "dram.hammer_repeated": lambda a, k, r: count(
            "dram.fused_acts", max(a[2], 0) * a[1].total),
        "softmc.refresh": after_refresh,
        "softmc.hammer_fused": after_fused,
    }

    def run_units_span(fn, name):
        inner = timed(fn, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            result = inner(*args, **kwargs)
            tracer.runs.append({
                "step": tracer.step, "workers": result.workers,
                "wall_s": perf_counter() - start,
                "units": [[o.wall_s, o.cached or o.coalesced]
                          for o in result.outcomes]})
            return result
        return traced

    def settle_span(fn, name):
        @functools.wraps(fn)
        def traced(bank, row, now_ps):
            state = bank.rows.get(row)
            if state is None:
                positions = values = None
            else:
                positions, values = state.fault_positions, state.fault_values
            node = stack[-1].child(name)
            stack.append(node)
            start = perf_counter()
            try:
                fn(bank, row, now_ps)
            finally:
                node.total += perf_counter() - start
                node.n += 1
                stack.pop()
            state = bank.rows[row]
            if state.fault_positions is not positions and _overlay_changed(
                    positions, values, state):
                counts["dram.settle_commits"] = (
                    counts.get("dram.settle_commits", 0) + 1)
        return traced

    def inference_span(fn, name):
        inner = timed(fn, name)

        @functools.wraps(fn)
        def traced(self, *args, **kwargs):
            stats = self._host._chip.stats
            before = stats.activates + stats.refreshes
            try:
                return inner(self, *args, **kwargs)
            finally:
                count("core.inference_cmds",
                      stats.activates + stats.refreshes - before)
        return traced

    def capture_span(fn, name):
        inner = timed(fn, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                result = inner(*args, **kwargs)
            except CaptureUnsupported:
                count("attacks.capture_fallbacks")
                raise
            count("attacks.windows_captured")
            return result
        return traced

    special = {"run_units": run_units_span, "Bank.settle": settle_span,
               "TrrInference.run": inference_span,
               "capture_window": capture_span}
    for module_name, path, name in TARGETS:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        if path in special:
            wrapped = special[path](original, name)
        else:
            wrapped = timed(original, name, after=after.get(name))
        setattr(owner, attr, wrapped)
        if "." not in path:
            _rebind_everywhere(original, wrapped)
    for cls in _subclasses(TrrMechanism):
        for method, name in TRR_HOOKS:
            if method in vars(cls):
                setattr(cls, method, timed(vars(cls)[method], name))

    chip_init = DramChip.__init__

    @functools.wraps(chip_init)
    def register(self, *args, **kwargs):
        chip_init(self, *args, **kwargs)
        self._trace_generation = tracer.generation
        tracer.chips.add(self)

    def collected(self):
        # Collected chips fold their stats here, so the ledger does not
        # keep every chip of the run alive.  A chip outliving its unit
        # was already counted in that unit's dump.
        if getattr(self, "_trace_generation", None) == tracer.generation:
            tracer.fold_chip(self, tracer.sim_done)
    DramChip.__init__ = register
    DramChip.__del__ = collected

    call_unit = engine._call_unit

    @functools.wraps(call_unit)
    def worker_unit(unit, *args, **kwargs):
        tracer.reset("worker")
        try:
            return call_unit(unit, *args, **kwargs)
        finally:
            name = f"unit-{os.getpid()}-{unit.unit_id.replace('/', '_')}"
            with open(os.path.join(unit_dir, name + ".json"), "w",
                      encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)
    engine._call_unit = worker_unit


def _overlay_changed(positions, values, state) -> bool:
    after = state.fault_positions
    if positions is None:
        return after.size > 0
    return (after.size != positions.size
            or bool((after != positions).any())
            or bool((state.fault_values != values).any()))


# -- folding the trees into the per-layer ledger ------------------------------

class Ledger:
    """Per-name aggregates over one or more span trees."""

    def __init__(self, trees: list[Node]) -> None:
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.n: dict[str, int] = {}
        for tree in trees:
            for node, ancestors in tree.walk():
                name = node.name
                self.self_s[name] = self.self_s.get(name, 0.0) + node.self_s
                self.n[name] = self.n.get(name, 0) + node.n
                if name not in ancestors:
                    self.incl_s[name] = (self.incl_s.get(name, 0.0)
                                         + node.total)

    def self_of(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def incl_of(self, *names: str) -> float:
        return sum(self.incl_s.get(name, 0.0) for name in names)

    def n_of(self, *names: str) -> int:
        return sum(self.n.get(name, 0) for name in names)


SOFTMC_OPS = {"write": ("softmc.write",), "read": ("softmc.read",),
              "hammer": ("softmc.hammer", "softmc.hammer_fused"),
              "hammer_multi": ("softmc.hammer_multi",),
              "refresh": ("softmc.refresh",)}
DRAM_OPS = {"settle": "dram.settle", "refresh_slot": "dram.refresh_slot",
            "absorb": "dram.absorb", "absorb_repeated": "dram.absorb_repeated",
            "read_mismatch": "dram.read_mismatch"}
STAGES = ("ref_independence", "period", "neighbors", "persistence",
          "detection", "capacity", "per_bank")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(parent: dict, workers: list[dict], *, traced_wall: float,
                  untraced_wall: float, step_walls: list[float],
                  pooled: bool, parallel_ok: bool
                  ) -> dict[str, tuple[float, str]]:
    """The per-layer ledger of one traced pass, as ``name -> (value,
    unit)``.  *parent* is the harness process dump, *workers* the pool
    workers' per-unit dumps, *step_walls* the wall of each CLI step.
    *pooled*: units ran in a process pool.  *parallel_ok*: the pool had
    two workers or more on two cores or more; otherwise the parallel
    metrics read 0 (no speed-up is claimed for one worker or core)."""
    trees = [Node.from_dict(parent["tree"])]
    trees += [Node.from_dict(dump["tree"]) for dump in workers]
    ledger = Ledger(trees)
    counts: dict[str, float] = {}
    sim: dict[str, int] = {}
    for dump in [parent, *workers]:
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in dump["sim"].items():
            sim[name] = sim.get(name, 0) + value
    out: dict[str, tuple[float, str]] = {}

    # eval / parallel: the run_units call that executed units, and the
    # CLI step it ran in.
    executed = [run for run in parent["runs"]
                if any(not served for _, served in run["units"])]
    walls = [wall for run in executed for wall, served in run["units"]
             if not served and wall is not None]
    unit_max = max(walls, default=0.0)
    unit_sum = sum(walls)
    out["eval.unit_max_s"] = (unit_max, "s")
    out["eval.unit_sum_s"] = (unit_sum, "s")
    ideal = overhead = efficiency = 0.0
    if parallel_ok and executed:
        pool_workers = executed[0]["workers"]
        cold_wall = step_walls[executed[0]["step"]]
        ideal = max(unit_max, unit_sum / pool_workers)
        overhead = cold_wall - ideal
        efficiency = _ratio(ideal, cold_wall)
    out["parallel.ideal_s"] = (ideal, "s")
    out["parallel.overhead_s"] = (overhead, "s")
    out["parallel.efficiency"] = (efficiency, "fraction")

    lookups = ledger.n_of("cache.lookup")
    out["cache.lookup_s"] = (ledger.self_of("cache.lookup"), "s")
    out["cache.lookups"] = (lookups, "count")
    out["cache.publish_s"] = (ledger.self_of("cache.publish"), "s")
    out["cache.publishes"] = (ledger.n_of("cache.publish"), "count")
    out["cache.bytes"] = (counts.get("cache.bytes", 0), "bytes")
    out["cache.hit_ratio"] = (_ratio(counts.get("cache.hits", 0), lookups),
                              "fraction")
    out["cache.replay_s"] = (sum(run["wall_s"] for run in parent["runs"]
                                 if run["units"]
                                 and all(s for _, s in run["units"])), "s")

    out["core.mapping_s"] = (ledger.self_of("core.mapping"), "s")
    out["core.scout_s"] = (ledger.self_of("core.scout"), "s")
    out["core.calibrate_s"] = (ledger.self_of("core.calibrate"), "s")
    out["core.analyzer_s"] = (ledger.self_of("core.analyzer.run",
                                             "core.analyzer.run_robust"), "s")
    out["core.experiments"] = (ledger.n_of("core.analyzer.run"), "count")
    out["core.inference_s"] = (ledger.incl_of("core.inference"), "s")
    out["core.inference_cmds"] = (counts.get("core.inference_cmds", 0),
                                  "count")
    for stage in STAGES:
        out[f"core.stage.{stage}_s"] = (
            ledger.incl_of(f"core.stage.{stage}"), "s")

    out["attacks.hc_first_s"] = (ledger.self_of("attacks.hc_first"), "s")
    out["attacks.select_s"] = (ledger.incl_of("attacks.evaluate_module")
                               - ledger.incl_of("attacks.sweep"), "s")
    out["attacks.sweep_s"] = (ledger.incl_of("attacks.sweep"), "s")
    out["attacks.executor_s"] = (ledger.self_of("attacks.executor"), "s")
    out["attacks.runs"] = (ledger.n_of("attacks.executor"), "count")
    out["attacks.capture_s"] = (ledger.self_of("attacks.capture"), "s")
    out["attacks.windows_captured"] = (
        counts.get("attacks.windows_captured", 0), "count")
    out["attacks.capture_fallbacks"] = (
        counts.get("attacks.capture_fallbacks", 0), "count")

    acts = sim.get("activates", 0)
    out["program.compile_s"] = (ledger.self_of("program.compile"), "s")
    out["program.compiles"] = (ledger.n_of("program.compile"), "count")
    out["program.execute_s"] = (ledger.self_of("program.execute"), "s")
    out["program.payload_cmds"] = (counts.get("program.payload_cmds", 0),
                                   "count")
    out["program.fused_act_frac"] = (
        _ratio(counts.get("dram.fused_acts", 0), acts), "fraction")

    softmc_s = 0.0
    softmc_n = 0
    for op, names in SOFTMC_OPS.items():
        if op == "hammer":
            calls = (ledger.n_of("softmc.hammer")
                     + counts.get("softmc.hammer.cmds", 0))
        elif op == "refresh":
            calls = counts.get("softmc.refresh.cmds", 0)
        else:
            calls = ledger.n_of(*names)
        out[f"softmc.{op}_s"] = (ledger.self_of(*names), "s")
        out[f"softmc.{op}_n"] = (calls, "count")
        softmc_s += ledger.incl_of(*names)
        softmc_n += calls
    out["softmc.us_per_cmd"] = (1e6 * _ratio(softmc_s, softmc_n), "us")

    for op, name in DRAM_OPS.items():
        out[f"dram.{op}_s"] = (ledger.self_of(name), "s")
        out[f"dram.{op}_n"] = (ledger.n_of(name), "count")
        if op == "settle":
            out["dram.settle_commit_frac"] = (
                _ratio(counts.get("dram.settle_commits", 0),
                       ledger.n_of(name)), "fraction")
    for hook in ("on_activations", "on_refresh"):
        out[f"trr.{hook}_s"] = (ledger.self_of(f"trr.{hook}"), "s")
        out[f"trr.{hook}_n"] = (ledger.n_of(f"trr.{hook}"), "count")

    out["sim.acts"] = (acts, "count")
    out["sim.refs"] = (sim.get("refreshes", 0), "count")
    out["sim.row_reads"] = (sim.get("row_reads", 0), "count")
    out["sim.row_writes"] = (sim.get("row_writes", 0), "count")
    out["sim.trr_refreshes"] = (sim.get("trr_refreshes", 0), "count")
    out["sim.time_s"] = (sim.get("time_ps", 0) / 1e12, "s")

    # Unexplained: harness-process time in the harness and eval glue
    # (and, inline, in the engine) that no deeper span covers.  In a
    # pool run the engine's self time is its wait on the workers, whose
    # own trees explain it.
    harness = Ledger(trees[:1])
    glue = harness.self_of("harness", "eval.main", "eval.unit")
    if not pooled:
        glue += harness.self_of("parallel.run_units")
    out["trace.overhead_frac"] = (_ratio(traced_wall, untraced_wall) - 1,
                                  "fraction")
    out["trace.coverage"] = (1.0 - _ratio(glue, trees[0].total), "fraction")
    return out


def render_tree(parent: dict, workers: list[dict], min_share: float = 0.002
                ) -> str:
    """The harness tree (and the merged pool-worker tree) with inclusive
    and self seconds per node; nodes below *min_share* of the root's
    time are folded away."""
    lines = []
    roots = [Node.from_dict(parent["tree"])]
    if workers:
        merged = Node("pool workers")
        for dump in workers:
            merged.merge(Node.from_dict(dump["tree"]))
        roots.append(merged)
    for root in roots:
        floor = root.total * min_share
        lines.append(f"{'span':<52} {'calls':>9} {'incl_s':>9} "
                     f"{'self_s':>9}")
        for node, ancestors in root.walk():
            if node.total < floor and ancestors:
                continue
            label = "  " * len(ancestors) + node.name
            lines.append(f"{label:<52} {node.n:>9} {node.total:>9.3f} "
                         f"{node.self_s:>9.3f}")
    return "\n".join(lines)
