"""SoftMC host interface."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dram import AllOnes, DramChip, HammerMode, single_row_batch
from repro.errors import ConfigError, MappingError
from repro.faults import DEFAULT, FaultInjector
from repro.obs import CommandProfiler, traced
from repro.softmc import SoftMCHost
from repro.trr import ParaMitigation
from repro.units import ms, us
from repro.vendors import build_module, get_module


@pytest.fixture
def host(small_config):
    return SoftMCHost(DramChip(small_config))


def find_weak_row(host, bank=0, max_ms=5000):
    chip = host._chip
    for row in range(host.rows_per_bank):
        if chip.true_retention_ps(bank, row, AllOnes()) < ms(max_ms):
            return row, chip.true_retention_ps(bank, row, AllOnes())
    raise AssertionError("no weak row")


def test_module_facts(host, small_config):
    assert host.num_banks == small_config.num_banks
    assert host.rows_per_bank == small_config.rows_per_bank
    assert host.row_bits == small_config.row_bits
    assert host.hammers_per_ref_interval() == 149


def test_write_read_roundtrip(host):
    host.write_row(0, 7, AllOnes())
    assert host.read_row(0, 7).sum() == host.row_bits
    assert host.read_row_mismatches(0, 7) == []


def test_ref_count_tracks_host_issued_refs(host):
    host.refresh(count=5)
    host.refresh()
    assert host.ref_count == 6


def test_refresh_at_nominal_rate_paces_trefi(host):
    start = host.now_ps
    host.refresh(count=100, at_nominal_rate=True)
    assert host.now_ps - start == 100 * us(7.8)


def test_wait_helpers(host):
    start = host.now_ps
    host.wait_us(2.5)
    host.wait_ms(1.0)
    assert host.now_ps - start == us(2.5) + ms(1.0)


def test_side_channel_visible_through_host(host):
    row, retention = find_weak_row(host)
    host.write_row(0, row, AllOnes())
    host.wait(retention + ms(1))
    assert host.read_row_mismatches(0, row) != []


def test_hammer_modes_forwarded(host):
    start = host.now_ps
    host.hammer(0, [(100, 50), (102, 50)], HammerMode.INTERLEAVED)
    assert host.now_ps - start == 100 * host.timing.trc_ps
    host.hammer_single(0, 100, 10)


def test_hammer_multi_limited_to_four_banks(host):
    ledger = host.ledger()
    stats = host._chip.stats.snapshot()
    now_ps = host.now_ps
    with pytest.raises(ConfigError):
        host.hammer_multi({b: [(10, 5)] for b in range(5)})
    # Rejected before any side effect: nothing recorded, counted or run.
    assert host.ledger() == ledger
    assert host._chip.stats.snapshot() == stats
    assert host.now_ps == now_ps
    host.hammer_multi({b: [(10, 5)] for b in range(4)})


def test_pick_rows_away_from_enforces_distance(host):
    protected = [500, 900]
    rows = host.pick_rows_away_from(0, protected, count=20,
                                    min_distance=100)
    assert len(rows) == 20
    assert len(set(rows)) == 20
    for row in rows:
        assert all(abs(row - p) >= 100 for p in protected)


def test_pick_rows_away_from_impossible_request(host):
    # Protect everything: no candidate can be 2000 rows away in a
    # 2048-row bank straddled by protected rows.
    protected = list(range(0, host.rows_per_bank, 50))
    with pytest.raises(ConfigError):
        host.pick_rows_away_from(0, protected, count=1, min_distance=100)


# -- one validated issue path per opcode --------------------------------------

#: Commands the chip rejects (bad row, negative count, bad bank, a
#: bank that is not an int).
REJECTED = {
    "hammer-row": lambda host: host.hammer(0, [(10**6, 5)]),
    "hammer-count": lambda host: host.hammer(0, [(5, -3)]),
    "hammer-bank": lambda host: host.hammer(99, [(5, 3)]),
    "hammer_single-row": lambda host: host.hammer_single(0, 10**6, 7),
    "hammer_multi-row": lambda host: host.hammer_multi(
        {0: [(10**6, 4)], 1: [(5, 4)]}),
    "write_row-row": lambda host: host.write_row(0, 10**6, AllOnes()),
    "read_row_mismatches-row": lambda host: host.read_row_mismatches(
        0, 10**6),
    "write_row-fraction": lambda host: host.write_row(0, 1.5, AllOnes()),
    "read_row_mismatches-fraction": lambda host: host.read_row_mismatches(
        0, np.float64(4.0)),
    "read_row-numpy-int": lambda host: host.read_row(0, np.int64(3)),
    "write_rows-one-bad-row": lambda host: host.write_rows(
        0, [3, 4, 10**6, 6], AllOnes()),
    "read_rows_mismatches-one-bad-row": lambda host:
        host.read_rows_mismatches(0, [3, 4, 2.5, 6]),
    "write_rows-bank": lambda host: host.write_rows(99, [3], AllOnes()),
    "write_row-numpy-bank": lambda host: host.write_row(
        np.int64(1), 5, AllOnes()),
    "write_row-float-bank": lambda host: host.write_row(1.0, 5, AllOnes()),
    "read_row_mismatches-numpy-bank": lambda host:
        host.read_row_mismatches(np.int64(1), 5),
    "read_row_mismatches-float-bank": lambda host:
        host.read_row_mismatches(1.0, 5),
    "write_rows-numpy-bank": lambda host: host.write_rows(
        np.int64(1), [3, 4], AllOnes()),
    "write_rows-float-bank": lambda host: host.write_rows(
        1.0, [3, 4], AllOnes()),
    "hammer-numpy-bank": lambda host: host.hammer(np.int64(1), [(7, 3)]),
    "hammer-float-bank": lambda host: host.hammer(1.0, [(7, 3)]),
    "hammer_multi-numpy-bank": lambda host: host.hammer_multi(
        {0: [(5, 4)], np.int64(1): [(7, 4)]}),
    "hammer_multi-float-bank": lambda host: host.hammer_multi(
        {0: [(5, 4)], 1.0: [(7, 4)]}),
    "refresh-count": lambda host: host.refresh(-1),
    "refresh-fraction": lambda host: host.refresh(1.5),
    "wait-duration": lambda host: host.wait(-5),
    "wait-fraction": lambda host: host.wait(1.5),
}


@pytest.mark.parametrize("issue", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_command_leaves_no_trace(issue, tmp_path):
    chip = build_module(get_module("A5"), rows_per_bank=1024, row_bits=256)
    obs = traced(tmp_path / "trace.jsonl")
    obs.profiler = CommandProfiler()
    host = SoftMCHost(chip, obs=obs)
    host.write_row(0, 5, AllOnes())
    host.hammer(1, [(7, 3)])
    ledger = host.ledger()
    records = host.obs.recorder.events
    metrics = host.obs.metrics.as_dict()
    profiled = dict(obs.profiler.counts)
    stats = chip.stats.snapshot()
    now_ps = host.now_ps
    with pytest.raises((ConfigError, MappingError)):
        issue(host)
    assert host.ledger() == ledger
    assert host.obs.recorder.events == records
    assert host.obs.metrics.as_dict() == metrics
    assert obs.profiler.counts == profiled
    assert chip.stats.snapshot() == stats
    assert host.now_ps == now_ps


def test_rejected_refresh_keeps_the_faulty_ref_ledger():
    # The injector issues REFs one at a time, so the chip never sees
    # the count; the host itself must refuse it.
    chip = build_module(get_module("A5"), rows_per_bank=1024, row_bits=256)
    host = SoftMCHost(chip, faults=FaultInjector("default", seed=1))
    assert host.faults.perturbs_refs
    host.refresh(2)
    now_ps = host.now_ps
    with pytest.raises(ConfigError):
        host.refresh(-3)
    assert host.ref_count == 2
    assert host.now_ps == now_ps


def test_numpy_integer_operands_are_accepted():
    chip = build_module(get_module("A5"), rows_per_bank=1024, row_bits=256)
    host = SoftMCHost(chip)
    host.wait(np.int64(1_000))
    host.refresh(np.int32(2))
    assert host.ref_count == 2
    assert host.now_ps == 1_000 + 2 * host.timing.trfc_ps


#: Every hammer entry point of one shape must issue the same command.
SINGLE_BANK = {
    "hammer": lambda host, bank, row, count: host.hammer(
        bank, [(row, count)], HammerMode.CASCADED),
    "hammer_single": lambda host, bank, row, count: host.hammer_single(
        bank, row, count),
    "_hammer_prebuilt": lambda host, bank, row, count:
        host._hammer_prebuilt(single_row_batch(bank, row, count)),
}
MULTI_BANK = {
    "hammer_multi": lambda host, group: host.hammer_multi(
        {batch.bank: batch.pattern for batch in group}),
    "_hammer_multi_prebuilt": lambda host, group:
        host._hammer_multi_prebuilt(group),
}
#: No injector, the default profile, and one that duplicates hammers
#: often enough to take the duplicate branch.
INJECTORS = {
    "none": lambda: None,
    "default": lambda: FaultInjector("default", seed=3),
    "duplicates": lambda: FaultInjector(
        DEFAULT.scaled(hammer_duplicate_probability=0.25), seed=3),
}


def _issue_run(config, path, faults, hammers) -> tuple:
    """Write a few rows, run *hammers(host)*, read them back; return the
    trace (at *path*) after its header, the ledger, chip stats and
    opcode counts."""
    obs = traced(path)
    obs.profiler = CommandProfiler()
    host = SoftMCHost(DramChip(config), faults=faults, obs=obs)
    rows = range(996, 1005)
    for bank in range(4):
        for row in rows:
            host.write_row(bank, row, AllOnes())
    hammers(host)
    for bank in range(4):
        for row in rows:
            host.read_row_mismatches(bank, row)
    obs.finalize(host)
    trace = path.read_text(encoding="utf-8").splitlines()[1:]
    return (trace, host.ledger(), host._chip.stats.snapshot(),
            dict(obs.profiler.counts))


@pytest.mark.parametrize("injector", INJECTORS)
def test_single_bank_entry_points_issue_the_same_command(
        small_config, tmp_path, injector):
    def hammers(issue):
        def run(host):
            for index in range(40):
                issue(host, index % 4, 999 + 2 * (index % 3), 300 + index)
        return run

    runs = [_issue_run(small_config, tmp_path / f"{name}.jsonl",
                       INJECTORS[injector](), hammers(issue))
            for name, issue in SINGLE_BANK.items()]
    trace = runs[0][0]
    assert sum('"ACT"' in line for line in trace) == 40
    if injector == "duplicates":
        assert any("hammer-duplicate" in line for line in trace)
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize("injector", INJECTORS)
def test_multi_bank_entry_points_issue_the_same_command(
        small_config, tmp_path, injector):
    # Interned groups, reused as the payload executor reuses them.
    groups = [tuple(single_row_batch(bank, 1000 + shift, 200 + 10 * bank)
                    for bank in range(width))
              for width in (1, 2, 4) for shift in (0, 2)]

    def hammers(issue):
        def run(host):
            for index in range(30):
                issue(host, groups[index % len(groups)])
        return run

    runs = [_issue_run(small_config, tmp_path / f"{name}.jsonl",
                       INJECTORS[injector](), hammers(issue))
            for name, issue in MULTI_BANK.items()]
    assert sum('"mg"' in line for line in runs[0][0]) == 5 * sum(
        len(group) for group in groups)
    assert runs[1] == runs[0]


#: The ``SoftMCHost`` methods the traced benchmark (perfbench/tracer.py)
#: or the command profiler wraps: one span or count per call, so none
#: may call another.
TRACED_METHODS = ("write_row", "write_rows", "read_row",
                  "read_row_mismatches", "read_rows_mismatches", "hammer",
                  "hammer_single", "_hammer_prebuilt", "_try_fused_hammer",
                  "hammer_multi", "_hammer_multi_prebuilt", "refresh")


def spy_on(monkeypatch) -> dict:
    """Count the calls of every traced host method."""
    calls = dict.fromkeys(TRACED_METHODS, 0)
    for name in TRACED_METHODS:
        def spy(self, *args, _name=name, _method=getattr(SoftMCHost, name),
                **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(SoftMCHost, name, spy)
    return calls


def test_no_traced_entry_point_calls_another(small_config, monkeypatch):
    calls = spy_on(monkeypatch)
    host = SoftMCHost(DramChip(small_config))
    batch = single_row_batch(0, 100, 5)
    step_ps = host.timing.hammer_duration_ps(batch.total)
    issue = {
        "write_row": lambda: host.write_row(0, 101, AllOnes()),
        "write_rows": lambda: host.write_rows(0, [101, 103], AllOnes()),
        "read_row": lambda: host.read_row(0, 101),
        "read_row_mismatches": lambda: host.read_row_mismatches(0, 101),
        "read_rows_mismatches": lambda: host.read_rows_mismatches(
            0, [101, 103]),
        "hammer": lambda: host.hammer(0, [(100, 5), (102, 5)]),
        "hammer_single": lambda: host.hammer_single(0, 100, 5),
        "_hammer_prebuilt": lambda: host._hammer_prebuilt(batch),
        # Fused for real: the fused bracket must not fall back to the
        # per-command entry point.
        "_try_fused_hammer": lambda: host._try_fused_hammer(
            batch, 4, step_ps) or pytest.fail("fusion refused"),
        "hammer_multi": lambda: host.hammer_multi(
            {0: [(100, 5)], 1: [(100, 5)]}),
        "_hammer_multi_prebuilt": lambda: host._hammer_multi_prebuilt(
            (batch, single_row_batch(1, 100, 5))),
        "refresh": lambda: host.refresh(2),
    }
    assert issue.keys() == calls.keys()
    for name, call in issue.items():
        before = dict(calls)
        call()
        assert {key: calls[key] - before[key] for key in calls} == {
            key: int(key == name) for key in calls}, name


@pytest.mark.parametrize("setup", ["injector", "para"])
def test_per_row_range_fallbacks_call_no_entry_point(small_config,
                                                     monkeypatch, setup):
    """A faulty host and a PARA chip issue a range row by row, still
    without calling the single-row entry points."""
    calls = spy_on(monkeypatch)
    if setup == "injector":
        host = SoftMCHost(DramChip(small_config),
                          faults=FaultInjector("default", seed=5))
    else:
        host = SoftMCHost(DramChip(small_config, ParaMitigation(seed=2)))
    host.write_rows(0, [101, 103, 101], AllOnes())
    host.read_rows_mismatches(0, [103, 101])
    assert calls == {name: int(name in ("write_rows", "read_rows_mismatches"))
                     for name in calls}


#: ``DramChip`` methods that issue a command (or its raw parts).
CHIP_COMMANDS = {"hammer", "hammer_multi", "hammer_repeated", "write_row",
                 "write_rows", "read_row", "read_row_mismatches",
                 "read_rows_mismatches", "refresh", "wait"}


def test_only_the_host_issues_chip_commands():
    """Outside ``repro.dram`` and ``repro.softmc`` every command goes
    through :class:`SoftMCHost`, so its trace and ledger see it."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).parts[0] in ("dram", "softmc"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            method = node.func.attr
            if method not in CHIP_COMMANDS and not method.startswith("raw_"):
                continue
            target = node.func.value
            if ((isinstance(target, ast.Name) and target.id == "chip")
                    or (isinstance(target, ast.Attribute)
                        and target.attr in ("chip", "_chip"))):
                offenders.append(
                    f"{path.relative_to(root)}:{node.lineno} {method}")
    assert offenders == []
