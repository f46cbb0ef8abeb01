"""Record/replay verification: round trips, divergences, v1 rejection."""

from __future__ import annotations

import json

import pytest

from repro.dram import AllZeros, Checkerboard, inverted
from repro.errors import ConfigError
from repro.obs import traced
from repro.obs.replay import main, replay_trace
from .conftest import drive, small_host


def _record(path, serial=7, extra=None):
    obs = traced(path, manifest={"module": "B0", "seed": 1})
    host = small_host(obs=obs, serial=serial)
    drive(host)
    if extra is not None:
        extra(host)
    obs.finalize(host)
    return host


def _extra_patterns(host):
    """Exercise every pattern codec branch, including custom data."""
    host.write_row(0, 70, AllZeros())
    host.write_row(0, 71, Checkerboard(phase=1))
    custom = inverted(Checkerboard(), host.row_bits)
    host.write_row(0, 72, custom)
    host.read_row(0, 72)
    host.read_row_mismatches(0, 72)


def test_round_trip_zero_divergence(tmp_path):
    path = tmp_path / "trace.jsonl"
    host = _record(path, extra=_extra_patterns)
    result = replay_trace(path, host=small_host())
    assert result.divergences == []
    assert result.reads_verified == 4  # 2 in drive() + 2 in extras
    assert result.ledger_ok
    assert result.ledger == host.ledger()
    assert result.ok


def test_replay_detects_tampered_read_digest(tmp_path):
    path = tmp_path / "trace.jsonl"
    _record(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if record.get("t") == "RD" and "crc" in record:
            record["crc"] ^= 1
            lines[index] = json.dumps(record, separators=(",", ":"))
            break
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = replay_trace(path, host=small_host())
    assert not result.ok
    assert result.divergences
    assert result.divergences[0].check == "rd-digest"


def test_replay_against_wrong_module_diverges(tmp_path):
    # Replaying against a module with a different row width must fail
    # at the first read: the payload digest covers the whole row.
    from repro.dram import DeviceConfig, DramChip
    from repro.softmc import SoftMCHost
    path = tmp_path / "trace.jsonl"
    _record(path)
    config = DeviceConfig(name="obs-test", serial=7, num_banks=2,
                          rows_per_bank=4096, row_bits=128,
                          refresh_cycle_refs=1024)
    result = replay_trace(path, host=SoftMCHost(DramChip(config)))
    assert not result.ok
    assert result.divergences
    assert result.divergences[0].check in ("ps", "rd-digest")


def test_replay_truncated_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs = traced(path, manifest={"module": "B0"})
    host = small_host(obs=obs)
    drive(host)
    obs.finalize(None)  # no summary: the run died mid-flight
    result = replay_trace(path, host=small_host())
    assert result.truncated
    assert not result.ok
    assert result.divergences == []  # commands themselves replayed fine


def test_replay_hammer_multi_grouping(tmp_path):
    # drive() includes a two-bank hammer_multi; a replay that issued the
    # batches sequentially would advance the clock twice and fail the
    # next record's ps check, so a clean round trip proves regrouping.
    path = tmp_path / "trace.jsonl"
    _record(path)
    records = [json.loads(line) for line in
               path.read_text(encoding="utf-8").splitlines()]
    multi = [r for r in records if r.get("t") == "ACT" and "mg" in r]
    assert len(multi) == 2
    assert all(r["mg"] == 2 for r in multi)
    assert multi[0]["ps"] == multi[1]["ps"]
    assert replay_trace(path, host=small_host()).ok


def test_v1_trace_is_rejected(tmp_path, capsys):
    # A handcrafted v1 trace: no digests, no pattern specs, version 1.
    path = tmp_path / "v1.jsonl"
    records = [
        {"type": "header", "version": 1, "meta": {"module": "B0"}},
        {"t": "WR", "ps": 0, "bk": 0, "row": 10},
        {"t": "RD", "ps": 100, "bk": 0, "row": 10},
        {"t": "ACT", "ps": 200, "bk": 1, "n": 12,
         "rows": [[30, 12]], "mode": "cascaded"},
        {"t": "REF", "ps": 300, "idx": 0, "n": 2},
        {"type": "summary", "ref_count": 2,
         "acts_per_bank": {"0": 2, "1": 12}},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="schema-v1"):
        replay_trace(path, host=small_host())
    # The CLI reports it as a trace without a replayable recipe.
    assert main([str(path)]) == 2
    assert "replay error" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    _record(path)
    # The manifest has no chip recipe, so manifest-driven rebuild is a
    # structural error (exit 2) — the library API with an explicit host
    # is exercised above.
    assert main([str(path)]) == 2
    assert "replay error" in capsys.readouterr().err


def test_cli_replays_manifest_recipe(tmp_path, capsys):
    from repro.obs import build_manifest
    from repro.rng import derive_seed
    from repro.vendors import build_module, get_module
    from repro.softmc import SoftMCHost

    chip_kwargs = dict(rows_per_bank=4096, row_bits=128,
                       weak_cells_per_row_mean=2.0, vrt_fraction=0.0)
    manifest = build_manifest(seed=0, module="B0", fault_profile="none",
                              chip=dict(chip_kwargs),
                              fault_seed=derive_seed("t", 0, "B0"))
    path = tmp_path / "trace.jsonl"
    obs = traced(path, manifest=manifest)
    host = SoftMCHost(build_module(get_module("B0"), **chip_kwargs),
                      obs=obs)
    drive(host)
    obs.finalize(host)
    assert main([str(path)]) == 0
    assert "OK — the trace is an executable proof" in \
        capsys.readouterr().out


def test_replay_rejects_non_trace(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"t":"WR"}\n', encoding="utf-8")
    with pytest.raises(ConfigError):
        replay_trace(path)
