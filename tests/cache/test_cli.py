"""``python -m repro.cache``: stats / prune / verify maintenance."""

from __future__ import annotations

import json

from repro.cache import CacheEnvelope, ResultCache, value_digest
from repro.cache.__main__ import main as cache_main


def _envelope(key: str, unit_id: str = "eval/A5", value=41,
              **overrides) -> CacheEnvelope:
    spec = dict(key=key, unit_id=unit_id, value=value,
                instruments={"metrics": {"counters": {"host.acts": 3}}},
                wall_s=0.5,
                value_digest=value_digest(value))
    spec.update(overrides)
    return CacheEnvelope(**spec)


def _seeded_store(tmp_path) -> ResultCache:
    cache = ResultCache(tmp_path / "store")
    cache.publish(_envelope(key="aa" * 32, unit_id="eval/A5"))
    cache.publish(_envelope(key="bb" * 32, unit_id="fig8/C7"))
    return cache


def test_stats_prints_json_summary(tmp_path, capsys):
    cache = _seeded_store(tmp_path)
    assert cache_main(["stats", str(cache.root)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["objects"] == 2
    assert stats["units_by_kind"] == {"eval": 1, "fig8": 1}


def test_verify_exits_zero_on_clean_store(tmp_path, capsys):
    cache = _seeded_store(tmp_path)
    assert cache_main(["verify", str(cache.root)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checked"] == 2
    assert report["corrupt"] == [] and report["stale"] == []


def test_verify_exits_nonzero_on_stale_store(tmp_path, capsys):
    cache = _seeded_store(tmp_path)
    cache.publish(_envelope(key="cc" * 32, value=7,
                            value_digest=value_digest(8)))
    assert cache_main(["verify", str(cache.root)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["stale"] == ["cc" * 32]


def test_prune_all_empties_the_store(tmp_path, capsys):
    cache = _seeded_store(tmp_path)
    assert cache_main(["prune", str(cache.root), "--all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["removed"] == 2 and report["kept"] == 0
    assert cache.stats()["objects"] == 0
