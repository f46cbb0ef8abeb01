"""Result store: codec framing, atomic object IO, GC, verification."""

from __future__ import annotations

import pytest

from repro.cache import (CacheEnvelope, ResultCache, decode, encode,
                         value_digest)
from repro.errors import CacheError
from repro.parallel import UnitOutcome, WorkUnit


def entry_point(value: int) -> int:
    return value * value


def _envelope(key: str = "ab" * 32, unit_id: str = "eval/A5",
              value=41, **overrides) -> CacheEnvelope:
    spec = dict(key=key, unit_id=unit_id, value=value,
                instruments={"metrics": {"counters": {"host.acts": 3}}},
                wall_s=0.5, value_digest=value_digest(value))
    spec.update(overrides)
    return CacheEnvelope(**spec)


def test_codec_round_trips_nested_values():
    envelope = _envelope(value={"rows": [1, 2], "nested": (3, 4)})
    assert decode(encode(envelope)) == envelope


def test_codec_rejects_torn_and_foreign_blobs():
    blob = encode(_envelope())
    with pytest.raises(CacheError):
        decode(blob[:8])                       # truncated
    with pytest.raises(CacheError):
        decode(b"XXXX\x03" + blob[5:])         # bad magic
    for version in (b"\x01", b"\x02", b"\x03"):  # previous versions
        with pytest.raises(CacheError):
            decode(b"RPRC" + version + blob[5:])
    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF
    with pytest.raises(CacheError):
        decode(bytes(flipped))                 # CRC mismatch


def test_publish_then_lookup_round_trips(tmp_path):
    cache = ResultCache(tmp_path)
    envelope = _envelope()
    cache.publish(envelope)
    assert cache.stores == 1
    got = cache.lookup(envelope.key)
    assert got == envelope
    assert cache.hits == 1 and cache.misses == 0


def test_absent_key_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.lookup("00" * 32) is None
    assert cache.misses == 1
    assert cache.summary()["hit_ratio"] == 0.0


def test_corrupt_object_reads_as_miss_and_is_evicted(tmp_path):
    for corrupt in (lambda blob: blob[:10],            # a torn write
                    lambda blob: b"RPRC\x03" + blob[5:]):  # format 3
        cache = ResultCache(tmp_path)
        envelope = _envelope()
        cache.publish(envelope)
        path = cache._path(envelope.key)
        path.write_bytes(corrupt(path.read_bytes()))
        assert cache.lookup(envelope.key) is None
        assert cache.errors == 1 and cache.misses == 1
        assert not path.exists()               # evicted, not trusted
        cache.publish(envelope)                # the re-run replaces it
        assert cache.lookup(envelope.key) == envelope


def test_keyed_returns_none_for_uncachable_units(tmp_path):
    cache = ResultCache(tmp_path)
    cachable = WorkUnit(unit_id="ok", fn=entry_point, args=(2,))
    assert cache.key(cachable) is not None
    foreign = WorkUnit(unit_id="bad", fn=entry_point, args=(object(),))
    assert cache.key(foreign) is None


def test_value_digest_is_none_for_unpicklable_values():
    assert value_digest(lambda: None) is None
    assert value_digest({"a": 1}) == value_digest({"a": 1})


def test_check_hit_raises_on_divergence(tmp_path):
    cache = ResultCache(tmp_path)
    stored = {"metrics": {"counters": {"host.acts": 3}},
              "evidence": [{"parameter": "period", "value": 9}]}
    envelope = _envelope(instruments=stored)

    def fresh(value=41, **parts):
        return UnitOutcome(unit_id="eval/A5", value=value,
                           instruments={**stored, **parts})

    cache.check_hit(envelope, fresh())
    with pytest.raises(CacheError, match="metrics"):
        cache.check_hit(envelope, fresh(
            metrics={"counters": {"host.acts": 99}}))
    with pytest.raises(CacheError, match="evidence"):
        cache.check_hit(envelope, fresh(
            evidence=[{"parameter": "period", "value": 999}]))
    with pytest.raises(CacheError, match="value"):
        cache.check_hit(envelope, fresh(value=42))


def test_stats_summarize_store_contents(tmp_path):
    cache = ResultCache(tmp_path)
    cache.publish(_envelope(key="aa" * 32, unit_id="eval/A5"))
    cache.publish(_envelope(key="bb" * 32, unit_id="fig8/C7"))
    stats = cache.stats()
    assert stats["objects"] == 2
    assert stats["bytes"] > 0
    assert stats["units_by_kind"] == {"eval": 1, "fig8": 1}


def test_prune_by_age_and_budget_and_drop_all(tmp_path):
    import os
    import time
    cache = ResultCache(tmp_path)
    old = _envelope(key="aa" * 32, unit_id="old")
    new = _envelope(key="bb" * 32, unit_id="new")
    cache.publish(old)
    cache.publish(new)
    stale = time.time() - 3600
    os.utime(cache._path(old.key), (stale, stale))
    report = cache.prune(max_age_s=60.0)
    assert report == {"removed": 1, "kept": 1,
                      "bytes": report["bytes"]}
    assert cache.lookup(old.key) is None
    assert cache.lookup(new.key) is not None
    # LRU budget: a zero-byte budget evicts everything that is left.
    assert cache.prune(max_bytes=0)["kept"] == 0
    cache.publish(new)
    assert cache.prune(drop_all=True)["removed"] == 1
    assert cache.stats()["objects"] == 0


def test_verify_store_flags_corrupt_and_stale_objects(tmp_path):
    cache = ResultCache(tmp_path)
    clean = _envelope(key="aa" * 32)
    cache.publish(clean)
    report = cache.verify_store()
    assert report == {"checked": 1, "corrupt": [], "stale": []}
    # Stale: the recorded digest no longer matches the stored value.
    stale = _envelope(key="bb" * 32, value=7,
                      value_digest=value_digest(8))
    cache.publish(stale)
    # Corrupt: framing destroyed on disk.
    torn = _envelope(key="cc" * 32)
    cache.publish(torn)
    cache._path(torn.key).write_bytes(b"garbage")
    report = cache.verify_store()
    assert report["corrupt"] == [torn.key]
    assert report["stale"] == [stale.key]
