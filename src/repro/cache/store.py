"""Content-addressed result store for work-unit envelopes.

Layout (git-style fan-out so directories stay small at thousands of
units):

    <root>/objects/<key[:2]>/<key>.rpc

Writes are atomic — encode to ``<name>.tmp-<pid>``, then
``os.replace`` — so a killed sweep can never leave a half-written
object where a later run would trust it; a torn write either vanishes
(tmp file) or fails the CRC and reads as a miss.  Reads touch the
object's mtime so :meth:`ResultCache.prune` can evict
least-recently-used first.

The store is deliberately dumb about concurrency: two processes
publishing the same key race benignly (same bytes, last replace wins),
and one run never submits a key twice (:func:`repro.parallel.run_units`
rejects duplicate unit ids, and the unit id is part of the key).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from pathlib import Path

from ..errors import CacheError
from ..obs.manifest import git_describe
from .envelope import CacheEnvelope, decode, encode
from .keys import Uncachable, unit_key

#: Suffix of stored objects (RePro Cache).
OBJECT_SUFFIX = ".rpc"


def value_digest(value) -> str | None:
    """SHA-256 of the pickled value, or None when it cannot pickle."""
    try:
        blob = pickle.dumps(value, protocol=4)
    except Exception:
        return None
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """A content-addressed store plus this run's hit/miss accounting.

    The counters (``hits`` / ``misses`` / ``stores`` / ``errors``) are
    deliberately **not** recorded into any
    :class:`~repro.obs.MetricsRegistry`: folded metrics are part of the
    byte-identity contract (a cold run would log misses where a warm
    run logs hits, so the histories would diverge).  They surface
    through the telemetry side channel, the structured log, and the
    history row's ``extra`` field instead — none of which are gated.

    *verify* arms sampled-hit verification in the engine: one hit per
    run is re-executed and its envelope diffed against the store.
    """

    def __init__(self, root, *, verify: bool = False):
        self.root = Path(root)
        self.verify = verify
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        # One subprocess per store instance, not one per unit: every
        # unit in a run shares the same checkout by construction.
        self._git = git_describe()
        (self.root / "objects").mkdir(parents=True, exist_ok=True)

    # -- keying --------------------------------------------------------

    def key(self, unit) -> str | None:
        """Content address for *unit*, or None when it is uncachable."""
        try:
            return unit_key(unit, git=self._git)
        except Uncachable:
            return None

    # -- object IO -----------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / (key + OBJECT_SUFFIX)

    def lookup(self, key: str) -> CacheEnvelope | None:
        """Fetch a stored envelope; corrupt objects read as misses."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            envelope = decode(blob)
        except CacheError:
            # Corrupt object: drop it so the re-executed result can
            # take its place, and treat this lookup as a miss.
            self.errors += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        try:
            os.utime(path)  # LRU clock for prune()
        except OSError:
            pass
        return envelope

    def publish(self, envelope: CacheEnvelope) -> None:
        """Atomically store *envelope* under its key."""
        path = self._path(envelope.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
        try:
            tmp.write_bytes(encode(envelope))
            os.replace(tmp, path)
        except OSError:
            self.errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stores += 1

    def publish_unit(self, key: str, unit_id: str, *, value,
                     instruments: dict,
                     wall_s: float | None = None) -> None:
        """Wrap one completed unit's result and its metrics and evidence
        dump (*instruments*) into an envelope and store it.  This is
        the engine-facing entry point: the engine stays duck-typed
        against the cache object and never constructs a
        :class:`CacheEnvelope` itself."""
        self.publish(CacheEnvelope(
            key=key, unit_id=unit_id, value=value,
            instruments=instruments, wall_s=wall_s,
            value_digest=value_digest(value)))

    def check_hit(self, envelope: CacheEnvelope, fresh) -> None:
        """Compare a re-executed unit against a stored envelope.

        *fresh* is the re-executed unit's outcome (its ``value`` and
        ``instruments`` dump).  Its metrics, evidence nodes and value
        digest must equal the stored ones.  Raises :class:`CacheError`
        when they diverge — that means the cache key is missing an
        input and every hit is suspect, so the run must abort rather
        than silently serve stale results.
        """
        stored = envelope.instruments
        dump = fresh.instruments
        diverged = [part for part in ("metrics", "evidence")
                    if stored.get(part) != dump.get(part)]
        fresh_digest = value_digest(fresh.value)
        if (envelope.value_digest is not None
                and fresh_digest is not None
                and fresh_digest != envelope.value_digest):
            diverged.append("value")
        if diverged:
            raise CacheError(
                f"cache verify failed for {envelope.unit_id} "
                f"(key {envelope.key[:12]}): re-executed "
                f"{' and '.join(diverged)} diverge from the stored "
                f"envelope — the cache key is missing an input; "
                f"prune {self.root} and re-run")

    # -- run accounting ------------------------------------------------

    def summary(self) -> dict:
        """This run's cache accounting (history ``extra`` payload)."""
        consulted = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
            "hit_ratio": (round(self.hits / consulted, 4)
                          if consulted else 0.0),
        }

    # -- maintenance (CLI) ---------------------------------------------

    def _objects(self):
        objects_dir = self.root / "objects"
        if not objects_dir.is_dir():
            return
        for shard in sorted(objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.iterdir()):
                if path.suffix == OBJECT_SUFFIX:
                    yield path

    def stats(self) -> dict:
        """Store-wide statistics for ``python -m repro.cache stats``."""
        count = 0
        total_bytes = 0
        units: dict[str, int] = {}
        oldest = newest = None
        for path in self._objects():
            try:
                stat = path.stat()
                envelope = decode(path.read_bytes())
            except (OSError, CacheError):
                continue
            count += 1
            total_bytes += stat.st_size
            prefix = envelope.unit_id.split("/", 1)[0]
            units[prefix] = units.get(prefix, 0) + 1
            oldest = (stat.st_mtime if oldest is None
                      else min(oldest, stat.st_mtime))
            newest = (stat.st_mtime if newest is None
                      else max(newest, stat.st_mtime))
        return {
            "root": str(self.root),
            "objects": count,
            "bytes": total_bytes,
            "units_by_kind": dict(sorted(units.items())),
            "age_span_s": (round(newest - oldest, 1)
                           if count and oldest is not None else 0.0),
        }

    def prune(self, *, max_bytes: int | None = None,
              max_age_s: float | None = None,
              drop_all: bool = False) -> dict:
        """Evict objects: corrupt always, then by age, then LRU to fit.

        Returns ``{"removed": n, "kept": n, "bytes": remaining}``.
        """
        entries = []  # (mtime, size, path)
        removed = 0
        now = time.time()
        for path in self._objects():
            try:
                stat = path.stat()
            except OSError:
                continue
            try:
                decode(path.read_bytes())
            except (OSError, CacheError):
                path.unlink(missing_ok=True)
                removed += 1
                continue
            if drop_all or (max_age_s is not None
                            and now - stat.st_mtime > max_age_s):
                path.unlink(missing_ok=True)
                removed += 1
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        remaining = sum(size for _, size, _ in entries)
        if max_bytes is not None and remaining > max_bytes:
            entries.sort()  # oldest (least recently used) first
            while entries and remaining > max_bytes:
                _, size, path = entries.pop(0)
                path.unlink(missing_ok=True)
                remaining -= size
                removed += 1
        return {"removed": removed, "kept": len(entries),
                "bytes": remaining}

    def verify_store(self) -> dict:
        """Decode every object and re-check its value digest.

        Returns ``{"checked": n, "corrupt": [keys], "stale": [keys]}``
        where *corrupt* failed framing/CRC/unpickle and *stale* have a
        value that no longer matches its recorded digest.
        """
        checked = 0
        corrupt: list[str] = []
        stale: list[str] = []
        for path in self._objects():
            key = path.stem
            try:
                envelope = decode(path.read_bytes())
            except (OSError, CacheError):
                corrupt.append(key)
                continue
            checked += 1
            if envelope.key != key:
                corrupt.append(key)
                continue
            if envelope.value_digest is not None:
                digest = value_digest(envelope.value)
                if digest is not None and digest != envelope.value_digest:
                    stale.append(key)
        return {"checked": checked, "corrupt": corrupt, "stale": stale}
