"""Envelope codec: the on-disk form of one cached unit result.

An envelope is everything :mod:`repro.parallel` needs to make a cache
hit indistinguishable from a fresh execution: the unit's return value,
its metrics and evidence dump (replayed through the same
submission-order fold a pool worker's outcome goes through) and the
measured wall-clock.  A command profile is never stored: a hit executes
no command.

Wire format: a 5-byte magic (``RPRC`` + version), a 4-byte big-endian
CRC-32 of the body, then the pickled body (protocol 4 — readable by
every Python this repo supports).  The CRC catches torn writes and
bit rot cheaply; a corrupt or truncated envelope decodes to a
:class:`repro.errors.CacheError`, which the store treats as a miss.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field, fields

from ..errors import CacheError

#: 4-byte magic + 1-byte format version.  Version 3 stores only the
#: dump that folds (no span timeline, no key material); version 4's
#: metrics dump has no ``gauges`` member.  An object of an older
#: version reads as corrupt, i.e. a miss.
MAGIC = b"RPRC\x04"


@dataclass
class CacheEnvelope:
    """One cached unit outcome."""

    key: str
    unit_id: str
    value: object = None
    #: The unit's ``Observability.dump()``: ``metrics`` and
    #: ``evidence``, each only when recorded (never a command profile).
    instruments: dict = field(default_factory=dict)
    wall_s: float | None = None
    #: SHA-256 of ``pickle(value)`` at publish time; ``verify`` mode
    #: compares digests instead of objects (arrays, nested results).
    value_digest: str | None = None


def encode(envelope: CacheEnvelope) -> bytes:
    """Serialize *envelope* to the framed wire format."""
    # Shallow field dict, NOT dataclasses.asdict — asdict recurses and
    # would flatten a dataclass-typed unit value into a plain dict.
    body = pickle.dumps({f.name: getattr(envelope, f.name)
                         for f in fields(envelope)}, protocol=4)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return MAGIC + crc.to_bytes(4, "big") + body


def decode(blob: bytes) -> CacheEnvelope:
    """Parse one framed envelope; raise :class:`CacheError` if invalid."""
    if len(blob) < len(MAGIC) + 4:
        raise CacheError("envelope truncated")
    if blob[:len(MAGIC)] != MAGIC:
        raise CacheError(
            f"bad envelope magic {blob[:len(MAGIC)]!r}")
    stored_crc = int.from_bytes(blob[len(MAGIC):len(MAGIC) + 4], "big")
    body = blob[len(MAGIC) + 4:]
    if (zlib.crc32(body) & 0xFFFFFFFF) != stored_crc:
        raise CacheError("envelope CRC mismatch (corrupt or torn write)")
    try:
        fields = pickle.loads(body)
        return CacheEnvelope(**fields)
    except Exception as error:
        raise CacheError(f"envelope unpickle failed: {error}") from error
