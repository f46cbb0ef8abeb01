"""Deterministic random-stream derivation.

The simulator must generate *stable* per-row properties (weak cells,
retention times, RowHammer thresholds) without storing them for every row
of every bank: a 64K-row bank would otherwise need tens of megabytes of
state before a single experiment runs.  Instead, every row's properties
are drawn from a PCG64 stream whose seed is derived from a hierarchical
key such as ``("module", serial, "bank", 3, "row", 4711, "retention")``.

Key derivation uses BLAKE2b (stable across processes and Python versions,
unlike the built-in ``hash``), so a module with a given serial number
behaves identically in every run, every test, and every benchmark.

A block of rows can be drawn at once without changing a single draw:
:meth:`SeedSequenceFactory.seeds` derives the seeds of many rows that
share a key prefix (hashing the prefix once), and :class:`PCG64Lanes`
runs one ``np.random.PCG64`` per seed side by side in numpy arrays,
seeded and stepped exactly as numpy seeds and steps its own.  A caller
that mirrors numpy's ``Generator`` algorithms on the lanes therefore
reproduces each row's own stream draw for draw
(:func:`repro.dram.retention.generate_profiles`).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

KeyPart = int | str | bytes | float


def _hashed(h, parts: Iterable[KeyPart]):
    """Feed *parts* into the BLAKE2b state *h*: each part's length, then
    a type tag and the value.  Returns *h*."""
    for part in parts:
        if isinstance(part, bytes):
            raw = b"b" + part
        elif isinstance(part, str):
            raw = b"s" + part.encode("utf-8")
        elif isinstance(part, bool):  # before int: bool subclasses int
            raw = b"o" + (b"1" if part else b"0")
        elif isinstance(part, int):
            raw = b"i" + str(part).encode("ascii")
        elif isinstance(part, float):
            raw = b"f" + repr(part).encode("ascii")
        else:
            raise TypeError(f"unsupported key part type: {type(part)!r}")
        h.update(len(raw).to_bytes(4, "little"))
        h.update(raw)
    return h


def derive_seed(*parts: KeyPart) -> int:
    """Derive a stable 64-bit seed from a hierarchical key.

    >>> derive_seed("mod", 7, "row", 42) == derive_seed("mod", 7, "row", 42)
    True
    >>> derive_seed("a", 1) != derive_seed("a", 2)
    True
    """
    return int.from_bytes(
        _hashed(hashlib.blake2b(digest_size=8), parts).digest(), "little")


def stream(*parts: KeyPart) -> np.random.Generator:
    """Return a fresh PCG64 generator for the hierarchical key *parts*."""
    return np.random.Generator(np.random.PCG64(derive_seed(*parts)))


class SeedSequenceFactory:
    """Convenience factory that prefixes every derived stream with a root key.

    A :class:`~repro.dram.chip.DramChip` owns one factory keyed by the
    module serial; all device randomness (cell maps, sampling TRR, etc.)
    flows through it so that two chips with the same serial are bit-exact
    replicas and two chips with different serials are independent.
    """

    def __init__(self, *root: KeyPart) -> None:
        self._root: tuple[KeyPart, ...] = tuple(root)

    @property
    def root(self) -> tuple[KeyPart, ...]:
        return self._root

    def seed(self, *parts: KeyPart) -> int:
        return derive_seed(*self._root, *parts)

    def seeds(self, *parts: KeyPart, rows: Iterable[int]) -> np.ndarray:
        """``[self.seed(*parts, row) for row in rows]`` as a ``uint64``
        array.  The shared prefix is hashed once and copied per row."""
        prefix = _hashed(hashlib.blake2b(digest_size=8),
                         (*self._root, *parts))
        digests = b"".join(_hashed(prefix.copy(), (row,)).digest()
                           for row in rows)
        return np.frombuffer(digests, dtype="<u8").astype(np.uint64)

    def stream(self, *parts: KeyPart) -> np.random.Generator:
        return stream(*self._root, *parts)

    def child(self, *parts: KeyPart) -> "SeedSequenceFactory":
        """Return a factory rooted one level deeper."""
        return SeedSequenceFactory(*self._root, *parts)


# numpy's SeedSequence hash constants (``bit_generator.pyx``) and the
# PCG64 128-bit LCG multiplier (``pcg64.h``).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_MASK32 = np.uint64(0xFFFFFFFF)
_TWO_POW_32 = np.uint64(1 << 32)


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of each 128-bit product ``a * b`` (``uint64``)."""
    a0, a1 = a & _MASK32, a >> np.uint64(32)
    b0, b1 = b & _MASK32, b >> np.uint64(32)
    t = a1 * b0 + ((a0 * b0) >> np.uint64(32))
    w = (t & _MASK32) + a0 * b1
    return a1 * b1 + (t >> np.uint64(32)) + (w >> np.uint64(32))


def _seed_sequence_state(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` per seed, as
    four ``uint64`` word arrays.  A seed below 2**32 is one entropy word
    and a larger one two; the pool hashes a missing word as 0, so both
    mix as two words."""
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(len(seeds), dtype=np.uint32)
    pool = [hashmix(word) for word in ((seeds & _MASK32).astype(np.uint32),
                                       (seeds >> np.uint64(32)).astype(
                                           np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = _INIT_B
    words = []
    for index in range(8):
        value = pool[index % 4] ^ np.uint32(const)
        const = (const * _MULT_B) & 0xFFFFFFFF
        value = value * np.uint32(const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [words[i] | (words[i + 1] << np.uint64(32))
            for i in range(0, 8, 2)]


class PCG64Lanes:
    """One ``np.random.PCG64(seed)`` per seed, stepped side by side.

    Lane *i* is seeded exactly as ``np.random.PCG64(seeds[i])`` seeds
    itself (SeedSequence pool mixing, ``generate_state(4, uint64)``, the
    128-bit LCG start) and keeps the same buffered upper half of its
    last 64-bit draw for the next 32-bit one.  Every draw takes an index
    array of distinct lanes and advances only those.
    """

    def __init__(self, seeds: np.ndarray) -> None:
        state_hi, state_lo, seq_hi, seq_lo = _seed_sequence_state(
            np.asarray(seeds, dtype=np.uint64))
        self._inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
        self._inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
        # pcg64_srandom_r: from state 0 step once, add the initial
        # state, step again.
        lo = self._inc_lo + state_lo
        hi = self._inc_hi + state_hi + (lo < state_lo)
        self._hi, self._lo = self._step(hi, lo, self._inc_hi, self._inc_lo)
        self._has32 = np.zeros(len(lo), dtype=bool)
        self._buf32 = np.zeros(len(lo), dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._lo)

    @staticmethod
    def _step(hi, lo, inc_hi, inc_lo):
        """``state * multiplier + inc`` modulo 2**128."""
        product_lo = lo * _PCG_MULT_LO
        product_hi = (_mulhi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI
                      + hi * _PCG_MULT_LO)
        new_lo = product_lo + inc_lo
        return product_hi + inc_hi + (new_lo < product_lo), new_lo

    def state(self, lane: int) -> dict:
        """Lane *lane*'s state in the shape of ``PCG64.state``."""
        return {"bit_generator": "PCG64",
                "state": {"state": int(self._hi[lane]) << 64
                          | int(self._lo[lane]),
                          "inc": int(self._inc_hi[lane]) << 64
                          | int(self._inc_lo[lane])},
                "has_uint32": int(self._has32[lane]),
                "uinteger": int(self._buf32[lane])}

    def next64(self, lanes: np.ndarray) -> np.ndarray:
        """``random_raw()``: step each lane, then its XSL-RR output."""
        hi, lo = self._step(self._hi[lanes], self._lo[lanes],
                            self._inc_hi[lanes], self._inc_lo[lanes])
        self._hi[lanes] = hi
        self._lo[lanes] = lo
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))

    def next32(self, lanes: np.ndarray) -> np.ndarray:
        """The buffered 32-bit draw: the upper half of a lane's last
        64-bit draw if it has not been taken, else the lower half of a
        new one (as ``uint64``)."""
        has = self._has32[lanes]
        out = np.empty(len(lanes), dtype=np.uint64)
        buffered = lanes[has]
        out[has] = self._buf32[buffered]
        self._has32[buffered] = False
        fresh = lanes[~has]
        draws = self.next64(fresh)
        out[~has] = draws & _MASK32
        self._buf32[fresh] = draws >> np.uint64(32)
        self._has32[fresh] = True
        return out

    def next_double(self, lanes: np.ndarray) -> np.ndarray:
        """``Generator.random()``: the top 53 bits of a 64-bit draw."""
        return ((self.next64(lanes) >> np.uint64(11)).astype(np.float64)
                * (1.0 / 9007199254740992.0))

    def bounded_uint32(self, lanes: np.ndarray, bounds: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Lemire's bounded draw on ``[0, bound]`` from one 32-bit draw
        per lane, for bounds in ``[1, 2**32 - 2]``.  Returns the values
        and a mask of the lanes whose draw fell in the rejection zone:
        numpy draws again there, so those lanes' values and every later
        draw of theirs are void."""
        excl = bounds.astype(np.uint64) + np.uint64(1)
        m = self.next32(lanes) * excl
        rejected = (m & _MASK32) < (_TWO_POW_32 - excl) % excl
        return m >> np.uint64(32), rejected


def choice_without(rng: np.random.Generator, low: int, high: int,
                   exclude: Iterable[int], size: int) -> list[int]:
    """Sample *size* distinct integers from ``[low, high)`` avoiding *exclude*.

    Used e.g. to pick dummy rows far from profiled rows.  Raises
    ``ValueError`` if the candidate space is too small.
    """
    excluded = set(exclude)
    available = (high - low) - len([x for x in excluded if low <= x < high])
    if available < size:
        raise ValueError(
            f"cannot sample {size} rows from [{low}, {high}) "
            f"with {len(excluded)} exclusions")
    picked: list[int] = []
    seen = set(excluded)
    while len(picked) < size:
        candidate = int(rng.integers(low, high))
        if candidate in seen:
            continue
        seen.add(candidate)
        picked.append(candidate)
    return picked
