"""Cache keys: the content address of one work unit's result.

A result is safe to reuse exactly when every input that could change it
is part of the key.  For this repo's work units that closure is small
and enumerable, because PR 2's manifests already made results
reproducible from a recipe:

- the **unit id** and its derived **seed** (every RNG stream a unit
  uses is keyed off the unit id, never off scheduling),
- the **code revision** (``git describe --always --dirty --tags``) and
  the **Python version** (pickles and bytecode are version-scoped),
- the **numpy version**: every device draw runs numpy's ``Generator``
  algorithms (or mirrors them, :mod:`repro.rng`), which a numpy release
  may change, so a store written under one numpy never serves another,
- a **fingerprint of the unit's entry-point callable** (module,
  qualname, bytecode, consts) so editing the function invalidates its
  results even inside one dirty working tree,
- the canonicalized **arguments, keyword arguments, and meta** of the
  unit — module id, :class:`~repro.eval.scale.EvalScale` operating
  point (the chip recipe selector), fault profile, positions, seeds.

Deliberately **not** part of the key: worker count, telemetry
configuration, log destinations, ``--evidence`` and ``--profile`` —
anything the determinism tests prove cannot change a result or its
stored dump.  Every unit records the same metrics and evidence dump
whatever the run's flags, and a command profile is never stored, so a
store serves a unit whichever flags wrote it.  Units whose arguments
cannot be canonicalized (open handles, lambdas with captured state,
foreign objects) raise :class:`Uncachable` and simply execute uncached;
caching is an optimization, never a correctness gate.
"""

from __future__ import annotations

import enum
import hashlib
import json
import platform
import types
from dataclasses import fields, is_dataclass

import numpy

from ..obs.manifest import git_describe

#: Bump when key material changes meaning (old entries become misses).
#: Schema 3: the key names no instrument (evidence, profile).  Schema 4:
#: the key names the numpy version.
KEY_SCHEMA = 4


class Uncachable(Exception):
    """A work unit whose inputs cannot be canonicalized into a key."""


def canonical(obj):
    """A JSON-stable canonical form of *obj*, or raise :class:`Uncachable`.

    Handles the value shapes work-unit arguments actually take:
    primitives, tuples/lists, dicts with string-able keys, (frozen)
    dataclasses such as ``EvalScale`` and ``InferenceConfig``, enums,
    numpy scalars/arrays, and nested combinations thereof.  Callables
    canonicalize to their code fingerprint.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips floats exactly; JSON may not.
        return ["__float__", repr(obj)]
    if isinstance(obj, bytes):
        return ["__bytes__", obj.hex()]
    if isinstance(obj, enum.Enum):
        return ["__enum__", type(obj).__qualname__, canonical(obj.value)]
    if is_dataclass(obj) and not isinstance(obj, type):
        body = {field.name: canonical(getattr(obj, field.name))
                for field in fields(obj)}
        return {"__dataclass__": type(obj).__qualname__, **body}
    if isinstance(obj, (tuple, list)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        items = [canonical(item) for item in obj]
        try:
            return ["__set__", sorted(items, key=repr)]
        except TypeError as error:  # pragma: no cover — repr sorts
            raise Uncachable(f"unsortable set: {error}") from error
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj, key=str):
            if not isinstance(key, (str, int)):
                raise Uncachable(f"non-scalar dict key {key!r}")
            out[str(key)] = canonical(obj[key])
        return out
    # numpy scalars and (small) arrays, without importing numpy here.
    item = getattr(obj, "item", None)
    tolist = getattr(obj, "tolist", None)
    if tolist is not None and hasattr(obj, "dtype"):
        return ["__ndarray__", str(obj.dtype), tolist()]
    if item is not None and hasattr(obj, "dtype"):
        return ["__npscalar__", str(obj.dtype), canonical(item())]
    if callable(obj):
        return ["__callable__", callable_fingerprint(obj)]
    raise Uncachable(f"cannot canonicalize {type(obj).__qualname__}")


def callable_fingerprint(fn) -> str:
    """A stable fingerprint of a callable's identity *and* implementation.

    Hashes the module-qualified name plus the code object's bytecode,
    constants, and referenced names, so editing the entry point — even
    in a dirty tree where ``git describe`` cannot tell two states apart
    — changes the fingerprint and invalidates its cached results.
    Nested code objects (inner ``def``/``lambda`` constants) are walked
    structurally: their ``repr`` embeds a memory address, which would
    make the fingerprint differ between processes running identical
    code.  Builtins and callables without a code object hash by name
    only.
    """
    parts = [getattr(fn, "__module__", "?") or "?",
             getattr(fn, "__qualname__", None) or repr(fn)]
    code = getattr(fn, "__code__", None)
    if code is not None:
        _code_parts(code, parts)
    digest = hashlib.sha256("\x00".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


def _code_parts(code, parts: list) -> None:
    parts.append(code.co_code.hex())
    parts.append(repr(code.co_names))
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            parts.append(const.co_name)
            _code_parts(const, parts)
        else:
            parts.append(repr(const))


def unit_key_material(unit, git: str | None = None) -> dict:
    """The full key recipe of one work unit, as a JSON-compatible dict.

    *unit* is a :class:`repro.parallel.WorkUnit` (duck-typed: anything
    with ``unit_id`` / ``seed`` / ``fn`` / ``args`` / ``kwargs`` /
    ``meta``).  Raises :class:`Uncachable` when an argument cannot be
    canonicalized.
    """
    return {
        "schema": KEY_SCHEMA,
        "unit": unit.unit_id,
        "seed": unit.seed,
        "git": git if git is not None else git_describe(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fn": callable_fingerprint(unit.fn),
        "args": canonical(tuple(unit.args)),
        "kwargs": canonical(dict(unit.kwargs)),
        "meta": canonical(dict(unit.meta)),
    }


def material_digest(material: dict) -> str:
    """The content address: SHA-256 over the canonical JSON material."""
    encoded = json.dumps(material, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def unit_key(unit, git: str | None = None) -> str:
    """Content-address one work unit (raises :class:`Uncachable`)."""
    return material_digest(unit_key_material(unit, git=git))
