"""Cache keys: canonicalization, fingerprints, and invalidation.

The invalidation contract is the whole safety story: every input that
can change a unit's result must change its key, and nothing else may.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cache import (Uncachable, callable_fingerprint,
                         material_digest, unit_key, unit_key_material)
from repro.cache.keys import canonical
from repro.parallel import WorkUnit


def entry_point(value: int) -> int:
    return value * value


def other_entry_point(value: int) -> int:
    return value * value * value


def nested_entry_point(value: int) -> int:
    def inner(x: int) -> int:
        return x + 1
    return inner(value) * value


class Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class Recipe:
    rows: int
    label: str


def _unit(**overrides):
    spec = dict(unit_id="eval/A5", fn=entry_point, args=(3,),
                kwargs={}, meta={"module": "A5"})
    spec.update(overrides)
    return WorkUnit(**spec)


def test_canonical_primitives_round_trip():
    assert canonical(None) is None
    assert canonical(True) is True
    assert canonical(7) == 7
    assert canonical("x") == "x"
    assert canonical(0.1) == ["__float__", repr(0.1)]
    assert canonical(b"\x00\xff") == ["__bytes__", "00ff"]


def test_canonical_containers_and_dataclasses():
    assert canonical((1, [2, 3])) == [1, [2, 3]]
    assert canonical({"b": 2, "a": 1}) == {"a": 1, "b": 2}
    assert canonical({2, 1}) == ["__set__", [1, 2]]
    assert canonical(Color.RED) == ["__enum__", "Color", 1]
    got = canonical(Recipe(rows=4, label="quick"))
    assert got["__dataclass__"] == "Recipe"
    assert got["rows"] == 4 and got["label"] == "quick"


def test_canonical_numpy_without_materializing_types():
    array = np.array([1, 2, 3], dtype=np.int64)
    assert canonical(array) == ["__ndarray__", "int64", [1, 2, 3]]
    # numpy scalars carry tolist()+dtype too, so they share the
    # ndarray branch — what matters is determinism, not the tag.
    assert canonical(np.int32(9)) == ["__ndarray__", "int32", 9]
    assert canonical(np.int32(9)) == canonical(np.int32(9))


def test_canonical_rejects_foreign_objects():
    with pytest.raises(Uncachable):
        canonical(object())
    with pytest.raises(Uncachable):
        canonical({(1, 2): "tuple key"})


def test_fingerprint_tracks_implementation_not_just_name():
    assert callable_fingerprint(entry_point) == \
        callable_fingerprint(entry_point)
    assert callable_fingerprint(entry_point) != \
        callable_fingerprint(other_entry_point)


def test_fingerprint_is_stable_across_processes():
    # Nested code objects repr with a memory address; the fingerprint
    # must walk them structurally or identical code keys differently
    # in every CLI invocation (observed as warm fig8 runs missing).
    script = ("import importlib, sys; sys.path.insert(0, {src!r}); "
              "sys.path.insert(0, {root!r}); "
              "module = importlib.import_module({module!r}); "
              "from repro.cache import callable_fingerprint; "
              "print(callable_fingerprint(module.nested_entry_point))")
    import pathlib
    import subprocess
    import sys
    root_dir = str(pathlib.Path(__file__).resolve().parents[2])
    src_dir = str(pathlib.Path(root_dir) / "src")
    code = script.format(src=src_dir, root=root_dir,
                         module=nested_entry_point.__module__)
    runs = [subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True, check=True)
            for _ in range(2)]
    first, second = (run.stdout.strip() for run in runs)
    assert first == second
    assert first == callable_fingerprint(nested_entry_point)


def test_unit_key_is_deterministic():
    assert unit_key(_unit(), git="g0") == unit_key(_unit(), git="g0")


@pytest.mark.parametrize("flip", [
    dict(unit_id="eval/B0"),          # unit id (and derived seed)
    dict(args=(4,)),                  # arguments
    dict(kwargs={"positions": 6}),    # keyword arguments
    dict(meta={"module": "B0"}),      # manifest meta
    dict(fn=other_entry_point),       # entry-point implementation
])
def test_unit_key_invalidates_on_result_inputs(flip):
    assert unit_key(_unit(**flip), git="g0") != \
        unit_key(_unit(), git="g0")


def test_unit_key_invalidates_on_code_revision():
    assert unit_key(_unit(), git="g0") != unit_key(_unit(), git="g1")


def test_unit_key_invalidates_on_numpy_version(monkeypatch):
    # Device draws run numpy's Generator algorithms, which a numpy
    # release may change.
    before = unit_key(_unit(), git="g0")
    monkeypatch.setattr(np, "__version__", "0.0.1")
    assert unit_key(_unit(), git="g0") != before


def test_material_names_every_key_ingredient():
    material = unit_key_material(_unit(), git="g0")
    assert set(material) == {"schema", "unit", "seed", "git", "python",
                             "numpy", "fn", "args", "kwargs", "meta"}
    assert material["schema"] == 4
    assert material["numpy"] == np.__version__
    assert material["unit"] == "eval/A5"
    assert material["git"] == "g0"
    assert material_digest(material) == unit_key(_unit(), git="g0")
