"""The traced benchmark's name contract, checked in seconds.

``perfbench/tracer.py`` wraps every function and method in its
``TARGETS`` and imports a few more names in ``install``; deleting or
renaming any of them breaks the traced benchmark.  These tests load the
tracer module read-only (nothing is installed or wrapped) and resolve
every name it relies on.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_every_wrapped_name_resolves():
    missing = []
    for module_name, path, _span in tracer.TARGETS:
        try:
            owner, attr = tracer._resolve(module_name, path)
            target = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{path}")
            continue
        if not callable(target):
            missing.append(f"{module_name}:{path} (not callable)")
    assert missing == []


def test_install_imports_resolve():
    from repro.attacks.capture import CaptureUnsupported
    from repro.dram.chip import ChipStats, DramChip
    from repro.parallel import engine
    from repro.trr.base import TrrMechanism

    importlib.import_module("repro.eval.__main__")
    assert issubclass(CaptureUnsupported, Exception)
    assert "__init__" in vars(DramChip)
    assert callable(engine._call_unit)
    for method, _span in tracer.TRR_HOOKS:
        assert callable(getattr(TrrMechanism, method))
    assert set(tracer.SIM_FIELDS) <= set(ChipStats.__slots__)
