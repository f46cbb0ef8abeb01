"""The traced benchmark's name contract, checked in seconds.

``perfbench/tracer.py`` wraps every function and method in its
``TARGETS``, imports a few more names in ``install``, and reads some
attributes of the records its wrappers see; deleting or renaming any of
them breaks the traced benchmark.  These tests load the tracer module
read-only (nothing is installed or wrapped), resolve every name it
relies on, and build the records whose attributes it reads.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.cache import ResultCache
from repro.core import TrrInference
from repro.parallel import WorkUnit, run_units
from repro.softmc import SoftMCHost
from repro.vendors import build_module, get_module

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


def _square(value: int) -> int:
    return value * value


def test_records_carry_the_attributes_the_tracer_reads(tmp_path):
    published = []

    class RecordingCache(ResultCache):
        def publish(self, envelope):
            super().publish(envelope)
            published.append((self, envelope))

    units = [WorkUnit(unit_id="contract/2", fn=_square, args=(2,))]
    inline = run_units(units, 1, cache=RecordingCache(tmp_path))
    cached = run_units(units, 1, cache=RecordingCache(tmp_path))
    # ``run_units`` wrapper: the run's workers and each outcome's wall
    # and served-without-executing flags.
    for run, served in ((inline, False), (cached, True)):
        assert run.workers == 1
        [outcome] = run.outcomes
        assert isinstance(outcome.wall_s, float)
        assert outcome.cached is served
        assert outcome.coalesced is False
    # ``cache.publish`` wrapper: the stored object's size.
    [(cache, envelope)] = published
    assert cache._path(envelope.key).exists()
    # ``core.inference`` wrappers: the chip behind the inference's host.
    host = SoftMCHost(build_module(get_module("A5"), rows_per_bank=1024,
                                   row_bits=256))
    stats = TrrInference(host)._host._chip.stats
    assert stats.activates + stats.refreshes == 0
