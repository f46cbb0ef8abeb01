"""The NONE profile is a strict no-op: bit-identical to a bare host."""

from __future__ import annotations

from repro.core import InferenceConfig, ProfilingConfig, RowGroupLayout, \
    RowScout
from .conftest import make_faulty_host


def scout_snapshot(host):
    groups = RowScout(host).find_groups(ProfilingConfig(
        bank=0, layout=RowGroupLayout.parse("R-R"), group_count=2,
        validation_rounds=4))
    return ([(g.bank, g.base_physical, g.logical_rows,
              g.retention_ps, g.retention_lo_ps) for g in groups],
            host.now_ps, host.ref_count)


def test_none_profile_bit_identical_to_bare_host():
    bare = make_faulty_host(None)
    wrapped = make_faulty_host("none")
    assert scout_snapshot(bare) == scout_snapshot(wrapped)
    assert wrapped.faults.fault_count() == 0
    assert wrapped.faults.trace == []
    assert wrapped._chip.environment.neutral


def test_default_inference_config_is_unhardened():
    # The resilience pipeline defaults off, so the seed pipeline's exact
    # behaviour (covered by the tier-1 inference tests) is preserved.
    assert InferenceConfig().hardened is False
