"""The disabled observability path is a strict no-op.

A host built without observability, a host built with the ``NULL_OBS``
bundle and a host with the default (metrics-only) bundle must all
produce bit-identical profiling results and identical command ledgers.
"""

from __future__ import annotations

from repro.core import ProfilingConfig, RowGroupLayout, RowScout
from repro.obs import NULL_OBS, Observability
from .conftest import scout_host


def scout_snapshot(host):
    """Run a fixed Row Scout pass and capture everything observable."""
    groups = RowScout(host).find_groups(ProfilingConfig(
        bank=0, layout=RowGroupLayout.parse("R-R"), group_count=2,
        validation_rounds=4))
    rows = tuple((group.bank, group.logical_rows, group.retention_ps)
                 for group in groups)
    return rows, host.now_ps, host.ref_count, host.ledger()


def test_null_obs_is_strict_noop():
    bare = scout_snapshot(scout_host())
    nulled = scout_snapshot(scout_host(obs=NULL_OBS))
    assert nulled == bare


def test_default_bundle_does_not_perturb_simulation():
    bare = scout_snapshot(scout_host())
    observed = scout_snapshot(scout_host(obs=Observability()))
    assert observed == bare


def test_null_bundle_shape():
    assert NULL_OBS.profiler is None
    assert NULL_OBS.evidence.nodes == ()
    assert NULL_OBS.recorder.enabled is False
    assert NULL_OBS.metrics.enabled is False
    assert NULL_OBS.spans.enabled is False
    # event() and span() must be callable and inert on the null bundle.
    NULL_OBS.event("noop", ps=0)
    with NULL_OBS.span("noop"):
        pass
    assert NULL_OBS.spans.as_timeline() == []
    assert NULL_OBS.metrics.as_dict() == {"counters": {}, "histograms": {}}
