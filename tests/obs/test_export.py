"""Prometheus text exposition: lossless round-trip of a registry dump.

The exporter's contract is that ``parse_prometheus(render_prometheus(m))``
reproduces ``m.as_dict()`` exactly — dotted metric names survive via
labels, power-of-two histogram buckets survive cumulative ``le``
encoding, and min/max ride along as explicit family members — so a
scraped endpoint is as trustworthy as the registry behind it.
"""

from __future__ import annotations

from repro.obs import MetricsRegistry
from repro.obs.export import (PROMETHEUS_CONTENT_TYPE, parse_prometheus,
                              render_prometheus)


def populated_registry() -> MetricsRegistry:
    metrics = MetricsRegistry()
    metrics.inc("host.acts", 102_400)
    metrics.inc("host.refs", 512)
    metrics.inc("scout.rows_scanned")
    metrics.set_gauge("calib.offset_ps", -125.5)
    metrics.set_gauge("eval.scale", 1)
    for value in (0, 1, 3, 9, 17, 17, 1500):
        metrics.observe("attack.flips_per_run", value)
    return metrics


def test_prometheus_round_trip_is_lossless():
    metrics = populated_registry()
    text = render_prometheus(metrics)
    assert parse_prometheus(text) == metrics.as_dict()


def test_prometheus_families_and_labels():
    text = render_prometheus(populated_registry())
    assert 'repro_counter{name="host.acts"} 102400' in text
    assert 'repro_gauge{name="calib.offset_ps"} -125.5' in text
    # Buckets are cumulative and close with +Inf == _count.
    assert 'le="+Inf"} 7' in text
    assert 'repro_histogram_count{name="attack.flips_per_run"} 7' in text
    assert 'repro_histogram_min{name="attack.flips_per_run"} 0' in text
    assert 'repro_histogram_max{name="attack.flips_per_run"} 1500' in text
    # Exposition-format framing the scrapers rely on.
    assert "# TYPE repro_counter counter" in text
    assert "# TYPE repro_histogram histogram" in text
    assert text.endswith("\n")
    assert "0.0.4" in PROMETHEUS_CONTENT_TYPE


def test_prometheus_escapes_label_values():
    metrics = MetricsRegistry()
    metrics.inc('weird"name\\with\nbreaks', 3)
    text = render_prometheus(metrics)
    parsed = parse_prometheus(text)
    assert parsed["counters"] == {'weird"name\\with\nbreaks': 3}


def test_prometheus_custom_namespace():
    metrics = MetricsRegistry()
    metrics.inc("host.acts", 7)
    text = render_prometheus(metrics, namespace="utrr")
    assert 'utrr_counter{name="host.acts"} 7' in text
    parsed = parse_prometheus(text, namespace="utrr")
    assert parsed["counters"] == {"host.acts": 7}


def test_prometheus_empty_registry():
    assert parse_prometheus(render_prometheus(MetricsRegistry())) == \
        MetricsRegistry().as_dict()


def test_prometheus_round_trips_evidence_metrics():
    """The provenance counters survive a scrape losslessly."""
    from repro.obs.evidence import EvidenceLedger, ev_refs

    class _Host:
        ref_count = 40
        acts_per_bank = {0: 360}

    ledger = EvidenceLedger(module="A5")
    ledger.decide("period", 16, evidence=[ev_refs([3])], host=_Host())
    ledger.decide("capacity", 16, outcome="rejected", host=_Host())
    metrics = MetricsRegistry()
    ledger.emit_metrics(metrics)
    text = render_prometheus(metrics)
    assert 'repro_counter{name="evidence.decisions"} 2' in text
    assert ('repro_counter{name="inference.commands_to_discovery'
            '.period"} 400') in text
    assert parse_prometheus(text) == metrics.as_dict()
