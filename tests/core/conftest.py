"""Fixtures for U-TRR core tests: inference-friendly chips."""

from __future__ import annotations

import pytest

from repro.core import InferenceConfig
from repro.dram import (DeviceConfig, DisturbanceConfig, DramChip,
                        RetentionConfig)
from repro.softmc import SoftMCHost


def make_host(trr=None, *, hc_first=12_000, paired=False, cycle=2_048,
              rows=8_192, banks=4, serial=7, vrt_fraction=0.0,
              weak_mean=2.0, mapping="direct", obs=None) -> SoftMCHost:
    """A chip dense enough in weak rows for Row Scout to find groups fast."""
    config = DeviceConfig(
        name="core-test", serial=serial, num_banks=banks,
        rows_per_bank=rows, row_bits=1024,
        refresh_cycle_refs=min(cycle, rows),
        mapping_scheme=mapping,
        retention=RetentionConfig(weak_cells_per_row_mean=weak_mean,
                                  vrt_fraction=vrt_fraction),
        disturbance=DisturbanceConfig(hc_first=hc_first,
                                      paired_coupling=paired))
    return SoftMCHost(DramChip(config, trr), obs=obs)


def fast_inference_config(**overrides) -> InferenceConfig:
    """Reduced-effort settings for unit tests (VRT-free chips)."""
    defaults = dict(
        validation_rounds=4,
        # Budget for >= 4-5 hits even at the largest stride (17) with
        # occasional masked hits; the scan stops early once it has them.
        period_scan_experiments=120,
        neighbor_distances=(1, 2),
        neighbor_repeats=2,
        persistence_probes=2,
        kind_repeats=3,
        capacity_candidates=(16, 17),
        capacity_repeats=2,
    )
    defaults.update(overrides)
    return InferenceConfig(**defaults)


@pytest.fixture
def host_factory():
    return make_host
