"""Fixtures for U-TRR core tests: inference-friendly chips."""

from __future__ import annotations

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
