"""Extension probes: deeper §6 details the paper left unmeasured."""

from __future__ import annotations

import pytest

from repro.core import REDUCED_INFERENCE, TrrInference
from repro.errors import ExperimentError
from repro.trr import CounterBasedTrr, SamplingBasedTrr, WindowBasedTrr
from .conftest import make_host


def inference(trr, **host_kwargs):
    return TrrInference(make_host(trr, **host_kwargs),
                        REDUCED_INFERENCE)


def test_eviction_policy_min_counter_recovered():
    inf = inference(CounterBasedTrr())
    policy, detail = inf.test_eviction_policy()
    assert policy == "min-counter"
    assert detail["heavy_first_protected"] is True
    assert detail["light_first_protected"] is False


def test_obs_a6_counter_reset_recovered():
    inf = inference(CounterBasedTrr())
    reset, detail = inf.test_counter_reset(9)
    assert reset is True
    # The stale entry is only revisited by the table walk: rare hits.
    assert detail["ref_only_hits"] <= detail["probes"] // 3


def test_sample_period_estimate_within_tolerance():
    for true_period, seed in ((500, 2), (1500, 4)):
        inf = inference(SamplingBasedTrr(sample_period=true_period,
                                         trr_ref_period=4, seed=seed))
        measured, detail = inf.measure_sample_period(4)
        assert 0.75 * true_period <= measured <= 1.05 * true_period, (
            true_period, measured)


def test_sample_period_raises_on_non_sampler():
    # A deferred-window mechanism never gives the all-hits signature
    # (its candidate is the burst's early dummy, not the probe row).
    inf = inference(WindowBasedTrr(seed=5))
    with pytest.raises(ExperimentError):
        inf.measure_sample_period(17, max_period=512, trials=4)


def test_detection_horizon_orders_with_window_size():
    horizons = {}
    for window, seed in ((1000, 6), (2000, 7)):
        inf = inference(WindowBasedTrr(window_acts=window,
                                       trr_ref_period=8, seed=seed))
        horizons[window], _ = inf.measure_detection_horizon(8)
    # Horizons are lower bounds on the window and scale with it.
    assert 0 < horizons[1000] <= 1000
    assert horizons[2000] <= 2000
    assert horizons[2000] >= horizons[1000] * 0.5
