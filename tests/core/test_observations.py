"""§6 observations, recovered end-to-end through the side channel.

Each test stands in for one of the paper's numbered observations: the
chip implants a known TRR mechanism, and the inference procedures must
recover the implanted parameter using only command-level access and
read-back data.
"""

from __future__ import annotations


from repro.core import REDUCED_INFERENCE, TrrInference
from repro.trr import CounterBasedTrr, SamplingBasedTrr, WindowBasedTrr
from .conftest import make_host


def inference(trr, **host_kwargs):
    host = make_host(trr, **host_kwargs)
    return TrrInference(host, REDUCED_INFERENCE)


# ---- Vendor A (counter-based) -----------------------------------------------

def test_obs_a1_every_ninth_ref_is_trr_capable():
    inf = inference(CounterBasedTrr(trr_ref_period=9))
    period, detail = inf.find_trr_period()
    assert period == 9


def test_obs_a2_four_closest_neighbors_refreshed():
    inf = inference(CounterBasedTrr(neighbor_radius=2))
    distances, detail = inf.find_refreshed_neighbors(9)
    assert distances == (1, 2)
    assert detail["sides"][1] == {"left", "right"}
    assert detail["sides"][2] == {"left", "right"}


def test_a_trr2_refreshes_two_neighbors():
    inf = inference(CounterBasedTrr(neighbor_radius=1))
    distances, _ = inf.find_refreshed_neighbors(9)
    assert distances == (1,)


def test_obs_a3_counter_detection_prefers_most_hammered():
    inf = inference(CounterBasedTrr())
    detection, detail = inf.classify_detection(9, persists=True)
    assert detection == "counter"
    assert detail["first_heavy_hits"] > 0


def test_obs_a4_sixteen_entry_capacity():
    inf = inference(CounterBasedTrr(table_size=16))
    capacity, detail = inf.estimate_capacity(9, "counter")
    assert capacity == 16
    assert len(detail[16]) == 16
    assert len(detail[17]) < 17


def test_obs_a4_per_bank_tables():
    inf = inference(CounterBasedTrr())
    per_bank, _ = inf.test_per_bank(9)
    assert per_bank is True


def test_obs_a7_table_entries_persist():
    inf = inference(CounterBasedTrr())
    persists, detail = inf.test_state_persistence(9)
    assert persists is True
    assert detail["watch_hits"] > 0


def test_obs_a8_regular_refresh_cycle_shorter_than_nominal():
    inf = inference(CounterBasedTrr(), cycle=1024)
    assert inf.regular_refresh_cycle == 1024


# ---- Vendor B (sampling-based) ----------------------------------------------

def test_obs_b1_period_variants():
    for period in (4, 2):
        inf = inference(SamplingBasedTrr(trr_ref_period=period, seed=period))
        measured, _ = inf.find_trr_period()
        assert measured == period


def test_obs_b2_two_neighbors_refreshed():
    inf = inference(SamplingBasedTrr(seed=3))
    distances, detail = inf.find_refreshed_neighbors(4)
    assert distances == (1,)
    assert detail["sides"][1] == {"left", "right"}


def test_obs_b3_recency_sampling_detected():
    inf = inference(SamplingBasedTrr(seed=4))
    detection, detail = inf.classify_detection(4, persists=True)
    assert detection == "sampling"
    assert detail["first_heavy_hits"] == 0
    assert detail["last_light_hits"] > 0


def test_obs_b4_single_shared_sample_slot():
    inf = inference(SamplingBasedTrr(per_bank=False, seed=5))
    capacity, _ = inf.estimate_capacity(4, "sampling")
    assert capacity == 1
    per_bank, _ = inf.test_per_bank(4)
    assert per_bank is False


def test_obs_b4_b_trr3_is_per_bank():
    inf = inference(SamplingBasedTrr(per_bank=True, trr_ref_period=2,
                                     seed=6))
    per_bank, _ = inf.test_per_bank(2)
    assert per_bank is True


def test_obs_b5_sample_persists_after_trr_refresh():
    inf = inference(SamplingBasedTrr(seed=7))
    persists, detail = inf.test_state_persistence(4)
    assert persists is True


# ---- Vendor C (window-based) ------------------------------------------------

def test_obs_c1_period_and_deferral():
    inf = inference(WindowBasedTrr(trr_ref_period=17, seed=8))
    period, _ = inf.find_trr_period()
    assert period == 17
    persists, _ = inf.test_state_persistence(17)
    assert persists is False  # deferred window clears after one refresh
    detection, _ = inf.classify_detection(17, persists)
    assert detection == "window"


def test_obs_c3_paired_rows_refresh_pair_only():
    inf = inference(WindowBasedTrr(trr_ref_period=8, seed=9), paired=True)
    distances, detail = inf.find_refreshed_neighbors(8)
    assert distances == (1,)
    # Asymmetric: only one side (the pair row) is ever refreshed.
    assert len(detail["sides"][1]) == 1


def test_c_window_capacity_reported_unknown():
    inf = inference(WindowBasedTrr(seed=10))
    capacity, detail = inf.estimate_capacity(17, "window")
    assert capacity is None
