"""REF-independence probe: tells ACT-coupled PARA apart from any TRR."""

from __future__ import annotations

from repro.core import REDUCED_INFERENCE, TrrInference
from repro.trr import CounterBasedTrr, ParaMitigation, SamplingBasedTrr
from .conftest import make_host


def inference(trr):
    return TrrInference(make_host(trr), REDUCED_INFERENCE)


def test_ref_piggybacked_trr_is_not_ref_independent():
    for trr in (CounterBasedTrr(), SamplingBasedTrr(seed=1)):
        independent, detail = inference(trr).test_ref_independence()
        assert independent is False, detail


def test_para_detected_as_ref_independent():
    independent, detail = inference(
        ParaMitigation(probability=1 / 200, seed=2)).test_ref_independence()
    assert independent is True, detail


def test_full_run_classifies_para_as_act_coupled():
    profile = inference(ParaMitigation(probability=1 / 200, seed=3)).run()
    assert profile.ref_independent is True
    assert profile.detection == "act-coupled"
    assert profile.trr_ref_period is None
    assert "ACT-coupled" in profile.summary()
