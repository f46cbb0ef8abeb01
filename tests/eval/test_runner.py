"""Module evaluation runner (quick, single-module smoke-level tests)."""

from __future__ import annotations

import dataclasses


from repro.eval import QUICK, evaluate_module
from repro.eval.runner import candidate_patterns
from repro.vendors import get_module

TINY = dataclasses.replace(QUICK, positions=6)


def test_candidate_patterns_cover_every_family():
    for module_id, expected in (("A0", "vendor-a-custom"),
                                ("B0", "vendor-b-custom"),
                                ("C9", "vendor-c-custom")):
        spec = get_module(module_id)
        host = TINY.build_host(spec)
        period = spec.trr_parameters()["trr_ref_period"]
        candidates = candidate_patterns(spec, host, period)
        assert candidates
        assert all(name.name.startswith(expected[:8])
                   for name, _ in candidates)


def test_evaluate_module_vendor_a():
    evaluation = evaluate_module(get_module("A0"), TINY)
    assert evaluation.pattern_name == "vendor-a-custom"
    assert evaluation.vulnerable_fraction > 0.4
    assert evaluation.max_flips_per_row >= 1
    assert evaluation.max_flips_per_row_per_hammer > 0


def test_evaluate_module_phase_locked_for_b_trr3():
    evaluation = evaluate_module(get_module("B13"), TINY)
    assert evaluation.pattern_name == "vendor-b-phase-locked"
    assert evaluation.vulnerable_fraction > 0.8


def test_evaluate_module_paired_c():
    evaluation = evaluate_module(get_module("C7"), TINY)
    assert evaluation.pattern_name == "vendor-c-custom"
    # All sampled victims are even rows (pair isolation).
    assert all(row % 2 == 0 for row in evaluation.result.positions)
