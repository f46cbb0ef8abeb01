"""Reverse-engineering the logical-to-physical row mapping (§5.3).

Before Row Scout runs, U-TRR must know which logical rows are physically
adjacent: TRR refreshes *physical* neighbors, and the custom attack
patterns place aggressors physically.  The paper's method: disable
refresh, hammer a row a large number of times, and see which logical rows
collect RowHammer bit flips — those are the physical neighbors.

This module probes a sample of rows that way, then fits the observed
adjacency against the known decoder scramble families
(:func:`repro.dram.mapping.available_schemes`).  It also classifies the
*coupling topology*: standard (victims on both sides) versus the
pair-isolated organization of vendor C's C0-8 modules, where only odd
aggressors disturb anything, and only their even pair row (Obs C3).

Limitation (documented in DESIGN.md): candidate victims are read from a
window of logical rows around each probe, so only *local* scrambles are
recoverable — which covers every decoder layout reported for these
modules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..dram.mapping import RowMapping, available_schemes, make_mapping
from ..dram.patterns import AllOnes, DataPattern
from ..errors import MappingError
from ..obs.evidence import ev_error, ev_probe
from ..softmc import SoftMCHost


class CouplingTopology(enum.Enum):
    """How hammering disturbs neighbors."""

    STANDARD = "standard"      #: victims on both physical sides
    PAIRED = "paired"          #: odd aggressor disturbs its even pair only


@dataclass(frozen=True)
class ProbeEvidence:
    """One adjacency probe's outcome."""

    #: Logical rows that collected RowHammer flips.
    flipped: tuple[int, ...]
    #: Candidate rows that were testable (not already failing by
    #: retention over the probe's duration).
    testable: tuple[int, ...]


@dataclass(frozen=True)
class MappingDiscovery:
    """Result of the §5.3 reverse-engineering step."""

    scheme: str
    mapping: RowMapping
    coupling: CouplingTopology
    #: Raw evidence: probe logical row -> what flipped / was testable.
    evidence: dict[int, ProbeEvidence]


def _probe_adjacency(host: SoftMCHost, bank: int, probe_row: int,
                     hammer_count: int, window: int,
                     pattern: DataPattern) -> ProbeEvidence:
    """Hammer *probe_row* with refresh disabled; return the logical rows
    in +-window that collected bit flips.

    Hammering millions of times takes ~100 ms of bus time with refresh
    disabled, long enough for weak candidate rows to fail by *retention*.
    A control pass that idles for the same duration filters those out, so
    only genuine RowHammer victims count as adjacency evidence.
    """
    low = max(0, probe_row - window)
    high = min(host.rows_per_bank, probe_row + window + 1)
    candidates = [row for row in range(low, high) if row != probe_row]
    duration_ps = host.timing.hammer_duration_ps(hammer_count)

    for row in candidates:
        host.write_row(bank, row, pattern)
    host.wait(duration_ps)
    baseline = {row for row in candidates
                if host.read_row_mismatches(bank, row)}
    testable = tuple(row for row in candidates if row not in baseline)

    for row in testable:
        host.write_row(bank, row, pattern)
    host.hammer_single(bank, probe_row, hammer_count)
    flipped = tuple(row for row in testable
                    if host.read_row_mismatches(bank, row))
    return ProbeEvidence(flipped=flipped, testable=testable)


def discover_row_mapping(host: SoftMCHost, bank: int = 0,
                         hammer_count: int = 2_400_000,
                         probe_count: int = 12, window: int = 4,
                         pattern: DataPattern | None = None
                         ) -> MappingDiscovery:
    """Recover the row-address mapping and coupling topology.

    *hammer_count* must comfortably exceed the module's RowHammer
    threshold for single-sided cascaded hammering (the paper uses 300K
    activations for its adjacency verification; the default covers even
    the strongest Table 1 modules after cascaded-run attenuation).
    """
    pattern = pattern or AllOnes()
    ledger = host.obs.evidence
    num_rows = host.rows_per_bank
    # Spread probes over the bank, away from the edges so windows fit.
    # The per-probe jitter walks all low-address-bit residues: a scramble
    # family can only be told apart from identity at rows where it
    # actually rewires adjacency.
    step = max((num_rows - 2 * window) // (probe_count + 1), 1)
    probe_rows = []
    for i in range(probe_count):
        row = window + step * (i + 1) + (i % 8)
        if window <= row < num_rows - window:
            probe_rows.append(row)
    evidence = {row: _probe_adjacency(host, bank, row, hammer_count,
                                      window, pattern)
                for row in probe_rows}

    probes = [ev_probe(row, probe.flipped, probe.testable)
              for row, probe in sorted(evidence.items())]
    try:
        coupling = _classify_coupling(evidence)
        scheme = _fit_scheme(evidence, coupling, num_rows)
    except MappingError as err:
        ledger.decide(
            "mapping_scheme", None, outcome="rejected",
            stage="inference.mapping",
            evidence=[*probes, ev_error(err)],
            host=host)
        raise
    ledger.decide(
        "coupling", coupling.value, stage="inference.mapping",
        confidence=1.0, evidence=probes,
        host=host)
    ledger.decide(
        "mapping_scheme", scheme, stage="inference.mapping",
        confidence=1.0, evidence=probes,
        detail={"probe_rows": list(probe_rows)},
        host=host)
    return MappingDiscovery(scheme=scheme,
                            mapping=make_mapping(scheme, num_rows),
                            coupling=coupling, evidence=evidence)


def _classify_coupling(evidence: dict[int, ProbeEvidence]
                       ) -> CouplingTopology:
    informative = {row: e for row, e in evidence.items() if e.flipped}
    if not informative:
        raise MappingError(
            "no probe produced bit flips; hammer_count too low for this "
            "module's RowHammer threshold?")
    # Pair isolation: flips come only from odd-addressed aggressors and
    # hit exactly one row (the even pair row), while even aggressors with
    # testable neighbors stay silent.  Pair-isolated modules ship direct
    # mappings; the fit below re-validates whichever hypothesis we pick.
    single_hit = all(len(e.flipped) == 1 for e in informative.values())
    if single_hit:
        silent = [row for row, e in evidence.items()
                  if not e.flipped and len(e.testable) >= 2]
        if silent:
            return CouplingTopology.PAIRED
    return CouplingTopology.STANDARD


def _fit_scheme(evidence: dict[int, ProbeEvidence],
                coupling: CouplingTopology, num_rows: int) -> str:
    """Find the scramble family consistent with every probe's flips.

    Prefers ``direct`` on ties: under pair-isolated coupling every
    scramble that preserves address bit 0 predicts the same observable
    adjacency, so the simplest consistent hypothesis wins (the ambiguity
    is benign — only pair relationships matter on such modules).
    """
    ordered = ["direct"] + [s for s in available_schemes() if s != "direct"]
    for scheme in ordered:
        try:
            mapping = make_mapping(scheme, num_rows)
        except Exception:  # scheme impossible for this row count
            continue
        if _consistent(mapping, evidence, coupling):
            return scheme
    raise MappingError(
        "observed adjacency matches no known decoder scramble; evidence: "
        f"{evidence}")


def _consistent(mapping: RowMapping, evidence: dict[int, ProbeEvidence],
                coupling: CouplingTopology) -> bool:
    for probe, probe_evidence in evidence.items():
        physical = mapping.to_physical(probe)
        testable = set(probe_evidence.testable)
        observed = set(probe_evidence.flipped)
        if coupling is CouplingTopology.PAIRED:
            expected = {mapping.to_logical(physical ^ 1)} \
                if physical % 2 == 1 else set()
            if observed != expected & testable:
                return False
            continue
        expected = set()
        for neighbor in (physical - 1, physical + 1):
            if 0 <= neighbor < mapping.num_rows:
                expected.add(mapping.to_logical(neighbor))
        # Every *testable* distance-1 victim must flip; extra flips are
        # possible at extreme hammer counts but must map to +-2.
        if not (expected & testable) <= observed:
            return False
        extras = observed - expected
        allowed = {mapping.to_logical(p)
                   for p in (physical - 2, physical + 2)
                   if 0 <= p < mapping.num_rows}
        if not extras <= allowed:
            return False
    return True
