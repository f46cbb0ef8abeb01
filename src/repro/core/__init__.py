"""U-TRR core: Row Scout, TRR Analyzer, and automated reverse engineering.

This package is the paper's contribution.  Everything here interacts with
the device under test exclusively through the SoftMC host interface —
read-back data and the host's own clock/REF counter are the only
observables.
"""

from .inference import (HARDENED_INFERENCE, REDUCED_INFERENCE,
                        InferenceConfig, InferredTrrProfile, TrrInference)
from .mapping_re import (CouplingTopology, MappingDiscovery,
                         discover_row_mapping)
from .refclassifier import RefreshCalibrator, RefreshSchedule
from .resilience import AnalyzerStats, PipelineStats, RowScoutStats
from .rowgroup import RowGroup, RowGroupLayout
from .rowscout import ProfilingConfig, RowScout
from .serialization import load_measurement, save_measurement
from .trranalyzer import (AggressorHammer, ExperimentConfig,
                          ExperimentResult, RowObservation, TrrAnalyzer)

__all__ = [
    "AggressorHammer",
    "AnalyzerStats",
    "CouplingTopology",
    "ExperimentConfig",
    "ExperimentResult",
    "HARDENED_INFERENCE",
    "InferenceConfig",
    "InferredTrrProfile",
    "MappingDiscovery",
    "PipelineStats",
    "ProfilingConfig",
    "REDUCED_INFERENCE",
    "RefreshCalibrator",
    "RefreshSchedule",
    "RowGroup",
    "RowGroupLayout",
    "RowObservation",
    "RowScout",
    "RowScoutStats",
    "TrrAnalyzer",
    "TrrInference",
    "load_measurement",
    "save_measurement",
    "discover_row_mapping",
]
