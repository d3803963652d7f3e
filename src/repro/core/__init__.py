"""Hermes core: predictor, offline partition, online mapping, scheduling,
and the end-to-end inference engine."""

from .predictor import (
    ActivationPredictor,
    CorrelationTable,
    PredictionStats,
    PredictorConfig,
    STATE_BITS,
    STATE_MAX,
)
from .partition import (
    OfflinePartition,
    PartitionCosts,
    assign_dimms,
    solve_partition,
)
from .mapper import NeuronMapper
from .scheduling import RemapResult, WindowScheduler
from .result import BREAKDOWN_KEYS, RunResult
from .engine import (
    HermesConfig,
    HermesSession,
    HermesSystem,
    StepCost,
    batch_union_factor,
)

__all__ = [
    "ActivationPredictor",
    "PredictorConfig",
    "PredictionStats",
    "CorrelationTable",
    "STATE_MAX",
    "STATE_BITS",
    "OfflinePartition",
    "PartitionCosts",
    "solve_partition",
    "assign_dimms",
    "NeuronMapper",
    "WindowScheduler",
    "RemapResult",
    "RunResult",
    "BREAKDOWN_KEYS",
    "HermesConfig",
    "HermesSession",
    "HermesSystem",
    "StepCost",
    "batch_union_factor",
]
