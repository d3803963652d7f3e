"""Activation-sparsity substrate: frequencies, traces, statistics."""

from .frequencies import (
    compute_share,
    power_law_exponent,
    power_law_frequencies,
)
from .layout import NeuronLayout
from .trace import ActivationTrace
from .generator import TraceConfig, generate_trace
from .stats import (
    dimm_load_imbalance,
    hot_cold_computation_share,
    hot_set_churn,
    jaccard_similarity,
    layer_correlation,
    token_similarity_curve,
)

__all__ = [
    "power_law_frequencies",
    "power_law_exponent",
    "compute_share",
    "NeuronLayout",
    "ActivationTrace",
    "TraceConfig",
    "generate_trace",
    "jaccard_similarity",
    "token_similarity_curve",
    "layer_correlation",
    "hot_cold_computation_share",
    "hot_set_churn",
    "dimm_load_imbalance",
]
