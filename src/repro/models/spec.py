"""Transformer model specifications.

Hermes reasons about LLM weights at the granularity of *neurons*: a neuron is
a specific row/column of a weight matrix (paper §I, footnote 1).  Two weight
regions per transformer layer are amenable to activation sparsity:

* the **attention block** (QKV generation) — one neuron per *input channel*
  of the fused Q/K/V projection, created by the ReLU the paper inserts before
  QKV generation (Fig. 3b).  A layer has ``hidden_size`` attention neurons.
* the **MLP block** — one neuron per *intermediate channel*: a column of FC1
  (and of the gate projection for gated MLPs) plus the matching row of FC2.
  A layer has ``ffn_size`` MLP neurons.

The attention-output projection cannot exploit activation sparsity (paper
§IV-A2) and is modelled as a dense GPU-side matrix, as are the embedding and
LM head.

All sizes are bytes of FP16 weights (2 bytes per parameter), matching the
paper's FP16 evaluation.
"""

from __future__ import annotations

import dataclasses
import math

BYTES_PER_PARAM = 2  # FP16


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Static description of a decoder-only transformer.

    Parameters mirror the HuggingFace configs of the evaluated models; the
    ``gated_mlp`` flag distinguishes LLaMA-style SwiGLU MLPs (three matrices
    per MLP neuron) from OPT/Falcon-style two-matrix MLPs.
    """

    name: str
    num_layers: int
    hidden_size: int
    ffn_size: int
    num_heads: int
    num_kv_heads: int
    vocab_size: int
    gated_mlp: bool = False
    #: mean fraction of neurons active per token after ReLU-fication
    #: (papers report 70-90 % sparsity, i.e. 0.1-0.3 density; §II-B).
    activation_density: float = 0.25

    def __post_init__(self) -> None:
        if self.num_layers <= 0 or self.hidden_size <= 0 or self.ffn_size <= 0:
            raise ValueError(f"{self.name}: sizes must be positive")
        if self.num_heads <= 0 or self.num_kv_heads <= 0:
            raise ValueError(f"{self.name}: head counts must be positive")
        if self.hidden_size % self.num_heads:
            raise ValueError(
                f"{self.name}: hidden_size {self.hidden_size} not divisible "
                f"by num_heads {self.num_heads}"
            )
        if self.num_heads % self.num_kv_heads:
            raise ValueError(
                f"{self.name}: num_heads {self.num_heads} not divisible by "
                f"num_kv_heads {self.num_kv_heads}"
            )
        if not 0.0 < self.activation_density <= 1.0:
            raise ValueError(
                f"{self.name}: activation_density must lie in (0, 1]"
            )

    # ------------------------------------------------------------------
    # derived dimensions
    # ------------------------------------------------------------------
    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def kv_dim(self) -> int:
        """Total K (= V) projection width, accounting for GQA/MQA."""
        return self.head_dim * self.num_kv_heads

    @property
    def attn_neurons_per_layer(self) -> int:
        """Sparsifiable neurons in the QKV block (one per input channel)."""
        return self.hidden_size

    @property
    def mlp_neurons_per_layer(self) -> int:
        """Sparsifiable neurons in the MLP block (one per FFN channel)."""
        return self.ffn_size

    @property
    def neurons_per_layer(self) -> int:
        return self.attn_neurons_per_layer + self.mlp_neurons_per_layer

    @property
    def total_neurons(self) -> int:
        return self.neurons_per_layer * self.num_layers

    # ------------------------------------------------------------------
    # per-neuron weight footprints (bytes)
    # ------------------------------------------------------------------
    @property
    def attn_neuron_bytes(self) -> int:
        """Weight bytes owned by one attention neuron.

        One row each of W_q (hidden wide) and of W_k/W_v (kv_dim wide).
        """
        return (self.hidden_size + 2 * self.kv_dim) * BYTES_PER_PARAM

    @property
    def mlp_neuron_bytes(self) -> int:
        """Weight bytes owned by one MLP neuron.

        A column of FC1/up-projection plus a row of FC2/down-projection,
        plus a gate column for SwiGLU models.
        """
        matrices = 3 if self.gated_mlp else 2
        return matrices * self.hidden_size * BYTES_PER_PARAM

    # ------------------------------------------------------------------
    # aggregate weight footprints (bytes)
    # ------------------------------------------------------------------
    @property
    def attn_sparse_bytes_per_layer(self) -> int:
        return self.attn_neurons_per_layer * self.attn_neuron_bytes

    @property
    def mlp_sparse_bytes_per_layer(self) -> int:
        return self.mlp_neurons_per_layer * self.mlp_neuron_bytes

    @property
    def sparse_bytes_per_layer(self) -> int:
        """Weights subject to the hot/cold partition in one layer."""
        return (
            self.attn_sparse_bytes_per_layer + self.mlp_sparse_bytes_per_layer
        )

    @property
    def dense_bytes_per_layer(self) -> int:
        """Attention-output projection: dense, always computed on the GPU."""
        return self.hidden_size * self.hidden_size * BYTES_PER_PARAM

    @property
    def layer_bytes(self) -> int:
        return self.sparse_bytes_per_layer + self.dense_bytes_per_layer

    @property
    def embedding_bytes(self) -> int:
        """Token embedding + LM head (untied), kept in GPU memory."""
        return 2 * self.vocab_size * self.hidden_size * BYTES_PER_PARAM

    @property
    def total_weight_bytes(self) -> int:
        return self.layer_bytes * self.num_layers + self.embedding_bytes

    @property
    def total_params(self) -> int:
        return self.total_weight_bytes // BYTES_PER_PARAM

    # ------------------------------------------------------------------
    # KV cache
    # ------------------------------------------------------------------
    def kv_bytes_per_token_per_layer(self, batch: int = 1) -> int:
        """KV-cache bytes appended per generated token in one layer."""
        return 2 * self.kv_dim * BYTES_PER_PARAM * batch

    def kv_bytes_total(self, context_len: int, batch: int = 1) -> int:
        """KV-cache footprint for ``context_len`` tokens across all layers."""
        return (
            self.kv_bytes_per_token_per_layer(batch)
            * context_len
            * self.num_layers
        )

    def describe(self) -> str:
        """One-line human-readable summary used by examples and reports."""
        return (
            f"{self.name}: {self.num_layers}L x {self.hidden_size}d "
            f"(ffn {self.ffn_size}, {self.num_heads}h/{self.num_kv_heads}kv), "
            f"{self.total_params / 1e9:.1f}B params, "
            f"{self.total_weight_bytes / 2**30:.1f} GiB FP16"
        )


def neuron_groups(spec: ModelSpec, granularity: int) -> tuple[int, int]:
    """Number of (attention, MLP) neuron *groups* per layer.

    The simulator tracks neurons in bundles of ``granularity`` contiguous
    neurons (PowerInfer-style clusters) so that billion-parameter models stay
    tractable; ``granularity=1`` tracks individual neurons.
    """
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    attn = math.ceil(spec.attn_neurons_per_layer / granularity)
    mlp = math.ceil(spec.mlp_neurons_per_layer / granularity)
    return attn, mlp
