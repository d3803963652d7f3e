"""Activation traces: which neuron groups fire for each (token, layer).

An :class:`ActivationTrace` is the ground truth every simulated system
consumes.  The paper drives its evaluation with activations recorded from
real models on ChatGPT-prompts/Alpaca; here the trace comes from the
calibrated synthetic generator in :mod:`repro.sparsity.generator` (see
DESIGN.md for the substitution argument).  The trace also records the true
layer-correlation structure used to generate it, which plays the role of the
paper's offline-profiled neuron correlation table.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .layout import NeuronLayout


@dataclasses.dataclass
class ActivationTrace:
    """Boolean activation record for a full generation run.

    ``layers[l]`` has shape ``[n_tokens, groups_per_layer]``; token index
    ``t < prompt_len`` rows describe prefill positions, the rest are decode
    steps.  ``parents[l]`` holds the top-2 correlated predecessor groups in
    layer ``l-1`` for each group of layer ``l`` (``parents[0]`` is unused
    and stays None).
    """

    layout: NeuronLayout
    layers: list[np.ndarray]
    parents: list[np.ndarray | None]
    prompt_len: int
    seed: int

    def __post_init__(self) -> None:
        if len(self.layers) != self.layout.model.num_layers:
            raise ValueError("one activation matrix per layer required")
        expected = None
        for l, matrix in enumerate(self.layers):
            if matrix.dtype != bool:
                raise ValueError(f"layer {l}: activation matrix must be bool")
            if matrix.shape[1] != self.layout.groups_per_layer:
                raise ValueError(
                    f"layer {l}: {matrix.shape[1]} groups != layout "
                    f"{self.layout.groups_per_layer}")
            if expected is None:
                expected = matrix.shape[0]
            elif matrix.shape[0] != expected:
                raise ValueError("all layers must cover the same tokens")
        if expected is None or expected <= 0:
            raise ValueError("trace must contain at least one token")
        if not 0 <= self.prompt_len <= expected:
            raise ValueError("prompt_len out of range")

    # ------------------------------------------------------------------
    @property
    def n_tokens(self) -> int:
        return self.layers[0].shape[0]

    @property
    def n_decode_tokens(self) -> int:
        return self.n_tokens - self.prompt_len

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def active(self, layer: int, token: int) -> np.ndarray:
        """Boolean activation vector of one (layer, token)."""
        return self.layers[layer][token]

    def _ensure_stacked(self) -> np.ndarray:
        """Lazily-built (tokens, num_layers, groups) activation stack.

        The trace is treated as immutable once stacked.
        """
        stacked = getattr(self, "_stacked", None)
        if stacked is None:
            stacked = np.stack(self.layers, axis=1)
            self._stacked = stacked
        return stacked

    def active_matrix(self, token: int) -> np.ndarray:
        """(num_layers, groups) activation matrix of one token.

        Row ``l`` equals ``active(l, token)``.  The matrix is one
        C-contiguous block of the lazy token-major stack, so the decode
        fast path reads a whole token at once, and every pass over it
        (the parent gathers, the masks, the state update) walks
        contiguous memory.
        """
        return self._ensure_stacked()[token]

    def density(self) -> float:
        """Overall fraction of active (group, token) pairs."""
        total = sum(m.sum() for m in self.layers)
        cells = sum(m.size for m in self.layers)
        return float(total / cells)

    def frequencies(
        self, layer: int, *, tokens: slice | None = None
    ) -> np.ndarray:
        """Empirical activation frequency per group over a token range."""
        matrix = self.layers[layer] if tokens is None \
            else self.layers[layer][tokens]
        if matrix.shape[0] == 0:
            raise ValueError("token range selects no tokens")
        return matrix.mean(axis=0)

    def prefill_frequencies(self, layer: int) -> np.ndarray:
        """Activation frequency during the prompting stage, which Hermes
        uses to initialise the neuron state table (§IV-C1)."""
        if self.prompt_len == 0:
            raise ValueError("trace has no prefill tokens")
        return self.frequencies(layer, tokens=slice(0, self.prompt_len))

    def decode_tokens(self) -> range:
        """Token indices belonging to the generation stage."""
        return range(self.prompt_len, self.n_tokens)
