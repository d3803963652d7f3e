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

    ``activations`` is one token-major ``[n_tokens, num_layers,
    groups_per_layer]`` array; token index ``t < prompt_len`` rows
    describe prefill positions, the rest are decode steps.
    ``parents[l]`` holds the top-2 correlated predecessor groups in layer
    ``l-1`` for each group of layer ``l`` (``parents[0]`` is unused and
    stays None).
    """

    layout: NeuronLayout
    activations: np.ndarray
    parents: list[np.ndarray | None]
    prompt_len: int
    seed: int

    def __post_init__(self) -> None:
        shape = self.activations.shape
        if self.activations.dtype != bool:
            raise ValueError("activation array must be bool")
        if len(shape) != 3 or shape[1] != self.layout.model.num_layers:
            raise ValueError("one activation matrix per layer required")
        if shape[2] != self.layout.groups_per_layer:
            raise ValueError(
                f"{shape[2]} groups != layout {self.layout.groups_per_layer}")
        if shape[0] <= 0:
            raise ValueError("trace must contain at least one token")
        if not 0 <= self.prompt_len <= shape[0]:
            raise ValueError("prompt_len out of range")

    # ------------------------------------------------------------------
    @property
    def n_tokens(self) -> int:
        return self.activations.shape[0]

    @property
    def n_decode_tokens(self) -> int:
        return self.n_tokens - self.prompt_len

    @property
    def num_layers(self) -> int:
        return self.activations.shape[1]

    def active(self, layer: int, token: int) -> np.ndarray:
        """Boolean activation vector of one (layer, token)."""
        return self.activations[token, layer]

    def active_matrix(self, token: int) -> np.ndarray:
        """(num_layers, groups) activation matrix of one token.

        Row ``l`` equals ``active(l, token)``.  The matrix is one
        C-contiguous block of the token-major array, so the decode step
        reads a whole token at once, and every pass over it (the parent
        gathers, the masks, the state update) walks contiguous memory.
        """
        return self.activations[token]

    def density(self) -> float:
        """Overall fraction of active (group, token) pairs."""
        return np.count_nonzero(self.activations) / self.activations.size

    def frequencies(self, tokens: slice | None = None) -> np.ndarray:
        """Empirical activation frequency of every group over a token
        range (all tokens by default): one float64 (num_layers, groups)
        matrix whose row ``l`` is layer ``l``.  Each entry is an exact
        count of active tokens divided by the token count."""
        matrix = self.activations if tokens is None \
            else self.activations[tokens]
        if matrix.shape[0] == 0:
            raise ValueError("token range selects no tokens")
        return matrix.mean(axis=0)

    def prefill_frequencies(self) -> np.ndarray:
        """The (num_layers, groups) activation frequencies of the
        prompting stage, which Hermes uses to initialise the neuron state
        table (§IV-C1) and to solve its offline partition."""
        if self.prompt_len == 0:
            raise ValueError("trace has no prefill tokens")
        return self.frequencies(slice(0, self.prompt_len))

    def decode_tokens(self) -> range:
        """Token indices belonging to the generation stage."""
        return range(self.prompt_len, self.n_tokens)
