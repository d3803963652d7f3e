"""Neuron-group layout: mapping tracked groups to weight bytes and FLOPs.

The simulator tracks neurons in bundles of ``granularity`` contiguous
neurons (``granularity=1`` is per-neuron tracking, exactly the paper; larger
bundles keep 70B-scale simulations tractable).  Within each layer, groups
are ordered ``[attention groups | MLP groups]``; attention and MLP neurons
have different per-neuron weight footprints, so the layout precomputes the
byte weight of every group once and every consumer (partitioner, predictor
accounting, timing) indexes into it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..models import ModelSpec, neuron_groups


@dataclasses.dataclass(frozen=True)
class NeuronLayout:
    """Per-layer group layout for one model at one tracking granularity."""

    model: ModelSpec
    granularity: int
    attn_groups: int
    mlp_groups: int
    #: weight bytes of each group in one layer, shape [groups_per_layer]
    group_bytes: np.ndarray
    #: neuron count of each group (the tail group may be partial)
    group_neurons: np.ndarray
    #: boolean mask, True where the group belongs to the MLP block
    is_mlp: np.ndarray

    @classmethod
    def build(cls, model: ModelSpec, granularity: int = 32) -> "NeuronLayout":
        attn_groups, mlp_groups = neuron_groups(model, granularity)
        counts = []
        byte_weights = []
        for total, per_neuron, n_groups in (
            (model.attn_neurons_per_layer, model.attn_neuron_bytes,
             attn_groups),
            (model.mlp_neurons_per_layer, model.mlp_neuron_bytes,
             mlp_groups),
        ):
            sizes = np.full(n_groups, granularity, dtype=np.int64)
            remainder = total - granularity * (n_groups - 1)
            sizes[-1] = remainder
            counts.append(sizes)
            byte_weights.append(sizes * per_neuron)
        group_neurons = np.concatenate(counts)
        group_bytes = np.concatenate(byte_weights)
        is_mlp = np.zeros(attn_groups + mlp_groups, dtype=bool)
        is_mlp[attn_groups:] = True
        return cls(
            model=model,
            granularity=granularity,
            attn_groups=attn_groups,
            mlp_groups=mlp_groups,
            group_bytes=group_bytes,
            group_neurons=group_neurons,
            is_mlp=is_mlp,
        )

    # ------------------------------------------------------------------
    @property
    def groups_per_layer(self) -> int:
        return self.attn_groups + self.mlp_groups

    @property
    def attn_slice(self) -> slice:
        return slice(0, self.attn_groups)

    @property
    def mlp_slice(self) -> slice:
        return slice(self.attn_groups, self.groups_per_layer)

    def block_bytes(self) -> np.ndarray:
        """(groups, 2) float64 matrix whose column b holds the weight
        bytes of FC block b (attention, then MLP) and zero elsewhere.

        One matmul of a (layers, groups) mask with it sums both blocks'
        bytes for every layer.  Exact: every product is 0 or a group's
        bytes, and a layer's sums stay far below 2**53.
        """
        matrix = np.zeros((self.groups_per_layer, 2))
        for b, block in enumerate((self.attn_slice, self.mlp_slice)):
            matrix[block, b] = self.group_bytes[block]
        return matrix

    def bytes_of(self, mask: np.ndarray) -> int:
        """Total weight bytes of the groups selected by a boolean mask."""
        if mask.shape != (self.groups_per_layer,):
            raise ValueError(
                f"mask shape {mask.shape} != ({self.groups_per_layer},)"
            )
        return int(self.group_bytes[mask].sum())

    def sparse_bytes_per_layer(self) -> int:
        return int(self.group_bytes.sum())
