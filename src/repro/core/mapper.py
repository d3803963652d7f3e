"""Online hot/cold neuron adjustment (paper §IV-C2).

All weights live on the DIMMs; GPU memory holds *copies* of the hot set.
After each token, groups whose predictor state rose above the hot threshold
are swapped in over PCIe, evicting the lowest-state resident groups — which
is free, because evicting only overwrites the GPU copy.  Swap-ins are
scheduled inside the projection window, when the DIMMs are idle and the
PCIe link has no competing weight traffic; the engine charges any overflow
beyond the window to the token's critical path.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..sparsity import NeuronLayout
from .partition import OfflinePartition


@dataclasses.dataclass
class AdjustmentResult:
    """Outcome of one per-layer adjustment step."""

    swapped_in: int = 0
    swapped_out: int = 0
    bytes_in: int = 0

    def merge(self, other: "AdjustmentResult") -> None:
        self.swapped_in += other.swapped_in
        self.swapped_out += other.swapped_out
        self.bytes_in += other.bytes_in


class NeuronMapper:
    """Tracks GPU residency and performs threshold-guided swaps."""

    def __init__(self, layout: NeuronLayout, gpu_budget_bytes: int) -> None:
        if gpu_budget_bytes < 0:
            raise ValueError("gpu_budget_bytes must be non-negative")
        self.layout = layout
        self.gpu_budget_bytes = gpu_budget_bytes
        #: dense (num_layers, groups) residency matrix; ``resident`` keeps
        #: the historical per-layer API as row views into it, so in-place
        #: swaps update both and the decode fast path can consume the
        #: whole matrix without re-stacking per token
        self.resident_matrix = np.zeros(
            (layout.model.num_layers, layout.groups_per_layer), dtype=bool)
        self.resident: list[np.ndarray] = list(self.resident_matrix)
        self.resident_bytes = 0
        #: bumped whenever residency actually changes (initialize, or an
        #: adjust that swapped something) — lets the decode loop cache
        #: views derived from the residency matrix between changes
        self.version = 0
        #: plain-int mirrors for the adjustment inner loop (indexing a
        #: Python list beats per-element ndarray item extraction)
        self._group_bytes_list: list[int] = layout.group_bytes.tolist()
        #: per-layer resident bytes, maintained incrementally by
        #: :meth:`initialize`/:meth:`swap` so the hot path never re-sums
        self._layer_used: list[int] = [0] * layout.model.num_layers
        # Per-layer residency ceiling, fixed by the offline partition:
        # online adjustment is membership churn (paired swap-in/swap-out,
        # Fig. 8a), not growth — growing the GPU side past the partition's
        # balance point would starve the NDP pool (Eq. 1).
        self.layer_budget: list[int] = [
            gpu_budget_bytes for _ in range(layout.model.num_layers)
        ]

    # ------------------------------------------------------------------
    def initialize(self, partition: OfflinePartition) -> None:
        """Load the offline hot set into GPU memory and freeze each
        layer's residency footprint at the partition's allocation."""
        total = 0
        slack = max(1, int(self.layout.group_bytes.max()))
        for l, mask in enumerate(partition.hot_masks):
            self.resident[l][:] = mask
            layer_bytes = int(self.layout.group_bytes[mask].sum())
            total += layer_bytes
            self._layer_used[l] = layer_bytes
            self.layer_budget[l] = layer_bytes + slack
        if total > self.gpu_budget_bytes:
            raise ValueError("offline partition exceeds the GPU budget")
        self.resident_bytes = total
        self.version += 1

    # ------------------------------------------------------------------
    def adjust(self, layer: int, states: np.ndarray, *,
               hot_threshold: int = 10,
               max_bytes: int | None = None) -> AdjustmentResult:
        """Swap newly-hot groups in and cold residents out for one layer.

        ``states`` is the predictor's state table for the layer.  At most
        ``max_bytes`` may be transferred (the projection-window budget);
        remaining candidates wait for the next opportunity, exactly like
        the deferred copies of the paper's instruction queue.  The
        per-layer entry point over :meth:`swap`, which the engine calls
        directly with candidates it extracted for the whole token.
        """
        resident = self.resident[layer]
        if states.shape != resident.shape:
            raise ValueError("states mask has wrong shape")
        wanted = np.flatnonzero((states > hot_threshold) & ~resident)
        if wanted.size == 0:
            return AdjustmentResult()
        held = np.flatnonzero(resident)
        return self.swap(layer, wanted, states[wanted], held, states[held],
                         np.inf if max_bytes is None else max_bytes)

    def swap(self, layer: int, wanted: np.ndarray, wanted_states: np.ndarray,
             held: np.ndarray, held_states: np.ndarray,
             budget: float) -> AdjustmentResult:
        """The greedy core of one layer's adjustment.

        ``wanted`` are the layer's non-resident groups above the hot
        threshold and ``held`` its resident groups, both in group order,
        with their predictor states beside them.  Candidates are admitted
        hottest first while they fit ``budget`` bytes; one that does not
        fit the free GPU space evicts the coldest held groups first, but
        never one at least as hot as itself, and groups admitted during
        the call are never victims.  The two ``argsort`` calls (default
        kind, on group-ordered states) fix how state ties are broken.
        The loop runs on plain-int copies and keeps the free space by
        arithmetic: the tighter of the global and per-layer headroom
        moves by exactly the bytes admitted or evicted.
        """
        group_bytes = self._group_bytes_list
        order = wanted_states.argsort()[::-1]  # hottest first
        candidates = wanted[order].tolist()
        free = self.free_bytes(layer)
        victims: list[int] | None = None
        n_in = n_out = bytes_in = bytes_out = 0
        for idx, state in zip(candidates, wanted_states[order].tolist()):
            b = group_bytes[idx]
            if b > budget:
                break
            if free < b:
                if victims is None:
                    coldest = held_states.argsort()
                    victims = held[coldest].tolist()
                    victim_states = held_states[coldest].tolist()
                while (free < b and n_out < len(victims)
                       and victim_states[n_out] < state):
                    freed = group_bytes[victims[n_out]]
                    free += freed
                    bytes_out += freed
                    n_out += 1
                if free < b:
                    break
            free -= b
            budget -= b
            bytes_in += b
            n_in += 1
        if n_in or n_out:
            resident = self.resident[layer]
            if n_out:
                for victim in victims[:n_out]:
                    resident[victim] = False
            for idx in candidates[:n_in]:
                resident[idx] = True
            delta = bytes_in - bytes_out
            self.resident_bytes += delta
            self._layer_used[layer] += delta
            self.version += 1
        return AdjustmentResult(n_in, n_out, bytes_in)

    # ------------------------------------------------------------------
    def free_bytes(self, layer: int) -> int:
        """Headroom a swap-in to ``layer`` may use without evicting.

        The tighter of the global GPU budget slack and the layer's frozen
        residency ceiling — the free space :meth:`swap` starts from, also
        read by the engine's gate that skips no-op adjustments.
        """
        return min(
            self.gpu_budget_bytes - self.resident_bytes,
            self.layer_budget[layer] - self._layer_used[layer],
        )

    def residency_bytes(self, layer: int) -> int:
        return int(self.layout.group_bytes[self.resident[layer]].sum())

    def check_invariants(self) -> None:
        """Internal consistency: the total and per-layer byte counters
        match the masks, and the GPU and per-layer budgets hold (used by
        property tests)."""
        total = 0
        for l in range(len(self.resident)):
            used = self.residency_bytes(l)
            if self._layer_used[l] != used:
                raise AssertionError(f"layer {l} byte counter out of sync")
            if used > self.layer_budget[l]:
                raise AssertionError(f"layer {l} budget exceeded")
            total += used
        if total != self.resident_bytes:
            raise AssertionError("resident byte counter out of sync")
        if total > self.gpu_budget_bytes:
            raise AssertionError("GPU budget exceeded")
