"""Online hot/cold neuron adjustment (paper §IV-C2).

All weights live on the DIMMs; GPU memory holds *copies* of the hot set.
After each token, groups whose predictor state rose above the hot threshold
are swapped in over PCIe, evicting the lowest-state resident groups — which
is free, because evicting only overwrites the GPU copy.  Swap-ins are
scheduled inside the projection window, when the DIMMs are idle and the
PCIe link has no competing weight traffic; the engine charges any overflow
beyond the window to the token's critical path.  The mapper keeps one
(num_layers, groups) residency matrix, and one
:meth:`NeuronMapper.swap_token` runs a token's swaps for every layer.
"""

from __future__ import annotations

import numpy as np

from ..sparsity import NeuronLayout
from .partition import OfflinePartition


class NeuronMapper:
    """Tracks GPU residency and performs threshold-guided swaps."""

    def __init__(self, layout: NeuronLayout, gpu_budget_bytes: int) -> None:
        if gpu_budget_bytes < 0:
            raise ValueError("gpu_budget_bytes must be non-negative")
        self.layout = layout
        self.gpu_budget_bytes = gpu_budget_bytes
        #: (num_layers, groups) GPU residency matrix, and a flat view of
        #: it by ``layer * groups + group`` index for the greedy core
        self.resident = np.zeros(
            (layout.model.num_layers, layout.groups_per_layer), dtype=bool)
        self._resident_flat = self.resident.reshape(-1)
        self.resident_bytes = 0
        #: plain-int group bytes by flat index for the greedy core
        #: (indexing a Python list beats per-element ndarray item
        #: extraction)
        self._flat_bytes: list[int] = (
            layout.group_bytes.tolist() * layout.model.num_layers)
        #: per-layer resident bytes, maintained incrementally by
        #: :meth:`initialize` and the greedy core so no path re-sums them
        self._layer_used: list[int] = [0] * layout.model.num_layers
        #: flat offsets of each layer's first group (and of the end), for
        #: splitting a flat group index into per-layer runs
        self._row_edges = np.arange(
            0, (layout.model.num_layers + 1) * layout.groups_per_layer,
            layout.groups_per_layer)
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
        self.resident[:] = partition.hot_masks
        for l, mask in enumerate(partition.hot_masks):
            layer_bytes = int(self.layout.group_bytes[mask].sum())
            total += layer_bytes
            self._layer_used[l] = layer_bytes
            self.layer_budget[l] = layer_bytes + slack
        if total > self.gpu_budget_bytes:
            raise ValueError("offline partition exceeds the GPU budget")
        self.resident_bytes = total

    # ------------------------------------------------------------------
    def swap_token(self, states: np.ndarray, hot_threshold: int,
                   window_step: float, bandwidth: float) -> tuple[float, int]:
        """One decode token's adjustment of every layer, in layer order.

        ``states`` is the (num_layers, groups) state table before the
        token.  Layer ``l``'s swaps ride the projection window: the
        window grows by ``window_step`` seconds per layer, the layer may
        move ``int(window * bandwidth)`` bytes, and what it moves
        shrinks the window for the layers after it.  Returns the window
        left after the last layer and the bytes swapped in.

        Layers that want nothing or whose budget is spent skip the
        greedy core (it would stop at its first probe).  The first layer
        past that takes one snapshot of every layer's wanted and
        resident groups (flat indices) with their int16 states, the
        wanted ones also as plain lists.  A layer's swap writes only its
        own residency row and the states change only after the token, so
        the snapshot holds each layer's entry state, and each layer hands
        the core its slices of it.
        """
        resident = self.resident
        wanted = (states > hot_threshold) & ~resident
        window = 0.0
        swapped = 0
        bounds = None
        for layer, wants in enumerate(wanted.any(axis=1).tolist()):
            window += window_step
            if not wants:
                continue
            budget = int(window * bandwidth)
            if budget <= 0:
                continue
            if bounds is None:
                w_flat = np.flatnonzero(wanted)
                w_keys = states.take(w_flat)
                w_ids, w_states = w_flat.tolist(), w_keys.tolist()
                r_flat = np.flatnonzero(resident)
                r_keys = states.take(r_flat)
                bounds = np.searchsorted(
                    w_flat, self._row_edges).tolist()
                r_bounds = np.searchsorted(
                    r_flat, self._row_edges).tolist()
            w0, w1 = bounds[layer], bounds[layer + 1]
            r0, r1 = r_bounds[layer], r_bounds[layer + 1]
            bytes_in = self._swap(
                layer, w_ids[w0:w1], w_states[w0:w1], w_keys[w0:w1],
                r_flat[r0:r1], r_keys[r0:r1], budget)
            if bytes_in:
                swapped += bytes_in
                window = max(0.0, window - bytes_in / bandwidth)
        return window, swapped

    def _swap(self, layer: int, ids: list[int], id_states: list[int],
              keys: np.ndarray, held: np.ndarray, held_keys: np.ndarray,
              budget: int) -> int:
        """The greedy core of one layer's adjustment.

        ``ids`` are the layer's non-resident groups above the hot
        threshold and ``held`` its resident groups, both as flat
        ``layer * groups + group`` indices in group order; ``id_states``
        and ``keys`` (a list and the array to sort) and ``held_keys``
        are their states.  Candidates are admitted hottest first while
        they fit ``budget`` bytes; one that does not fit the free GPU
        space evicts the coldest held groups first, but never one at
        least as hot as itself, and groups admitted during the call are
        never victims.  The two ``argsort`` calls (default kind, on the
        group-ordered states) fix how state ties are broken; the second
        runs only once a candidate must evict.  The free space is the
        tighter of the global and per-layer headroom and moves by
        exactly the bytes admitted or evicted.  Returns the bytes
        swapped in.
        """
        flat_bytes = self._flat_bytes
        order = keys.argsort().tolist()
        order.reverse()  # hottest first
        free = min(self.gpu_budget_bytes - self.resident_bytes,
                   self.layer_budget[layer] - self._layer_used[layer])
        victims: list[int] | None = None
        n_in = n_out = bytes_in = bytes_out = 0
        for i in order:
            b = flat_bytes[ids[i]]
            if b > budget:
                break
            if free < b:
                if victims is None:
                    coldest = held_keys.argsort()
                    victims = held[coldest].tolist()
                    victim_states = held_keys[coldest].tolist()
                state = id_states[i]
                while (free < b and n_out < len(victims)
                       and victim_states[n_out] < state):
                    freed = flat_bytes[victims[n_out]]
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
            resident = self._resident_flat
            for k in range(n_out):
                resident[victims[k]] = False
            for k in range(n_in):
                resident[ids[order[k]]] = True
            delta = bytes_in - bytes_out
            self.resident_bytes += delta
            self._layer_used[layer] += delta
        return bytes_in

    # ------------------------------------------------------------------
    @property
    def layer_used(self) -> list[int]:
        """Resident bytes per layer (read-only; exact ints that
        :meth:`check_invariants` compares with the masks)."""
        return self._layer_used

    def check_invariants(self) -> None:
        """Internal consistency: the total and per-layer byte counters
        match the masks, and the GPU and per-layer budgets hold (used by
        property tests)."""
        total = 0
        for l, mask in enumerate(self.resident):
            used = int(self.layout.group_bytes[mask].sum())
            if self._layer_used[l] != used:
                raise AssertionError(f"layer {l} byte counter out of sync")
            if used > self.layer_budget[l]:
                raise AssertionError(f"layer {l} budget exceeded")
            total += used
        if total != self.resident_bytes:
            raise AssertionError("resident byte counter out of sync")
        if total > self.gpu_budget_bytes:
            raise AssertionError("GPU budget exceeded")
