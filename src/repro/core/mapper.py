"""Online hot/cold neuron adjustment (paper §IV-C2).

All weights live on the DIMMs; GPU memory holds *copies* of the hot set.
After each token, groups whose predictor state rose above the hot threshold
are swapped in over PCIe, evicting the lowest-state resident groups — which
is free, because evicting only overwrites the GPU copy.  Swap-ins are
scheduled inside the projection window, when the DIMMs are idle and the
PCIe link has no competing weight traffic; the engine charges any overflow
beyond the window to the token's critical path.  The mapper keeps one
(num_layers, groups) residency matrix, and one
:meth:`NeuronMapper.swap_token` runs a token's swaps for every layer from
one snapshot: one stable sort of the token's candidates and one of the
residents they may evict.  Those sorts define the tie order: candidates
go hottest first, ties by higher group index, and victims coldest first,
ties by lower group index.
"""

from __future__ import annotations

import numpy as np

from ..sparsity import NeuronLayout
from .partition import OfflinePartition
from .predictor import STATE_MAX


class NeuronMapper:
    """Tracks GPU residency and performs threshold-guided swaps."""

    def __init__(self, layout: NeuronLayout, gpu_budget_bytes: int) -> None:
        if gpu_budget_bytes < 0:
            raise ValueError("gpu_budget_bytes must be non-negative")
        self.layout = layout
        self.gpu_budget_bytes = gpu_budget_bytes
        #: (num_layers, groups) GPU residency matrix, and a flat view of
        #: it by ``layer * groups + group`` index for the swap
        self.resident = np.zeros(
            (layout.model.num_layers, layout.groups_per_layer), dtype=bool)
        self._resident_flat = self.resident.reshape(-1)
        self.resident_bytes = 0
        #: plain-int group bytes by flat index for the swap's walk
        #: (indexing a Python list beats per-element ndarray item
        #: extraction)
        self._flat_bytes: list[int] = (
            layout.group_bytes.tolist() * layout.model.num_layers)
        #: per-layer resident bytes, maintained incrementally by
        #: :meth:`initialize` and :meth:`swap_token` so no path re-sums them
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

        A layer admits its candidates (non-resident groups above the hot
        threshold) hottest first, ties by higher group index, while they
        fit its bytes.  One that does not fit the free GPU space, the
        tighter of the global and per-layer headroom, evicts the layer's
        residents coldest first, ties by lower group index, but never
        one at least as hot as itself; groups admitted during the token
        are never victims.  So only residents colder than the token's
        hottest candidate can go.  The token takes one snapshot: one
        stable sort of its candidates and one of those residents, each
        keyed by (layer, state) over flat ``layer * groups + group``
        indices, so every layer's run is a contiguous range.  The states
        change only after the token, and the residency is written once,
        at its end.
        """
        resident = self.resident
        c_flat = np.flatnonzero((states > hot_threshold) & ~resident)
        groups = resident.shape[1]
        c_states = states.take(c_flat)
        # one stable sort per side, keyed by (layer, state) over the
        # flat-index order.  The candidates' layer keys count down, so
        # that reversed their runs go up the layers, each hottest first
        # with ties by higher group index.
        order = np.argsort(c_states - c_flat // groups * (STATE_MAX + 1),
                           kind="stable")[::-1]
        cands = c_flat[order].tolist()
        cand_states = c_states[order].tolist()
        # with no candidate, no state is below the initial 0
        v_flat = np.flatnonzero(
            resident & (states < c_states.max(initial=0)))
        v_states = states.take(v_flat)
        order = np.argsort(v_states + v_flat // groups * (STATE_MAX + 1),
                           kind="stable")
        victims = v_flat[order].tolist()
        victim_states = v_states[order].tolist()
        c_edges = np.searchsorted(c_flat, self._row_edges).tolist()
        v_edges = np.searchsorted(v_flat, self._row_edges).tolist()
        flat_bytes, layer_used = self._flat_bytes, self._layer_used
        used = self.resident_bytes
        admitted: list[int] = []
        evicted: list[int] = []
        window = 0.0
        swapped = 0
        for layer in range(resident.shape[0]):
            window += window_step
            c0, c1 = c_edges[layer], c_edges[layer + 1]
            budget = int(window * bandwidth)
            if c0 == c1 or budget <= 0:
                continue
            v0 = v = v_edges[layer]
            v1 = v_edges[layer + 1]
            free = min(self.gpu_budget_bytes - used,
                       self.layer_budget[layer] - layer_used[layer])
            c = c0
            bytes_in = bytes_out = 0
            while c < c1:
                b = flat_bytes[cands[c]]
                if b > budget:
                    break
                if free < b:
                    state = cand_states[c]
                    while free < b and v < v1 and victim_states[v] < state:
                        freed = flat_bytes[victims[v]]
                        free += freed
                        bytes_out += freed
                        v += 1
                    if free < b:
                        break
                free -= b
                budget -= b
                bytes_in += b
                c += 1
            if c > c0 or v > v0:
                admitted += cands[c0:c]
                evicted += victims[v0:v]
                delta = bytes_in - bytes_out
                used += delta
                layer_used[layer] += delta
            if bytes_in:
                swapped += bytes_in
                window = max(0.0, window - bytes_in / bandwidth)
        if admitted or evicted:
            self._resident_flat[evicted] = False
            self._resident_flat[admitted] = True
            self.resident_bytes = used
        return window, swapped

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
