"""Window-based online cold-neuron remapping (paper §IV-D, Algorithm 1).

Token-wise similarity makes the near future look like the recent past, so
Hermes balances NDP-DIMM load using a sliding window of observed activity:
every ``window`` tokens (paper: 5) it

1. computes each DIMM's activated-neuron load over the window
   (``Z_j = sum_i C_{j,i} * A_i``),
2. sorts DIMMs by load and pairs the heaviest with the lightest (then the
   second-heaviest with the second-lightest, ...), spreading migration
   traffic over distinct DIMM-link bridges, and
3. greedily moves the most-activated groups from the heavy to the light
   DIMM of each pair while doing so reduces the pair's makespan.

Migrations ride the DIMM-links during the projection window; the engine
charges any overflow.  The remapping mutates the partition's ``dimm_of``
arrays in place — the mapping is live state, exactly as in the paper.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..sparsity import NeuronLayout


@dataclasses.dataclass
class RemapResult:
    """Migration traffic produced by one rebalancing step."""

    moved_groups: int = 0
    moved_bytes: int = 0
    #: bytes moved per (source, destination) DIMM pair
    pair_bytes: dict = dataclasses.field(default_factory=dict)

    def merge(self, other: "RemapResult") -> None:
        self.moved_groups += other.moved_groups
        self.moved_bytes += other.moved_bytes
        for pair, b in other.pair_bytes.items():
            self.pair_bytes[pair] = self.pair_bytes.get(pair, 0) + b

    @property
    def max_link_bytes(self) -> int:
        """Largest per-link traffic — the migration critical path, since
        pairs use distinct bridges concurrently."""
        if not self.pair_bytes:
            return 0
        return max(self.pair_bytes.values())


class WindowScheduler:
    """Sliding-window activity tracker + Algorithm 1 rebalancer."""

    def __init__(
        self, layout: NeuronLayout, num_dimms: int, window: int = 5
    ) -> None:
        if num_dimms < 1:
            raise ValueError("num_dimms must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.layout = layout
        self.num_dimms = num_dimms
        self.window = window
        #: dense (num_layers, groups) activity accumulator; ``_activity``
        #: keeps the per-layer API as row views into it
        self._activity_matrix = np.zeros(
            (layout.model.num_layers, layout.groups_per_layer),
            dtype=np.int64)
        self._activity = list(self._activity_matrix)
        self._tokens_seen = 0

    # ------------------------------------------------------------------
    def observe_token(self, layer_activations) -> None:
        """Accumulate one token's activated groups into the window.

        Accepts either the historical list of per-layer masks or a dense
        (num_layers, groups) matrix (the decode fast path hands the
        trace's token matrix straight through).
        """
        if isinstance(layer_activations, np.ndarray):
            if layer_activations.shape != self._activity_matrix.shape:
                raise ValueError("one activation mask per layer required")
            self._activity_matrix += layer_activations
        else:
            if len(layer_activations) != len(self._activity):
                raise ValueError("one activation mask per layer required")
            for acc, mask in zip(self._activity, layer_activations):
                acc += mask
        self._tokens_seen += 1

    @property
    def window_full(self) -> bool:
        return self._tokens_seen >= self.window

    def reset_window(self) -> None:
        self._activity_matrix[:] = 0
        self._tokens_seen = 0

    # ------------------------------------------------------------------
    def dimm_loads(self, layer: int, dimm_of: np.ndarray,
                   exclude: np.ndarray | None = None) -> np.ndarray:
        """Windowed activated-group load per DIMM for one layer
        (Algorithm 1 line 1).  ``exclude`` masks GPU-resident groups whose
        compute does not land on the DIMMs."""
        activity = self._activity[layer].astype(np.float64)
        if exclude is not None:
            activity = np.where(exclude, 0.0, activity)
        # bincount over integer-valued float64 weights is exact, and far
        # cheaper than the np.add.at scatter it replaces
        return np.bincount(dimm_of, weights=activity,
                           minlength=self.num_dimms)

    def rebalance_layer(
        self,
        layer: int,
        dimm_of: np.ndarray,
        *,
        exclude: np.ndarray | None = None,
    ) -> RemapResult:
        """Algorithm 1 for one layer; mutates ``dimm_of`` in place."""
        if self.num_dimms == 1:
            return RemapResult()
        activity = self._activity[layer].astype(np.float64)
        if exclude is not None:
            activity = np.where(exclude, 0.0, activity)
        loads = np.bincount(
            dimm_of, weights=activity, minlength=self.num_dimms
        )
        return self._rebalance_pairs(layer, dimm_of, activity, loads)

    def _rebalance_pairs(
        self,
        layer: int,
        dimm_of: np.ndarray,
        activity: np.ndarray,
        loads: np.ndarray,
    ) -> RemapResult:
        """Pair heaviest/lightest DIMMs and drain each pair (lines 2-6)."""
        result = RemapResult()
        order = np.argsort(loads)[::-1]  # heaviest first (line 2)
        for pos in range(self.num_dimms // 2):
            heavy = int(order[pos])
            light = int(order[self.num_dimms - 1 - pos])
            if loads[heavy] <= loads[light]:
                # already balanced: any positive move would overshoot, so
                # the drain loop could only break on its first candidate
                continue
            moved = self._drain_pair(
                layer, dimm_of, activity, loads, heavy, light
            )
            result.merge(moved)
        return result

    def _drain_pair(
        self,
        layer: int,
        dimm_of: np.ndarray,
        activity: np.ndarray,
        loads: np.ndarray,
        heavy: int,
        light: int,
    ) -> RemapResult:
        """Move hottest groups heavy -> light while the pair max shrinks
        (Algorithm 1 lines 3-6).

        The greedy scan is closed-form: every quantity is an
        integer-valued float64 (windowed activation counts), so the
        prefix arithmetic reproduces the sequential move-by-move loop
        it replaced exactly — including its two stopping rules (first
        inactive group, first move that would overshoot the balance
        point).
        """
        result = RemapResult()
        members = (dimm_of == heavy).nonzero()[0]
        if members.size == 0:
            return result
        act = activity[members]
        amax = act.max()
        # The hottest candidate is probed first, so if even it cannot
        # move — inactive, or the move would overshoot the balance point
        # — the greedy scan stops with nothing moved.  That is the
        # common near-balanced outcome; bail before the argsort.
        if amax <= 0 or loads[heavy] - amax < loads[light] + amax:
            return result
        order = np.argsort(act)[::-1]
        members = members[order]
        hot = act[order]
        # the greedy loop stops at the first inactive group: activity
        # counts are non-negative, so the active ones lead the order
        n_pos = int(np.count_nonzero(act))
        hot = hot[:n_pos]
        drained = np.cumsum(hot)
        before = drained - hot  # load already moved when each probe runs
        # moving group i still helps while (H - before_i) - a_i >=
        # (L + before_i) + a_i, i.e. while it reduces max(heavy, light)
        ok = loads[heavy] - loads[light] - 2.0 * before - 2.0 * hot >= 0.0
        moved_n = n_pos if ok.all() else int(np.argmin(ok))
        if moved_n == 0:
            return result
        moved = members[:moved_n]
        dimm_of[moved] = light
        total = float(drained[moved_n - 1])
        loads[heavy] -= total
        loads[light] += total
        moved_bytes = int(self.layout.group_bytes[moved].sum())
        result.moved_groups = moved_n
        result.moved_bytes = moved_bytes
        result.pair_bytes[(heavy, light)] = moved_bytes
        return result

    # ------------------------------------------------------------------
    def rebalance_all(self, dimm_of, *, exclude=None,
                      keys: np.ndarray | None = None) -> RemapResult:
        """Rebalance every layer and reset the window.

        ``dimm_of`` and ``exclude`` may be per-layer lists or dense
        (num_layers, groups) matrices.  The list form runs
        :meth:`rebalance_layer` per layer and is the reference.  The
        matrix form equals it in one pass: one flat segmented bincount
        gives every layer's per-DIMM loads, one scatter-max each DIMM's
        hottest member, and one row-wise ``argsort`` pairs every layer's
        DIMMs.  Both first-probe exits of every pair — already balanced,
        or its hottest member inactive or overshooting — are array
        comparisons, and only pairs that move reach :meth:`_drain_pair`.
        A layer's pairs are disjoint, so no drain changes the loads
        another pair's check reads.  ``keys`` optionally supplies the
        flattened ``layer * num_dimms + dimm_of`` bin keys — a caller
        that tracks remaps (the engine, via the partition's
        ``remap_version``) can cache them between moves.
        """
        total = RemapResult()
        if isinstance(dimm_of, np.ndarray) and dimm_of.ndim == 2 \
                and self.num_dimms > 1:
            num_layers = dimm_of.shape[0]
            n_dimms = self.num_dimms
            if exclude is None:
                activity = self._activity_matrix.astype(np.float64)
            else:
                ex = (exclude if isinstance(exclude, np.ndarray)
                      else np.stack(list(exclude)))
                activity = np.where(ex, 0.0, self._activity_matrix)
            if keys is None:
                keys = dimm_of + np.arange(num_layers)[:, None] * n_dimms
            flat_keys = keys.ravel()
            loads = np.bincount(
                flat_keys, weights=activity.ravel(),
                minlength=num_layers * n_dimms,
            ).reshape(num_layers, n_dimms)
            peak = np.zeros(num_layers * n_dimms)
            np.maximum.at(peak, flat_keys, activity.ravel())
            peak = peak.reshape(num_layers, n_dimms)
            # rows equal the per-layer sort; pair pos matches the
            # pos-th heaviest DIMM with the pos-th lightest (line 2)
            order = np.argsort(loads, axis=1)
            light = order[:, :n_dimms // 2]
            heavy = order[:, ::-1][:, :n_dimms // 2]
            rows = np.arange(num_layers)[:, None]
            h_load = loads[rows, heavy]
            l_load = loads[rows, light]
            amax = peak[rows, heavy]
            moves = (h_load > l_load) & (amax > 0) \
                & ~(h_load - amax < l_load + amax)
            for l, pos in zip(*np.nonzero(moves)):
                total.merge(self._drain_pair(
                    l, dimm_of[l], activity[l], loads[l],
                    int(heavy[l, pos]), int(light[l, pos])))
        else:
            rows = list(dimm_of)
            for l in range(len(rows)):
                mask = exclude[l] if exclude is not None else None
                total.merge(self.rebalance_layer(l, rows[l], exclude=mask))
        self.reset_window()
        return total
