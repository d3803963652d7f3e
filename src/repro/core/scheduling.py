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
charges any overflow.  The scheduler keeps one (num_layers, groups)
activity matrix, and one :meth:`WindowScheduler.rebalance_all` pairs
every layer's DIMMs at once.  It mutates the partition's (num_layers,
groups) ``dimm_of`` matrix in place — the mapping is live state, exactly
as in the paper.
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
        #: (num_layers, groups) windowed activation counts
        self._activity = np.zeros(
            (layout.model.num_layers, layout.groups_per_layer),
            dtype=np.int64)
        self._tokens_seen = 0

    # ------------------------------------------------------------------
    def observe_token(self, activations: np.ndarray) -> None:
        """Accumulate one token's (num_layers, groups) activation matrix
        into the window."""
        if activations.shape != self._activity.shape:
            raise ValueError("one activation mask per layer required")
        self._activity += activations
        self._tokens_seen += 1

    @property
    def window_full(self) -> bool:
        return self._tokens_seen >= self.window

    def reset_window(self) -> None:
        self._activity[:] = 0
        self._tokens_seen = 0

    # ------------------------------------------------------------------
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
    def rebalance_all(self, dimm_of: np.ndarray, *,
                      exclude: np.ndarray | None = None,
                      keys: np.ndarray | None = None) -> RemapResult:
        """Algorithm 1 for every layer; mutates the (num_layers, groups)
        ``dimm_of`` matrix in place and resets the window.

        ``exclude`` masks GPU-resident groups, whose compute does not
        land on the DIMMs.  One flat segmented bincount gives every
        layer's per-DIMM loads (line 1), one scatter-max each DIMM's
        hottest member, and one row-wise ``argsort`` pairs every layer's
        DIMMs (line 2).  Both first-probe exits of every pair — already
        balanced, or its hottest member inactive or overshooting — are
        array comparisons, and only pairs that move reach
        :meth:`_drain_pair` (lines 3-6).  A layer's pairs are disjoint,
        so no drain changes the loads another pair's check reads.
        ``keys`` optionally supplies the ``layer * num_dimms + dimm_of``
        bin keys, which a caller can keep until a rebalance moves groups.
        """
        total = RemapResult()
        if self.num_dimms > 1:
            num_layers = dimm_of.shape[0]
            n_dimms = self.num_dimms
            if exclude is None:
                activity = self._activity.astype(np.float64)
            else:
                activity = np.where(exclude, 0.0, self._activity)
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
            # pair pos matches the pos-th heaviest DIMM with the pos-th
            # lightest (line 2)
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
        self.reset_window()
        return total
