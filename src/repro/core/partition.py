"""Offline neuron mapping (paper §IV-B).

Decides, before inference starts, (a) which neuron groups are replicated
into GPU memory as the initial *hot* set and (b) which NDP-DIMM stores (and
therefore computes) each group.  The paper formalises this as an ILP
(Equations 1-7) solved with PuLP; PuLP is unavailable offline, so this
module provides:

* ``strategy="ilp"`` — the LP relaxation of Equations 1-7 solved with
  ``scipy.optimize.linprog`` (HiGHS) followed by deterministic rounding.
  The relaxation keeps the exact objective (sum over layers of the max of
  the GPU path and the balanced-DIMM path) and the exact GPU capacity
  constraint; only the per-DIMM max is relaxed to the balanced mean, which
  the separate DIMM assignment step then re-establishes.
* ``strategy="greedy"`` — globally hottest-first GPU fill (the per-byte
  benefit of GPU residency is proportional to activation frequency, so the
  greedy order is the exact LP rounding order; it differs from the LP only
  when per-layer balance binds).  Scales to 70B-class models in
  milliseconds.
* ``strategy="random"`` — the Hermes-random ablation baseline of Fig. 13.

DIMM storage assignment uses longest-processing-time (LPT) greedy packing
of expected per-layer load, respecting per-DIMM capacity — the classic
4/3-approximation for makespan, refined online by Algorithm 1.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..sparsity import NeuronLayout


@dataclasses.dataclass(frozen=True)
class PartitionCosts:
    """Per-byte execution rates used by the offline solver (Eq. 4-5)."""

    gpu_seconds_per_byte: float
    dimm_seconds_per_byte: float
    sync_seconds: float
    num_dimms: int
    gpu_budget_bytes: int
    dimm_capacity_bytes: int

    def __post_init__(self) -> None:
        if self.gpu_seconds_per_byte <= 0 or self.dimm_seconds_per_byte <= 0:
            raise ValueError("execution rates must be positive")
        if self.sync_seconds < 0:
            raise ValueError("sync_seconds must be non-negative")
        if self.num_dimms < 1:
            raise ValueError("num_dimms must be >= 1")
        if self.gpu_budget_bytes < 0:
            raise ValueError("gpu_budget_bytes must be non-negative")
        if self.dimm_capacity_bytes <= 0:
            raise ValueError("dimm_capacity_bytes must be positive")


@dataclasses.dataclass
class OfflinePartition:
    """The solved initial mapping.

    ``hot_masks`` is the (num_layers, groups) boolean matrix of groups
    replicated in GPU memory; ``dimm_of`` the (num_layers, groups)
    matrix of the DIMM that stores *every* group (all weights live on
    DIMMs — hot groups are copies, so swapping a hot neuron out is a free
    overwrite, §IV-C2).  The window scheduler remaps ``dimm_of`` in
    place.
    """

    hot_masks: np.ndarray
    dimm_of: np.ndarray
    strategy: str

    def gpu_bytes(self, layout: NeuronLayout) -> int:
        return int((self.hot_masks * layout.group_bytes).sum())

    def validate(self, layout: NeuronLayout, costs: PartitionCosts) -> None:
        """Assert capacity constraints (Eq. 6-7) hold."""
        if self.gpu_bytes(layout) > costs.gpu_budget_bytes:
            raise ValueError("GPU capacity constraint violated")
        per_dimm = np.zeros(costs.num_dimms)
        for assignment in self.dimm_of:
            for d in range(costs.num_dimms):
                per_dimm[d] += layout.group_bytes[assignment == d].sum()
        if (per_dimm > costs.dimm_capacity_bytes).any():
            raise ValueError("DIMM capacity constraint violated")


# ----------------------------------------------------------------------
# hot/cold split
# ----------------------------------------------------------------------
def gpu_mass_share(costs: PartitionCosts) -> float:
    """Optimal fraction of *activated mass* to place on the GPU.

    GPU and the DIMM pool execute a layer concurrently (Eq. 1-3), so the
    per-layer makespan is minimised when the two sides finish together:
    ``A_gpu * r_gpu = A_dimm * r_dimm / J``, giving the GPU the share
    below.  The rates are batch-aware, so the share grows as batching
    pushes the NDP cores compute-bound (which is why large-batch Hermes
    leans harder on the GPU, §V-B2).
    """
    pool_rate = costs.dimm_seconds_per_byte / costs.num_dimms
    return pool_rate / (costs.gpu_seconds_per_byte + pool_rate)


def _greedy_hot_masks(
    frequencies: list[np.ndarray], layout: NeuronLayout, costs: PartitionCosts
) -> np.ndarray:
    """Rate-balanced water-filling, hottest groups first.

    Groups are taken in global frequency order; a group joins the hot set
    while (a) GPU capacity remains and (b) its layer's accumulated
    expected activated mass is still below the balance target of
    :func:`gpu_mass_share` — filling past the balance point would make
    the GPU the bottleneck while NDP cores idle.
    """
    num_layers = len(frequencies)
    g = layout.groups_per_layer
    scores = np.concatenate(frequencies)
    order = np.argsort(scores)[::-1]
    flat_bytes = np.tile(layout.group_bytes, num_layers)
    flat_mass = scores * flat_bytes
    share = gpu_mass_share(costs)
    target = [share * float((frequencies[l] * layout.group_bytes).sum())
              for l in range(num_layers)]
    taken = [0.0] * num_layers
    selected = np.zeros(scores.size, dtype=bool)
    budget = costs.gpu_budget_bytes
    for idx in order:
        layer = idx // g
        if taken[layer] >= target[layer]:
            continue
        b = flat_bytes[idx]
        if b <= budget:
            selected[idx] = True
            budget -= b
            taken[layer] += float(flat_mass[idx])
    return selected.reshape(num_layers, g)


def _random_hot_masks(
    frequencies: list[np.ndarray],
    layout: NeuronLayout,
    costs: PartitionCosts,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random GPU fill (the Hermes-random ablation)."""
    num_layers = len(frequencies)
    g = layout.groups_per_layer
    order = rng.permutation(num_layers * g)
    flat_bytes = np.tile(layout.group_bytes, num_layers)
    selected = np.zeros(num_layers * g, dtype=bool)
    budget = costs.gpu_budget_bytes
    for idx in order:
        b = flat_bytes[idx]
        if b <= budget:
            selected[idx] = True
            budget -= b
    return selected.reshape(num_layers, g)


def _lp_hot_masks(
    frequencies: list[np.ndarray], layout: NeuronLayout, costs: PartitionCosts
) -> np.ndarray:
    """LP relaxation of Eq. 1-7 (HiGHS) + deterministic rounding.

    Variables: x[l,i] in [0,1] (GPU placement) and one makespan m_l per
    layer.  Objective: sum_l m_l.  Constraints:

    * m_l >= 2*Tsync + sum_i f_i c_i^GPU x_li          (Eq. 3-4)
    * m_l >= sum_i f_i c_i^DIMM (1 - x_li) / J          (Eq. 2-5, balanced)
    * sum_{l,i} M_i x_li <= S_GPU                       (Eq. 6)
    """
    from scipy.optimize import linprog

    num_layers = len(frequencies)
    g = layout.groups_per_layer
    n_x = num_layers * g
    n_vars = n_x + num_layers

    cost = np.zeros(n_vars)
    cost[n_x:] = 1.0  # minimise sum of per-layer makespans

    rows_a, rows_b = [], []
    gpu_rate = costs.gpu_seconds_per_byte
    dimm_rate = costs.dimm_seconds_per_byte / costs.num_dimms
    for l, freq in enumerate(frequencies):
        load_gpu = freq * layout.group_bytes * gpu_rate
        load_dimm = freq * layout.group_bytes * dimm_rate
        # GPU path: sum_i load_gpu_i x_i - m_l <= -2 Tsync
        row = np.zeros(n_vars)
        row[l * g:(l + 1) * g] = load_gpu
        row[n_x + l] = -1.0
        rows_a.append(row)
        rows_b.append(-2.0 * costs.sync_seconds)
        # DIMM path: -sum_i load_dimm_i x_i - m_l <= -sum_i load_dimm_i
        row = np.zeros(n_vars)
        row[l * g:(l + 1) * g] = -load_dimm
        row[n_x + l] = -1.0
        rows_a.append(row)
        rows_b.append(-float(load_dimm.sum()))
    # capacity
    row = np.zeros(n_vars)
    row[:n_x] = np.tile(layout.group_bytes, num_layers)
    rows_a.append(row)
    rows_b.append(float(costs.gpu_budget_bytes))

    bounds = [(0.0, 1.0)] * n_x + [(0.0, None)] * num_layers
    result = linprog(
        cost,
        A_ub=np.array(rows_a),
        b_ub=np.array(rows_b),
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP solve failed: {result.message}")
    x = result.x[:n_x]
    # deterministic rounding: keep fractional placements in LP-value order
    order = np.argsort(x)[::-1]
    flat_bytes = np.tile(layout.group_bytes, num_layers)
    selected = np.zeros(n_x, dtype=bool)
    budget = costs.gpu_budget_bytes
    for idx in order:
        if x[idx] <= 1e-6:
            break
        b = flat_bytes[idx]
        if b <= budget:
            selected[idx] = True
            budget -= b
    return selected.reshape(num_layers, g)


# ----------------------------------------------------------------------
# DIMM storage assignment
# ----------------------------------------------------------------------
def assign_dimms(frequencies: list[np.ndarray], hot_masks: np.ndarray,
                 layout: NeuronLayout, costs: PartitionCosts, *,
                 balanced: bool = True) -> np.ndarray:
    """Assign every group of every layer to a DIMM: the (num_layers,
    groups) matrix of owning DIMMs.

    ``balanced=True`` packs by LPT on expected *cold* load per layer (hot
    groups contribute storage but negligible NDP load, since they execute
    on the GPU); ``balanced=False`` assigns round-robin by index, the naive
    placement whose imbalance §III-C measures.
    """
    num_dimms = costs.num_dimms
    capacity = np.full(num_dimms, float(costs.dimm_capacity_bytes))
    assignments = np.empty((len(frequencies), layout.groups_per_layer),
                           dtype=np.int64)
    for l, freq in enumerate(frequencies):
        load = freq * layout.group_bytes
        load = np.where(hot_masks[l], 0.0, load)
        dimm_of = assignments[l]
        dimm_load = np.zeros(num_dimms)
        dimm_bytes = np.zeros(num_dimms)
        if balanced:
            order = np.argsort(load)[::-1]
        else:
            order = np.arange(layout.groups_per_layer)
        for rank, idx in enumerate(order):
            b = float(layout.group_bytes[idx])
            if balanced:
                if load[idx] > 0:
                    # least-loaded DIMM with room (LPT)
                    candidates = np.lexsort((dimm_bytes, dimm_load))
                else:
                    # zero-expected-load groups spread by byte balance:
                    # identity churn may make them hot later, so they must
                    # not be concentrated on one module
                    candidates = np.argsort(dimm_bytes)
            else:
                candidates = [(rank % num_dimms + k) % num_dimms
                              for k in range(num_dimms)]
            for d in candidates:
                if capacity[d] >= b:
                    dimm_of[idx] = d
                    dimm_load[d] += load[idx]
                    dimm_bytes[d] += b
                    capacity[d] -= b
                    break
            else:
                raise ValueError(
                    f"layer {l}: DIMM pool too small for the model"
                )
    return assignments


# ----------------------------------------------------------------------
# public entry point
# ----------------------------------------------------------------------
def solve_partition(frequencies: list[np.ndarray], layout: NeuronLayout,
                    costs: PartitionCosts, *, strategy: str = "greedy",
                    seed: int = 0) -> OfflinePartition:
    """Solve the offline neuron mapping from profiled frequencies.

    ``frequencies[l]`` is the profiled activation frequency of each group
    in layer ``l`` (the paper profiles 128 samples of C4/Pile; the engine
    passes prefill-window frequencies).  The random strategy also places
    groups on DIMMs round-robin; the others pack them by LPT.
    """
    if len(frequencies) != layout.model.num_layers:
        raise ValueError("one frequency vector per layer required")
    for freq in frequencies:
        if freq.shape != (layout.groups_per_layer,):
            raise ValueError("frequency vector has wrong shape")
        if (freq < 0).any() or (freq > 1).any():
            raise ValueError("frequencies must lie in [0, 1]")
    if strategy == "greedy":
        hot = _greedy_hot_masks(frequencies, layout, costs)
    elif strategy == "ilp":
        hot = _lp_hot_masks(frequencies, layout, costs)
    elif strategy == "random":
        hot = _random_hot_masks(frequencies, layout, costs,
                                np.random.default_rng(seed))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    dimm_of = assign_dimms(frequencies, hot, layout, costs,
                           balanced=strategy != "random")
    partition = OfflinePartition(
        hot_masks=hot, dimm_of=dimm_of, strategy=strategy
    )
    partition.validate(layout, costs)
    return partition
