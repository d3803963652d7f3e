"""Trace statistics: the measurements behind the paper's Figures 4 and the
motivation numbers of §III.

These functions operate on :class:`~repro.sparsity.trace.ActivationTrace`
objects and regenerate, from the synthetic substrate, the distribution
patterns the paper measured on real models:

* token-wise similarity vs token distance (Fig. 4a),
* layer-wise conditional activation probability (Fig. 4b),
* the 20 %/80 % hot/cold computation shares (§I),
* hot-set churn between prefill and decode (the "~52 % of initialised hot
  neurons vary" statistic, §III-B),
* per-DIMM load imbalance under a fixed placement (§III-C).
"""

from __future__ import annotations

import numpy as np

from .trace import ActivationTrace


def jaccard_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard similarity of two boolean activation vectors."""
    if a.shape != b.shape:
        raise ValueError("activation vectors must have equal shape")
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def token_similarity_curve(
    trace: ActivationTrace, max_distance: int = 50, *, layer_stride: int = 1
) -> np.ndarray:
    """Mean activation-state similarity as a function of token distance.

    Similarity is the Jaccard overlap of the activated sets, averaged over
    decode-token pairs and layers; with the bimodal always-on head of the
    calibrated frequency distribution this reproduces Fig. 4a's >90 %
    adjacent similarity decaying to a ~70 % plateau.
    """
    if max_distance < 1:
        raise ValueError("max_distance must be >= 1")
    start = trace.prompt_len
    n = trace.n_tokens
    if n - start < 2:
        raise ValueError("trace too short for similarity analysis")
    curve = np.zeros(max_distance + 1)
    curve[0] = 1.0
    for d in range(1, max_distance + 1):
        sims = []
        for l in range(0, trace.num_layers, layer_stride):
            matrix = trace.activations[start:, l]
            if matrix.shape[0] <= d:
                continue
            a, b = matrix[:-d], matrix[d:]
            inter = np.logical_and(a, b).sum(axis=1)
            union = np.logical_or(a, b).sum(axis=1)
            valid = union > 0
            if valid.any():
                sims.append(float((inter[valid] / union[valid]).mean()))
        curve[d] = float(np.mean(sims)) if sims else np.nan
    return curve


def layer_correlation(trace: ActivationTrace, layer: int) -> np.ndarray:
    """P(group g active in ``layer`` | its top parent active in layer-1).

    Uses the trace's recorded parent structure; reproduces the >90 %
    conditional probabilities of Fig. 4b.
    """
    if layer <= 0 or layer >= trace.num_layers:
        raise ValueError("layer must be an inner layer (>= 1)")
    parents = trace.parents[layer]
    if parents is None:
        raise ValueError("trace lacks parent structure for this layer")
    child = trace.activations[:, layer]
    parent_active = trace.activations[:, layer - 1, parents[:, 0]]
    counts = parent_active.sum(axis=0)
    joint = np.logical_and(child, parent_active).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(counts > 0, joint / np.maximum(counts, 1), np.nan)
    return cond


def hot_cold_computation_share(
    trace: ActivationTrace,
    hot_fraction: float = 0.2,
    *,
    tokens: slice | None = None,
) -> float:
    """Share of total activations carried by the hottest ``hot_fraction``
    of groups (averaged over layers) — the 20 %/80 % statistic.

    Measured over the prefill window by default: the statistic describes
    the *instantaneous* frequency distribution, and measuring across the
    whole trace would smear it through the drift non-stationarity.
    """
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError("hot_fraction must lie in (0, 1]")
    if tokens is None:
        tokens = slice(0, max(1, trace.prompt_len))
    shares = []
    for l in range(trace.num_layers):
        freq = trace.frequencies(l, tokens=tokens)
        k = max(1, int(round(hot_fraction * freq.size)))
        top = np.sort(freq)[::-1][:k]
        total = freq.sum()
        if total > 0:
            shares.append(float(top.sum() / total))
    return float(np.mean(shares))


def hot_set_churn(trace: ActivationTrace, hot_fraction: float = 0.2) -> float:
    """Fraction of prefill-hot groups that change activity rank in decode.

    A group counts as "varied" when it leaves the hot set between the
    prefill-profiled ranking and the decode-measured ranking; the paper
    reports ~52 % for LLaMA2-70B (§III-B).
    """
    if not 0.0 < hot_fraction < 1.0:
        raise ValueError("hot_fraction must lie in (0, 1)")
    churned = []
    # Compare against the *final* stretch of decode: churn accumulates
    # through the phase shift and the per-token drift, and the paper's
    # statistic asks whether an initialised-hot neuron ever varies, not
    # whether it varies on average.
    tail = max(8, (trace.n_tokens - trace.prompt_len) // 4)
    decode = slice(trace.n_tokens - tail, trace.n_tokens)
    for l in range(trace.num_layers):
        pre = trace.prefill_frequencies(l)
        post = trace.frequencies(l, tokens=decode)
        k = max(1, int(round(hot_fraction * pre.size)))
        hot_pre = set(np.argsort(pre)[::-1][:k].tolist())
        hot_post = set(np.argsort(post)[::-1][:k].tolist())
        churned.append(len(hot_pre - hot_post) / k)
    return float(np.mean(churned))


def dimm_load_imbalance(
    trace: ActivationTrace,
    placement: np.ndarray,
    layer: int,
    *,
    window: int | None = None,
) -> float:
    """Max/mean activated-group load ratio across DIMMs for one layer.

    ``placement`` assigns each group of ``layer`` to a DIMM id (or -1 for
    GPU-resident groups, which are excluded).  With a fixed placement the
    paper measures the busiest DIMM at 1.2-2.5x the others (§III-C).
    """
    matrix = trace.activations[trace.prompt_len:, layer]
    if window is not None:
        if window < 1:
            raise ValueError("window must be >= 1")
        matrix = matrix[:window]
    if placement.shape != (trace.layout.groups_per_layer,):
        raise ValueError("placement must cover every group of the layer")
    n_dimms = int(placement.max()) + 1
    if n_dimms < 1:
        raise ValueError("placement assigns no groups to DIMMs")
    loads = np.zeros(n_dimms)
    for d in range(n_dimms):
        mask = placement == d
        loads[d] = matrix[:, mask].sum()
    mean = loads.mean()
    if mean == 0:
        return 1.0
    return float(loads.max() / mean)
