"""Calibrated synthetic activation-trace generator.

The generator reproduces the three measured statistics the paper's
mechanisms exploit, so that every Hermes component exercises the same code
path it would against recorded activations:

1. **Power-law frequency** (§III-A): per-group activation probabilities from
   :func:`repro.sparsity.frequencies.power_law_frequencies` — 20 % of
   neurons carry ~80 % of activations.
2. **Token-wise similarity** (Fig. 4a): a per-neuron Markov chain keeps the
   previous token's state with probability ``kappa`` and resamples from the
   base frequency otherwise, giving similarity that decays geometrically
   with token distance and plateaus at the stationary overlap — the same
   shape as Fig. 4a.
3. **Layer-wise correlation** (Fig. 4b): each group in layer ``l`` copies
   its rank-matched parent in layer ``l-1`` with probability ``gamma``,
   making P(child | parent) = gamma + (1-gamma)·p — the >90 % conditional
   probabilities of Fig. 4b.

Two non-stationarities make the *online* machinery earn its keep, matching
the paper's measurements:

* ``phase_shift`` — at the prefill/decode boundary a fraction of neurons
  swap activation probabilities with a partner, reproducing the finding
  that ~52 % of offline-initialised hot neurons change activity during
  inference (§III-B).
* ``drift_rate`` — during decode a small fraction of neurons swap
  probabilities every token, so the hot set keeps evolving and a fixed
  partition decays over time (the 1.63x oracle gap of §III-B).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..models import ModelSpec
from .frequencies import power_law_frequencies
from .layout import NeuronLayout
from .trace import ActivationTrace


@dataclasses.dataclass(frozen=True)
class TraceConfig:
    """Knobs of the synthetic activation process."""

    prompt_len: int = 128
    decode_len: int = 128
    granularity: int = 32
    #: probability a neuron keeps its previous-token state
    kappa: float = 0.96
    #: probability a group copies its layer-(l-1) parent
    gamma: float = 0.15
    #: fraction of neurons whose frequency is swapped at the decode boundary
    phase_shift: float = 0.25
    #: per-token fraction of neurons whose frequency swaps during decode
    drift_rate: float = 0.0015
    hot_fraction: float = 0.2
    hot_share: float = 0.8
    #: overrides the model's activation_density when set
    density: float | None = None

    def __post_init__(self) -> None:
        if self.prompt_len < 1 or self.decode_len < 1:
            raise ValueError("prompt_len and decode_len must be >= 1")
        if self.granularity < 1:
            raise ValueError("granularity must be >= 1")
        for name in ("kappa", "gamma", "phase_shift", "drift_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.density is not None and not 0.0 < self.density < 1.0:
            raise ValueError("density must lie in (0, 1)")

    @property
    def n_tokens(self) -> int:
        return self.prompt_len + self.decode_len


def _rank_matched_parents(
    p_prev: np.ndarray, p_cur: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Top-2 parent groups in the previous layer for each current group.

    Parents are rank-matched (the i-th most active child maps to the i-th
    and (i+1)-th most active parents) so copying a parent preserves the
    marginal frequency while creating strong conditional correlation.
    """
    order_prev = np.argsort(p_prev)[::-1]
    order_cur = np.argsort(p_cur)[::-1]
    n_prev, n_cur = p_prev.size, p_cur.size
    parents = np.empty((n_cur, 2), dtype=np.int64)
    scale = n_prev / n_cur
    for rank_cur, child in enumerate(order_cur):
        rank_prev = min(int(rank_cur * scale), n_prev - 1)
        parents[child, 0] = order_prev[rank_prev]
        parents[child, 1] = order_prev[(rank_prev + 1) % n_prev]
    return parents


def _swap_identities(
    position: np.ndarray, fraction: float, rng: np.random.Generator
) -> None:
    """Swap the *physical position* of a random ``fraction`` of logical
    neurons with disjoint random partners, in place.

    The underlying logical activation process is stationary; context
    switches and drift only permute which physical neuron plays which
    logical role.  This preserves the frequency distribution and — because
    layer correlation lives in logical space — the parent-child structure,
    while making the physical hot set move, which is exactly the
    non-stationarity Hermes' online machinery must track (and exactly why
    the offline-sampled correlation table slowly goes stale, §V-C).
    """
    n = position.size
    k = int(round(fraction * n))
    if k == 0:
        return
    k = min(k, n // 2)
    chosen = rng.choice(n, size=2 * k, replace=False)
    movers, partners = chosen[:k], chosen[k:]
    position[movers], position[partners] = (
        position[partners].copy(), position[movers].copy()
    )


def generate_trace(
    model: ModelSpec, config: TraceConfig | None = None, *, seed: int = 0
) -> ActivationTrace:
    """Generate a full prefill+decode activation trace for ``model``."""
    config = config or TraceConfig()
    rng = np.random.default_rng(seed)
    layout = NeuronLayout.build(model, config.granularity)
    density = config.density or model.activation_density
    n_groups = layout.groups_per_layer
    n_tokens = config.n_tokens

    base_freqs = [
        power_law_frequencies(
            n_groups, density, hot_fraction=config.hot_fraction,
            hot_share=config.hot_share, rng=rng)
        for _ in range(model.num_layers)
    ]
    logical_parents: list[np.ndarray | None] = [None]
    for l in range(1, model.num_layers):
        logical_parents.append(
            _rank_matched_parents(base_freqs[l - 1], base_freqs[l], rng)
        )

    activations = np.zeros((n_tokens, model.num_layers, n_groups),
                           dtype=bool)
    # physical position of each logical neuron, permuted by context
    # switches (phase_shift) and slow drift; logical dynamics stay
    # stationary
    positions = [np.arange(n_groups) for _ in range(model.num_layers)]
    logical_rows = [
        np.zeros(n_groups, dtype=bool) for _ in range(model.num_layers)
    ]

    # record the *initial* physical parent table — what an offline
    # profiler would sample before inference starts
    parents: list[np.ndarray | None] = [None]
    for l in range(1, model.num_layers):
        phys = np.empty((n_groups, 2), dtype=np.int64)
        phys[positions[l]] = positions[l - 1][logical_parents[l]]
        parents.append(phys)

    for t in range(n_tokens):
        if t == config.prompt_len:
            for pos in positions:
                _swap_identities(pos, config.phase_shift, rng)
        elif t > config.prompt_len and config.drift_rate > 0:
            for pos in positions:
                _swap_identities(pos, config.drift_rate, rng)
        prev_logical: np.ndarray | None = None
        for l in range(model.num_layers):
            p = base_freqs[l]
            fresh = rng.random(n_groups) < p
            if t == 0:
                own = fresh
            else:
                keep = rng.random(n_groups) < config.kappa
                own = np.where(keep, logical_rows[l], fresh)
            if l > 0 and config.gamma > 0 and prev_logical is not None:
                copy_mask = rng.random(n_groups) < config.gamma
                row = np.where(
                    copy_mask, prev_logical[logical_parents[l][:, 0]], own
                )
            else:
                row = own
            logical_rows[l] = row
            activations[t, l, positions[l]] = row
            prev_logical = row

    return ActivationTrace(
        layout=layout,
        activations=activations,
        parents=parents,
        prompt_len=config.prompt_len,
        seed=seed,
    )
