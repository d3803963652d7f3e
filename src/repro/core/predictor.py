"""The lightweight online activation predictor (paper §IV-C1).

Replaces the expensive per-layer MLP predictors of Deja Vu/PowerInfer
(2 GB of weights, 10-25 % of runtime for LLaMA-7B) with two tiny tables:

* **Neuron state table** — a 4-bit saturating counter per neuron, the
  branch-predictor trick applied to activation locality.  Initialised from
  prefill activation frequencies (16 linear stages); on every decode step an
  activated neuron's state rises by ``S_UP`` (paper: 4) and an inactive
  neuron's falls by ``S_DOWN`` (paper: 1).
* **Neuron correlation table** — the top-2 most correlated predecessor
  neurons in the previous layer, sampled offline from profiling data.

A neuron is predicted active when ``s1 + lambda * s2 > T`` with ``s1`` its
state, ``s2`` the number of its correlated predecessors that fired in the
previous layer this token, ``lambda = 6`` and ``T = 15`` (paper values).
Neurons with state above the engine's ``hot_threshold = 10`` are classified
*hot* and become candidates for GPU residency (§IV-C2).

For LLaMA-7B the state table is 232 KB (4 bits x 32 layers x 14.8 K
neurons), matching the paper's footprint claim; the table sizes are exposed
so tests can assert them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..sparsity import ActivationTrace, NeuronLayout

STATE_MAX = 15
STATE_BITS = 4
#: state step of an activated group and of an inactive one (paper values)
S_UP = 4
S_DOWN = 1
#: a group fires when ``s1 + LAMBDA * s2 >= THRESHOLD`` (paper values)
LAMBDA = 6.0
THRESHOLD = 15.0


@dataclasses.dataclass(frozen=True)
class PredictorConfig:
    """Which halves of the combined predictor run (both by default)."""

    use_token_prediction: bool = True
    use_layer_prediction: bool = True

    def __post_init__(self) -> None:
        if not (self.use_token_prediction or self.use_layer_prediction):
            raise ValueError("at least one prediction mode must be enabled")


class CorrelationTable:
    """Top-2 correlated predecessor groups per layer (offline profiled)."""

    def __init__(self, parents: list[np.ndarray | None]) -> None:
        self.parents = parents

    @classmethod
    def from_profiling(cls, trace: ActivationTrace) -> "CorrelationTable":
        """The offline-profiled table (paper: sampled over 128 C4/Pile
        samples, §IV-B/C).

        A single trace cannot stand in for a large independent profiling
        corpus, so this uses the correlation structure the trace recorded
        at initialisation time — the information an ideal offline profiler
        would have extracted.  Crucially it is a *snapshot*: as neuron
        identities drift during decode the table goes stale, reproducing
        the paper's observation that the static sampled table limits
        layer-only prediction (§V-C).
        """
        parents = [None if p is None else p.copy() for p in trace.parents]
        return cls(parents)

    def table_bytes(self) -> int:
        """Storage footprint of the correlation table (2-byte indices)."""
        return 2 * sum(table.size for table in self.parents
                       if table is not None)


@dataclasses.dataclass
class PredictionStats:
    """Running accuracy counters (predicted vs ground-truth activations)."""

    true_positive: int = 0
    false_positive: int = 0
    true_negative: int = 0
    false_negative: int = 0

    def update(self, predicted: np.ndarray, actual: np.ndarray) -> None:
        # Three count_nonzero passes instead of four logical_and+sum
        # temporaries; the derived counts are the same integers.
        tp = int(np.count_nonzero(predicted & actual))
        n_pred = int(np.count_nonzero(predicted))
        n_act = int(np.count_nonzero(actual))
        self.true_positive += tp
        self.false_positive += n_pred - tp
        self.false_negative += n_act - tp
        self.true_negative += predicted.size - n_pred - n_act + tp

    @property
    def total(self) -> int:
        return (self.true_positive + self.false_positive
                + self.true_negative + self.false_negative)

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            raise ValueError("no predictions recorded")
        return (self.true_positive + self.true_negative) / self.total

    @property
    def recall(self) -> float:
        actual = self.true_positive + self.false_negative
        if actual == 0:
            return 1.0
        return self.true_positive / actual

    @property
    def precision(self) -> float:
        predicted = self.true_positive + self.false_positive
        if predicted == 0:
            return 1.0
        return self.true_positive / predicted


class ActivationPredictor:
    """Combined token-wise + layer-wise activation predictor."""

    def __init__(
        self, layout: NeuronLayout, config: PredictorConfig | None = None
    ) -> None:
        self.layout = layout
        self.config = config or PredictorConfig()
        self.num_layers = layout.model.num_layers
        # The (num_layers, groups) state table.  int16 working dtype: the
        # 4-bit counters fit comfortably, and the decode hot path can
        # update them without the int8 -> int16 -> int8 round-trip a
        # saturating update would otherwise need.  The modelled hardware
        # footprint stays 4 bits (:meth:`state_table_bytes`).
        self.states = np.zeros(
            (self.num_layers, layout.groups_per_layer), dtype=np.int16)
        self.correlation: CorrelationTable | None = None
        self._parents_stack: tuple[np.ndarray, np.ndarray,
                                   np.ndarray] | None = None
        self.stats = PredictionStats()
        #: least state that fires, indexed by the parent count 0..2
        #: (``STATE_MAX + 1`` where none does): the prediction rule of
        #: :meth:`predict_all` evaluated on float64 scalars.  ``>=``
        #: rather than the paper's strict ``>``: the state table saturates
        #: at 15 == T, so a strict comparison would never fire on a
        #: permanently-active neuron with silent parents.  Layer-only
        #: mode fires when both sampled parents fire — one parent alone
        #: fires far too often (hot parents are nearly always on).
        token_prediction = self.config.use_token_prediction
        self._min_firing_state = np.array([
            next((s1 for s1 in range(STATE_MAX + 1)
                  if (s2 >= 2.0 if not token_prediction
                      else s1 + LAMBDA * s2 >= THRESHOLD)),
                 STATE_MAX + 1)
            for s2 in (0.0, 1.0, 2.0)], dtype=np.uint8)
        #: :meth:`predict_all`'s per-group least firing states, memoised
        #: per token matrix (packed bits -> uint8 matrix): they depend
        #: only on the token's activations and the correlation table.
        #: Cleared when it would outgrow the trace's token count.
        self._firing_memo: dict[bytes, np.ndarray] = {}
        self._firing_memo_cap = 0
        #: full-shape clamp bounds and state steps for the in-place
        #: saturating update (whole-array operands keep numpy's int16
        #: loops vectorized, where scalar ones do not)
        shape = self.states.shape
        self._state_floor = np.zeros(shape, dtype=np.int16)
        self._state_ceiling = np.full(shape, STATE_MAX, dtype=np.int16)
        self._state_down = np.full(shape, S_DOWN, dtype=np.int16)

    # ------------------------------------------------------------------
    def initialize(self, trace: ActivationTrace) -> None:
        """Set initial states from prefill frequencies (16 linear stages)
        and build the correlation table from the trace's recorded offline
        structure (the paper's corpus-profiled table, see
        :meth:`CorrelationTable.from_profiling`).
        """
        self.states[:] = np.minimum(
            (trace.prefill_frequencies() * (STATE_MAX + 1)).astype(np.int16),
            STATE_MAX)
        self._parents_stack = None
        self._firing_memo = {}
        self._firing_memo_cap = trace.n_tokens
        if self.config.use_layer_prediction:
            self.correlation = CorrelationTable.from_profiling(trace)

    # ------------------------------------------------------------------
    def _stacked_parents(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(layers with a table, flat first-parent indices, flat
        second-parent indices) for the vectorized layer-wise term.

        Layers without a table are absent.  The flat indices address the
        raveled token matrix: child ``g`` of layer ``l`` reads its parent
        ``p`` of layer ``l-1`` at ``(l - 1) * groups + p``.  Built on the
        first :meth:`predict_all`.
        """
        if self._parents_stack is None:
            parents = (self.correlation.parents
                       if self.correlation is not None else [])
            layers = [l for l in range(1, self.num_layers)
                      if l < len(parents) and parents[l] is not None]
            groups = self.layout.groups_per_layer
            flat = [parents[l].astype(np.intp) + (l - 1) * groups
                    for l in layers]
            stack = (np.stack(flat) if flat
                     else np.zeros((0, groups, 2), dtype=np.intp))
            self._parents_stack = (np.asarray(layers, dtype=np.intp),
                                   stack[:, :, 0].ravel(),
                                   stack[:, :, 1].ravel())
        return self._parents_stack

    def predict_all(self, actuals: np.ndarray) -> np.ndarray:
        """Predicted activation masks for every layer of one token.

        ``actuals`` is the token's (num_layers, groups) boolean
        ground-truth activation matrix; row ``l-1`` supplies the realised
        previous-layer activations feeding layer ``l``'s layer-wise term
        (layers execute sequentially, so those are known by the time
        layer ``l`` runs).  A group fires when ``s1 + LAMBDA * s2 >=
        THRESHOLD``, with ``s1`` its state and ``s2`` how many of its two
        correlated parents fired (0 for layer 0 and for a layer without a
        table); token-only mode drops ``s2`` and layer-only mode needs
        ``s2 == 2``.

        The rule is one threshold compare per group.  ``s1 + LAMBDA * s2
        >= THRESHOLD`` computed in ``float64`` is non-decreasing in the state
        ``s1``, so for each parent count ``s2`` in 0..2 there is a least
        state that fires, and a group fires exactly when its state
        reaches the least state of its count.  The counts (two flat
        ``uint8`` gathers over the token matrix) and so the per-group
        least states depend only on ``actuals`` and the correlation
        table, and are memoised per token matrix.
        """
        if actuals.shape != self.states.shape:
            raise ValueError("actuals matrix has wrong shape")
        key = np.packbits(actuals).tobytes()
        least = self._firing_memo.get(key)
        if least is None:
            counts = np.zeros(self.states.shape, dtype=np.uint8)
            if (self.config.use_layer_prediction
                    and self.correlation is not None):
                layers, first, second = self._stacked_parents()
                if layers.size:
                    flat = actuals.view(np.uint8).ravel()
                    counts[layers] = (flat[first] + flat[second]).reshape(
                        layers.size, -1)
            least = self._min_firing_state.take(counts)
            if len(self._firing_memo) >= self._firing_memo_cap:
                self._firing_memo.clear()
            self._firing_memo[key] = least
        return self.states >= least

    # ------------------------------------------------------------------
    def observe_all(
        self, actuals: np.ndarray, predicted: np.ndarray | None = None
    ) -> None:
        """Finite-state-machine update once one token's true activations
        are known, for every layer at once; also folds the outcome into
        the accuracy counters when ``predicted`` is given.

        An activated group's state rises by ``S_UP`` and an inactive
        one's falls by ``S_DOWN``, saturating at 0 and ``STATE_MAX``.
        Online adjustment reads the pre-token states, so callers swap
        before they observe.
        """
        if actuals.shape != self.states.shape:
            raise ValueError("actuals matrix has wrong shape")
        if predicted is not None:
            self.stats.update(predicted, actuals)
        matrix = self.states
        # in-place step + saturating clamp (max-then-min spelling of
        # clip): s + (S_UP + S_DOWN) * actual - S_DOWN is s + S_UP or
        # s - S_DOWN
        matrix += np.multiply(actuals, S_UP + S_DOWN, dtype=np.int16)
        matrix -= self._state_down
        np.maximum(matrix, self._state_floor, out=matrix)
        np.minimum(matrix, self._state_ceiling, out=matrix)

    # ------------------------------------------------------------------
    def state_table_bytes(self) -> int:
        """Footprint of the neuron state table at 4 bits per neuron.

        Reported at *neuron* granularity (the paper's bookkeeping), i.e.
        independent of the simulation's group granularity.
        """
        return self.layout.model.total_neurons * STATE_BITS // 8

    def predictor_overhead_seconds(self) -> float:
        """Host-CPU time to evaluate the predictor for one layer.

        A handful of vector ops over the state table held in LLC; the paper
        measures <0.1 % of runtime.  Modelled as table-scan time at LLC
        bandwidth (~100 GB/s) with a 1 us floor for control flow.
        """
        table_bytes = self.layout.model.neurons_per_layer * STATE_BITS / 8
        return 1e-6 + table_bytes / 100e9
