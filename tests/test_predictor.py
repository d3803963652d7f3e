"""Unit tests for the lightweight activation predictor (§IV-C1)."""

import numpy as np
import pytest

from repro.core import (
    ActivationPredictor,
    CorrelationTable,
    PredictionStats,
    PredictorConfig,
    STATE_MAX,
)
from repro.models import get_model
from repro.sparsity import NeuronLayout


@pytest.fixture(scope="session")
def layout(tiny_model):
    return NeuronLayout.build(tiny_model, granularity=4)


@pytest.fixture
def predictor(layout, tiny_trace):
    p = ActivationPredictor(layout, PredictorConfig())
    p.initialize(tiny_trace)
    return p


class TestConfig:
    def test_paper_defaults(self):
        c = PredictorConfig()
        assert c.s_up == 4 and c.s_down == 1
        assert c.lam == 6.0 and c.threshold == 15.0
        assert c.hot_threshold == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictorConfig(s_up=0)
        with pytest.raises(ValueError):
            PredictorConfig(lam=-1)
        with pytest.raises(ValueError):
            PredictorConfig(hot_threshold=16)
        with pytest.raises(ValueError):
            PredictorConfig(
                use_token_prediction=False, use_layer_prediction=False
            )


# The per-layer prediction as it stood before ``predict_all``, copied
# verbatim: the reference each row of ``predict_all`` must match.
def reference_predict(self, layer: int,
                      prev_actual: np.ndarray | None = None) -> np.ndarray:
    """Predicted activation mask for ``layer`` on the current token.

    ``prev_actual`` is the realised activation of layer-1 (available
    because layers execute sequentially); it feeds the layer-wise term.
    """
    cfg = self.config
    if cfg.use_token_prediction:
        s1 = self.states[layer].astype(np.float64)
    else:
        s1 = np.zeros(self.layout.groups_per_layer)
    s2 = np.zeros_like(s1)
    if (cfg.use_layer_prediction and layer > 0
            and prev_actual is not None
            and self.correlation is not None):
        parents = self.correlation.parents[layer]
        if parents is not None:
            s2 = prev_actual[parents].sum(axis=1).astype(np.float64)
    score = s1 + cfg.lam * s2
    if not cfg.use_token_prediction:
        # layer-only mode: both sampled parents must fire — one parent
        # alone fires far too often (hot parents are nearly always on)
        return s2 >= 2.0
    # ">=" rather than the paper's strict ">": the state table saturates
    # at 15 == T, so a strict comparison would never fire on a
    # permanently-active neuron with silent parents.
    return score >= cfg.threshold


def token(predictor, fill: bool) -> np.ndarray:
    """A (num_layers, groups) activation matrix, all on or all off."""
    return np.full(predictor.states.shape, fill)


class TestStateMachine:
    def test_initial_states_follow_prefill_frequency(
        self, predictor, tiny_trace
    ):
        freq = tiny_trace.prefill_frequencies(0)
        states = predictor.states[0]
        # always-on neurons start saturated, never-on start at zero
        assert (states[freq > 0.95] == STATE_MAX).all()
        assert (states[freq < 0.05] == 0).all()

    def test_activation_raises_state_by_s_up(self, predictor):
        predictor.states[0] = 5
        predictor.observe_all(token(predictor, True))
        assert (predictor.states[0] == 9).all()

    def test_inactivity_decays_by_one(self, predictor):
        predictor.states[0] = 5
        predictor.observe_all(token(predictor, False))
        assert (predictor.states[0] == 4).all()

    def test_state_saturates_at_15(self, predictor):
        predictor.states[0] = 14
        predictor.observe_all(token(predictor, True))
        assert (predictor.states[0] == STATE_MAX).all()

    def test_state_floors_at_zero(self, predictor):
        predictor.states[0] = 0
        predictor.observe_all(token(predictor, False))
        assert (predictor.states[0] == 0).all()

    def test_paper_example(self, predictor):
        """Fig. 7a: neuron at state 7 activates -> 11; at 10 idles -> 9."""
        predictor.states[0][:2] = [7, 10]
        actuals = token(predictor, False)
        actuals[0][0] = True
        predictor.observe_all(actuals)
        assert predictor.states[0][0] == 11
        assert predictor.states[0][1] == 9

    def test_observe_rejects_wrong_shape(self, predictor):
        with pytest.raises(ValueError):
            predictor.observe_all(np.zeros(3, dtype=bool))


class TestPrediction:
    def test_saturated_neuron_predicted_without_parents(self, predictor):
        predictor.states[1] = STATE_MAX
        assert predictor.predict_all(token(predictor, False))[1].all()

    def test_cold_neuron_not_predicted(self, predictor):
        predictor.states[1] = 0
        assert not predictor.predict_all(token(predictor, False))[1].any()

    def test_correlated_parents_boost_prediction(self, predictor):
        """s1 + lam*s2 >= T: state 4 alone fails, but both parents firing
        adds 12, crossing the threshold."""
        predictor.states[1] = 4
        assert not predictor.predict_all(token(predictor, False))[1].any()
        assert predictor.predict_all(token(predictor, True))[1].all()

    def test_layer_zero_uses_token_prediction_only(self, predictor):
        predictor.states[0] = STATE_MAX
        assert predictor.predict_all(token(predictor, True))[0].all()
        predictor.states[0] = 4
        assert not predictor.predict_all(token(predictor, True))[0].any()

    def test_token_only_mode(self, layout, tiny_trace):
        p = ActivationPredictor(
            layout, PredictorConfig(use_layer_prediction=False)
        )
        p.initialize(tiny_trace)
        assert p.correlation is None
        p.states[1] = STATE_MAX
        assert p.predict_all(token(p, True))[1].all()

    def test_layer_only_mode_requires_both_parents(self, layout, tiny_trace):
        p = ActivationPredictor(
            layout, PredictorConfig(use_token_prediction=False)
        )
        p.initialize(tiny_trace)
        assert p.predict_all(token(p, True))[1].all()
        assert not p.predict_all(token(p, False))[1].any()


class TestPredictAll:
    @pytest.mark.parametrize("mode", ["both", "token-only", "layer-only"])
    @pytest.mark.parametrize("correlation", ["profiled"])
    @pytest.mark.parametrize("hole", [False, True])
    @pytest.mark.parametrize("trace_name", ["tiny_trace", "small_opt_trace"])
    def test_rows_match_per_layer_predict(self, request, trace_name, mode,
                                          correlation, hole):
        """Row ``l`` of ``predict_all`` equals the per-layer reference
        ``reference_predict(l, actuals[l-1])`` (``None`` for layer 0)
        over several tokens, with the profiled correlation table, for
        each prediction mode and a stack with one layer's table
        missing."""
        trace = request.getfixturevalue(trace_name)
        p = ActivationPredictor(trace.layout, PredictorConfig(
            use_token_prediction=mode != "layer-only",
            use_layer_prediction=mode != "token-only"))
        p.initialize(trace)
        if hole and p.correlation is not None:
            p.correlation.parents[2] = None
        for t in list(trace.decode_tokens())[:6]:
            actuals = trace.active_matrix(t)
            rows = p.predict_all(actuals)
            for l in range(trace.num_layers):
                prev = actuals[l - 1] if l else None
                assert np.array_equal(rows[l], reference_predict(p, l, prev))
            p.observe_all(actuals, rows)


class TestAccuracy:
    def test_accuracy_on_calibrated_trace(self, predictor, tiny_trace):
        """Replay: accuracy should land near the paper's ~98% claim."""
        for t in tiny_trace.decode_tokens():
            actuals = tiny_trace.active_matrix(t)
            predictor.observe_all(actuals, predictor.predict_all(actuals))
        assert predictor.stats.accuracy > 0.90
        assert predictor.stats.recall > 0.75
        assert predictor.stats.precision > 0.70

    def test_stats_counters(self):
        stats = PredictionStats()
        stats.update(
            np.array([True, True, False, False]),
            np.array([True, False, True, False]),
        )
        assert stats.true_positive == 1
        assert stats.false_positive == 1
        assert stats.false_negative == 1
        assert stats.true_negative == 1
        assert stats.accuracy == 0.5

    def test_stats_empty_raises(self):
        with pytest.raises(ValueError):
            PredictionStats().accuracy

    def test_perfect_recall_with_no_actuals(self):
        stats = PredictionStats()
        stats.update(np.array([False]), np.array([False]))
        assert stats.recall == 1.0 and stats.precision == 1.0


class TestCorrelationTable:
    def test_estimated_parents_are_informative(self, tiny_trace):
        """The profiled table must predict better than a random table:
        layer-only prediction accuracy with its parents should clearly
        beat the same predictor with shuffled parents."""

        def layer_only_accuracy(table: CorrelationTable) -> float:
            p = ActivationPredictor(
                tiny_trace.layout, PredictorConfig(use_token_prediction=False)
            )
            p.initialize(tiny_trace)
            p.correlation = table
            for t in tiny_trace.decode_tokens():
                actuals = tiny_trace.active_matrix(t)
                # the layers with a table
                p.stats.update(p.predict_all(actuals)[1:], actuals[1:])
            return p.stats.accuracy

        profiled = CorrelationTable.from_profiling(tiny_trace)
        rng = np.random.default_rng(0)
        shuffled = CorrelationTable([
            None if t is None else rng.permutation(t)
            for t in profiled.parents
        ])
        assert (layer_only_accuracy(profiled)
                > layer_only_accuracy(shuffled) + 0.02)

    def test_table_bytes(self, tiny_trace):
        table = CorrelationTable.from_profiling(tiny_trace)
        expected = sum(p.size * 2 for p in table.parents if p is not None)
        assert table.table_bytes() == expected


class TestFootprint:
    def test_llama7b_state_table_232kb(self):
        """§IV-C1: 232 KB for LLaMA-7B, regardless of sim granularity."""
        model = get_model("LLaMA-7B")
        layout = NeuronLayout.build(model, granularity=64)
        predictor = ActivationPredictor(layout)
        assert predictor.state_table_bytes() == 232 * 1024

    def test_under_one_megabyte_for_7b(self):
        model = get_model("LLaMA-7B")
        layout = NeuronLayout.build(model, granularity=64)
        assert ActivationPredictor(layout).state_table_bytes() < 2**20

    def test_overhead_is_sub_millisecond(self, predictor):
        assert predictor.predictor_overhead_seconds(0) < 1e-3
