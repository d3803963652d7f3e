"""Integration tests for the end-to-end Hermes engine."""

import dataclasses

import pytest

from repro.core import HermesConfig, HermesSystem, batch_union_factor
from repro.hardware import Machine, TESLA_T4
from repro.models import get_model

import numpy as np


@pytest.fixture(scope="module")
def hermes_result(machine, tiny_model, tiny_trace):
    return HermesSystem(machine, tiny_model).run(tiny_trace, batch=1)


# The scalar per-layer union factor as it stood before the matrix form,
# copied verbatim: the reference each entry of ``batch_union_factor``
# must equal.
def reference_union_factor(freq: np.ndarray, batch: int) -> float:
    """Inflation of the activated set when a batch's activations union.

    Each batch element activates its own neuron subset; the weight traffic
    of a batched sparse GEMV covers the union.  For per-group frequency
    ``p`` the union probability is ``1 - (1-p)^batch``.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if batch == 1:
        return 1.0
    p = np.clip(freq, 0.0, 1.0)
    base = p.sum()
    if base <= 0:
        return 1.0
    return float((1.0 - (1.0 - p) ** batch).sum() / base)


class TestUnionFactor:
    def test_batch_one_is_identity(self):
        factors = batch_union_factor(np.array([[0.5, 0.1], [0.2, 0.0]]), 1)
        assert np.array_equal(factors, [1.0, 1.0])

    def test_grows_with_batch(self):
        freq = np.array([[0.3, 0.1, 0.05]])
        factors = [batch_union_factor(freq, b)[0] for b in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(factors, factors[1:]))

    def test_saturated_neurons_do_not_inflate(self):
        factors = batch_union_factor(np.ones((1, 5)), 16)
        assert factors[0] == pytest.approx(1.0)

    def test_bounded_by_inverse_density(self):
        freq = np.full((1, 10), 0.1)
        assert batch_union_factor(freq, 1000)[0] <= 10.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_union_factor(np.array([[0.1]]), 0)

    @pytest.mark.parametrize("trace_name", ["tiny_trace", "small_opt_trace"])
    def test_rows_equal_per_layer_reference(self, request, trace_name):
        """Entry ``l`` equals ``reference_union_factor`` of row ``l``,
        bit for bit, on prefill, decode and whole-trace frequencies with
        one all-zero row (whose factor is 1.0 at every batch).  The tiny
        trace's 96 tokens make its whole-trace frequencies non-dyadic,
        where ``1 - (1 - p)`` can differ from ``p``."""
        trace = request.getfixturevalue(trace_name)
        decode = slice(trace.prompt_len, trace.n_tokens)
        for freqs in (trace.prefill_frequencies(), trace.frequencies(decode),
                      trace.frequencies()):
            freqs[1] = 0.0
            for batch in (1, 2, 3, 8, 16):
                factors = batch_union_factor(freqs, batch)
                assert factors.shape == (trace.num_layers,)
                for l, freq in enumerate(freqs):
                    assert factors[l] == reference_union_factor(freq, batch)
                assert factors[1] == 1.0


class TestHermesRun:
    def test_produces_positive_throughput(self, hermes_result):
        assert hermes_result.tokens_per_second > 0

    def test_breakdown_covers_major_categories(self, hermes_result):
        for key in ("fc", "attention", "projection", "prefill", "predictor"):
            assert hermes_result.breakdown.get(key, 0) > 0

    def test_decode_time_close_to_breakdown_sum(self, hermes_result):
        accounted = sum(v for k, v in hermes_result.breakdown.items()
                        if k not in ("prefill",))
        total = (hermes_result.decode_time
                 + hermes_result.breakdown.get("communication", 0))
        assert accounted == pytest.approx(total, rel=0.15)

    def test_predictor_accuracy_reported(self, hermes_result):
        assert hermes_result.metadata["predictor_accuracy"] > 0.85

    def test_rejects_foreign_trace(self, machine, tiny_trace):
        other = get_model("LLaMA-7B")
        with pytest.raises(ValueError):
            HermesSystem(machine, other).run(tiny_trace)

    def test_rejects_bad_batch(self, machine, tiny_model, tiny_trace):
        with pytest.raises(ValueError):
            HermesSystem(machine, tiny_model).run(tiny_trace, batch=0)

    def test_rejects_model_too_big_for_pool(self, tiny_model):
        small = Machine(num_dimms=1)
        tiny_dimm = dataclasses.replace(
            small.dimm,
            geometry=dataclasses.replace(small.dimm.geometry,
                                         capacity_bytes=2**20))
        machine = dataclasses.replace(small, dimm=tiny_dimm)
        with pytest.raises(ValueError, match="DIMM"):
            HermesSystem(machine, tiny_model)

    def test_deterministic(self, machine, tiny_model, tiny_trace):
        a = HermesSystem(machine, tiny_model).run(tiny_trace)
        b = HermesSystem(machine, tiny_model).run(tiny_trace)
        assert a.decode_time == b.decode_time


class TestBatching:
    def test_throughput_improves_with_batch(
        self, machine, tiny_model, tiny_trace
    ):
        system = HermesSystem(machine, tiny_model)
        t1 = system.run(tiny_trace, batch=1).tokens_per_second
        t8 = system.run(tiny_trace, batch=8).tokens_per_second
        assert t8 > 1.5 * t1

    def test_latency_grows_with_batch(self, machine, tiny_model, tiny_trace):
        system = HermesSystem(machine, tiny_model)
        l1 = system.run(tiny_trace, batch=1).decode_latency_per_token
        l16 = system.run(tiny_trace, batch=16).decode_latency_per_token
        assert l16 > l1


class TestConfigurationSpace:
    def test_oracle_not_slower_than_fixed_partition(
        self, machine, tiny_model, tiny_trace
    ):
        fixed = HermesConfig(online_adjustment=False, window_scheduling=False)
        oracle = HermesConfig(
            online_adjustment=False, window_scheduling=False, oracle=True
        )
        t_fixed = HermesSystem(machine, tiny_model, fixed).run(
            tiny_trace).decode_latency_per_token
        t_oracle = HermesSystem(machine, tiny_model, oracle).run(
            tiny_trace).decode_latency_per_token
        assert t_oracle <= t_fixed * 1.05

    def test_all_fig13_variants_run(self, machine, tiny_model, tiny_trace):
        from repro.experiments.fig13_ablation import VARIANTS
        for name, config in VARIANTS.items():
            result = HermesSystem(machine, tiny_model, config).run(tiny_trace)
            assert result.tokens_per_second > 0, name

    def test_more_dimms_never_hurt_much(self, tiny_model, tiny_trace):
        t2 = HermesSystem(Machine(num_dimms=2), tiny_model).run(
            tiny_trace).decode_latency_per_token
        t8 = HermesSystem(Machine(num_dimms=8), tiny_model).run(
            tiny_trace).decode_latency_per_token
        assert t8 <= t2 * 1.10

    def test_faster_gpu_not_slower(self, tiny_model, tiny_trace):
        fast = HermesSystem(Machine(), tiny_model).run(
            tiny_trace).decode_latency_per_token
        slow = HermesSystem(Machine(gpu=TESLA_T4), tiny_model).run(
            tiny_trace).decode_latency_per_token
        assert fast <= slow * 1.05

    def test_window_scheduling_tracks_migrations(
        self, machine, tiny_model, tiny_trace
    ):
        result = HermesSystem(machine, tiny_model).run(tiny_trace)
        assert result.metadata["remap_groups"] >= 0
        assert result.metadata["remap_bytes"] >= 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            HermesConfig(window=0)
        # the hot threshold compares against the 4-bit state table, so it
        # must fail at construction rather than when a session opens
        with pytest.raises(ValueError, match="hot_threshold"):
            HermesConfig(hot_threshold=16)
        with pytest.raises(ValueError, match="hot_threshold"):
            HermesConfig(hot_threshold=-1)
        assert HermesConfig(hot_threshold=15).hot_threshold == 15


class TestRealisticScale:
    """Slower sanity checks on a real model geometry."""

    def test_opt13b_headline_shape(self, machine, small_opt_trace):
        model = get_model("OPT-13B")
        result = HermesSystem(machine, model).run(small_opt_trace)
        # paper: 135.64 tokens/s; shape tolerance: same order of magnitude
        assert 30 < result.tokens_per_second < 400
        assert result.metadata["predictor_accuracy"] > 0.90

    def test_opt13b_batch16_scales(self, machine, small_opt_trace):
        model = get_model("OPT-13B")
        system = HermesSystem(machine, model)
        t1 = system.run(small_opt_trace, batch=1).tokens_per_second
        t16 = system.run(small_opt_trace, batch=16).tokens_per_second
        assert 2.0 < t16 / t1 < 16.0
