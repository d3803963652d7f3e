"""Unit + property tests for the activation-sparsity substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsity import (
    ActivationTrace,
    NeuronLayout,
    TraceConfig,
    compute_share,
    dimm_load_imbalance,
    generate_trace,
    hot_cold_computation_share,
    hot_set_churn,
    jaccard_similarity,
    layer_correlation,
    power_law_exponent,
    power_law_frequencies,
    token_similarity_curve,
)


class TestPowerLawExponent:
    def test_pareto_80_20(self):
        a = power_law_exponent(0.2, 0.8)
        # continuous power law: share = f^(1-a)
        assert 0.2 ** (1 - a) == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_law_exponent(0.0, 0.8)
        with pytest.raises(ValueError):
            power_law_exponent(0.2, 1.0)
        with pytest.raises(ValueError):
            power_law_exponent(0.5, 0.2)  # mass must concentrate


class TestPowerLawFrequencies:
    def test_mean_is_density(self):
        p = power_law_frequencies(1000, 0.15, shuffle=False)
        assert p.mean() == pytest.approx(0.15, rel=0.02)

    def test_hot_share_is_exact(self):
        p = power_law_frequencies(1000, 0.12, shuffle=False)
        assert compute_share(p, 0.2) == pytest.approx(0.8, abs=0.02)

    def test_monotone_when_unshuffled(self):
        p = power_law_frequencies(500, 0.2, shuffle=False)
        assert (np.diff(p) <= 1e-12).all()

    def test_head_saturates(self):
        p = power_law_frequencies(1000, 0.12, shuffle=False)
        assert p[0] == pytest.approx(0.99)

    def test_shuffle_preserves_multiset(self):
        rng = np.random.default_rng(0)
        a = power_law_frequencies(300, 0.2, shuffle=False)
        b = power_law_frequencies(300, 0.2, rng=rng, shuffle=True)
        assert np.allclose(np.sort(a), np.sort(b))

    def test_bounds_respected(self):
        p = power_law_frequencies(100, 0.3)
        assert (p >= 1e-4).all() and (p <= 0.99).all()

    @given(
        n=st.integers(10, 2000),
        density=st.floats(0.05, 0.5),
        share=st.floats(0.55, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_mean_and_share(self, n, density, share):
        """For any feasible configuration: mean ~= density, share within
        the feasible envelope, probabilities in bounds."""
        p = power_law_frequencies(
            n, density, hot_fraction=0.2, hot_share=share, shuffle=False
        )
        assert (p > 0).all() and (p <= 0.99).all()
        assert p.mean() == pytest.approx(density, rel=0.15)
        achieved = compute_share(p, 0.2)
        k = max(1, round(0.2 * n))  # the head size the builder actually uses
        feasible_cap = min(1.0, 0.99 * k / (density * n))
        assert achieved <= feasible_cap + 0.02
        assert achieved >= min(share, feasible_cap) - 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            power_law_frequencies(0, 0.2)
        with pytest.raises(ValueError):
            power_law_frequencies(10, 0.0)
        with pytest.raises(ValueError):
            power_law_frequencies(10, 0.2, p_min=0.5, p_max=0.4)

    def test_compute_share_validation(self):
        with pytest.raises(ValueError):
            compute_share(np.array([]), 0.2)
        with pytest.raises(ValueError):
            compute_share(np.ones(5), 0.0)


class TestLayout:
    def test_group_partition(self, tiny_model):
        layout = NeuronLayout.build(tiny_model, granularity=4)
        assert layout.attn_groups == 64
        assert layout.mlp_groups == 256
        assert layout.groups_per_layer == 320
        assert layout.group_neurons.sum() == tiny_model.neurons_per_layer

    def test_tail_group_partial(self, tiny_model):
        layout = NeuronLayout.build(tiny_model, granularity=48)
        # 256 attn neurons / 48 -> 6 groups, last holds 16
        assert layout.attn_groups == 6
        assert layout.group_neurons[5] == 16

    def test_group_bytes_match_model_totals(self, tiny_model):
        layout = NeuronLayout.build(tiny_model, granularity=4)
        assert (layout.sparse_bytes_per_layer()
                == tiny_model.sparse_bytes_per_layer)

    def test_is_mlp_mask(self, tiny_model):
        layout = NeuronLayout.build(tiny_model, granularity=4)
        assert not layout.is_mlp[:layout.attn_groups].any()
        assert layout.is_mlp[layout.attn_groups:].all()

    def test_bytes_of(self, tiny_model):
        layout = NeuronLayout.build(tiny_model, granularity=4)
        mask = np.zeros(layout.groups_per_layer, dtype=bool)
        mask[0] = True
        assert layout.bytes_of(mask) == layout.group_bytes[0]
        with pytest.raises(ValueError):
            layout.bytes_of(np.zeros(3, dtype=bool))

    def test_slices_cover_layer(self, tiny_model):
        layout = NeuronLayout.build(tiny_model, granularity=4)
        assert layout.attn_slice.stop == layout.mlp_slice.start
        assert layout.mlp_slice.stop == layout.groups_per_layer


class TestTraceConfig:
    def test_defaults_are_paper_shape(self):
        c = TraceConfig()
        assert c.prompt_len == 128 and c.decode_len == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(prompt_len=0)
        with pytest.raises(ValueError):
            TraceConfig(kappa=1.5)
        with pytest.raises(ValueError):
            TraceConfig(density=0.0)
        with pytest.raises(ValueError):
            TraceConfig(granularity=0)


class TestGenerateTrace:
    def test_shapes(self, tiny_trace, tiny_model):
        assert tiny_trace.num_layers == tiny_model.num_layers
        assert tiny_trace.n_tokens == 96
        assert tiny_trace.n_decode_tokens == 64
        assert tiny_trace.activations.shape == (96, 4, 320)
        assert tiny_trace.activations.dtype == bool
        assert tiny_trace.active_matrix(5).flags.c_contiguous

    def test_deterministic_per_seed(self, tiny_model):
        cfg = TraceConfig(prompt_len=8, decode_len=8, granularity=8)
        a = generate_trace(tiny_model, cfg, seed=3)
        b = generate_trace(tiny_model, cfg, seed=3)
        c = generate_trace(tiny_model, cfg, seed=4)
        assert np.array_equal(a.activations, b.activations)
        assert not np.array_equal(a.activations, c.activations)

    def test_density_close_to_target(self, tiny_trace, tiny_model):
        assert tiny_trace.density() == pytest.approx(
            tiny_model.activation_density, rel=0.25
        )

    def test_parents_recorded_for_inner_layers(self, tiny_trace):
        assert tiny_trace.parents[0] is None
        for l in range(1, tiny_trace.num_layers):
            parents = tiny_trace.parents[l]
            assert parents.shape == (320, 2)
            assert parents.min() >= 0 and parents.max() < 320

    def test_higher_kappa_means_higher_adjacent_similarity(self, tiny_model):
        def adjacent(kappa):
            cfg = TraceConfig(
                prompt_len=8,
                decode_len=48,
                granularity=8,
                kappa=kappa,
                drift_rate=0.0,
                phase_shift=0.0,
            )
            trace = generate_trace(tiny_model, cfg, seed=5)
            return token_similarity_curve(trace, 1)[1]
        assert adjacent(0.98) > adjacent(0.5)

    def test_phase_shift_increases_churn(self, tiny_model):
        def churn(shift):
            cfg = TraceConfig(
                prompt_len=24,
                decode_len=48,
                granularity=8,
                phase_shift=shift,
                drift_rate=0.0,
            )
            return hot_set_churn(generate_trace(tiny_model, cfg, seed=5))
        assert churn(0.5) > churn(0.0)

    def test_gamma_creates_layer_correlation(self, tiny_model):
        def corr(gamma):
            cfg = TraceConfig(
                prompt_len=16,
                decode_len=48,
                granularity=8,
                gamma=gamma,
                drift_rate=0.0,
                phase_shift=0.0,
            )
            trace = generate_trace(tiny_model, cfg, seed=5)
            cond = layer_correlation(trace, 2)
            return float(np.nanmean(cond))
        assert corr(0.6) > corr(0.0)

    def test_swaps_preserve_density(self, tiny_model):
        """Identity swaps must not change the activation mass."""
        calm = TraceConfig(
            prompt_len=16,
            decode_len=64,
            granularity=8,
            drift_rate=0.0,
            phase_shift=0.0,
        )
        wild = TraceConfig(
            prompt_len=16,
            decode_len=64,
            granularity=8,
            drift_rate=0.02,
            phase_shift=0.8,
        )
        d_calm = generate_trace(tiny_model, calm, seed=5).density()
        d_wild = generate_trace(tiny_model, wild, seed=5).density()
        assert d_wild == pytest.approx(d_calm, rel=0.1)


class TestTraceAccessors:
    def test_frequencies_shape_and_range(self, tiny_trace):
        f = tiny_trace.frequencies()
        assert f.shape == (tiny_trace.num_layers, 320)
        assert f.dtype == np.float64
        assert (f >= 0).all() and (f <= 1).all()

    def test_prefill_frequencies_use_prompt_only(self, tiny_trace):
        f = tiny_trace.prefill_frequencies()
        expected = tiny_trace.activations[:32].mean(axis=0)
        assert np.array_equal(f, expected)
        # each row is the per-layer slice's frequency, bit for bit
        for l, row in enumerate(f):
            layer = tiny_trace.activations[:32, l].mean(axis=0)
            assert np.array_equal(row, layer)

    def test_decode_tokens_range(self, tiny_trace):
        tokens = list(tiny_trace.decode_tokens())
        assert tokens[0] == 32 and tokens[-1] == 95

    def test_empty_token_slice_rejected(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace.frequencies(slice(5, 5))

    def test_trace_validation(self, tiny_trace):
        with pytest.raises(ValueError):
            ActivationTrace(
                layout=tiny_trace.layout,
                activations=tiny_trace.activations[:, :-1],
                parents=tiny_trace.parents,
                prompt_len=32,
                seed=0,
            )
        with pytest.raises(ValueError):
            ActivationTrace(
                layout=tiny_trace.layout,
                activations=tiny_trace.activations,
                parents=tiny_trace.parents,
                prompt_len=1000,
                seed=0,
            )


class TestStats:
    def test_jaccard_identity(self):
        a = np.array([True, False, True])
        assert jaccard_similarity(a, a) == 1.0

    def test_jaccard_disjoint(self):
        a = np.array([True, False])
        b = np.array([False, True])
        assert jaccard_similarity(a, b) == 0.0

    def test_jaccard_empty_sets_are_similar(self):
        a = np.zeros(4, dtype=bool)
        assert jaccard_similarity(a, a) == 1.0

    def test_jaccard_shape_mismatch(self):
        with pytest.raises(ValueError):
            jaccard_similarity(np.zeros(3, bool), np.zeros(4, bool))

    def test_similarity_curve_decays(self, tiny_trace):
        curve = token_similarity_curve(tiny_trace, 20)
        assert curve[0] == 1.0
        assert curve[1] > curve[10] > curve[20] - 0.05
        assert curve[1] > 0.8  # paper: adjacent >90%; tiny model a bit less

    def test_similarity_curve_validation(self, tiny_trace):
        with pytest.raises(ValueError):
            token_similarity_curve(tiny_trace, 0)

    def test_hot_cold_share_near_paper(self, tiny_trace):
        share = hot_cold_computation_share(tiny_trace)
        assert 0.6 < share <= 1.0

    def test_hot_share_full_fraction_is_one(self, tiny_trace):
        assert hot_cold_computation_share(tiny_trace, 1.0) \
            == pytest.approx(1.0)

    def test_churn_in_unit_range(self, tiny_trace):
        churn = hot_set_churn(tiny_trace)
        assert 0.0 <= churn <= 1.0

    def test_layer_correlation_rejects_layer_zero(self, tiny_trace):
        with pytest.raises(ValueError):
            layer_correlation(tiny_trace, 0)

    def test_layer_correlation_high_for_recorded_parents(self, tiny_trace):
        cond = layer_correlation(tiny_trace, 2)
        top = np.sort(cond[~np.isnan(cond)])[-32:]
        assert top.mean() > 0.85

    def test_load_imbalance_balanced_placement(self, tiny_trace):
        placement = np.arange(320) % 8
        ratio = dimm_load_imbalance(tiny_trace, placement, layer=1)
        assert ratio >= 1.0

    def test_load_imbalance_skewed_placement_is_worse(self, tiny_trace):
        balanced = np.arange(320) % 8
        skewed = np.zeros(320, dtype=np.int64)
        skewed[300:] = np.arange(20) % 7 + 1
        r_bal = dimm_load_imbalance(tiny_trace, balanced, layer=1)
        r_skew = dimm_load_imbalance(tiny_trace, skewed, layer=1)
        assert r_skew > r_bal

    def test_load_imbalance_validation(self, tiny_trace):
        with pytest.raises(ValueError):
            dimm_load_imbalance(tiny_trace, np.zeros(3, dtype=int), 0)
        with pytest.raises(ValueError):
            dimm_load_imbalance(tiny_trace, np.arange(320) % 4, 0, window=0)
