"""Cross-module integration tests: the full pipeline end to end."""

import numpy as np

from repro import (
    HermesSystem,
    Machine,
    generate_trace,
    machine_cost_usd,
)
from repro.core import HermesConfig
from repro.experiments.fig09_end_to_end import SYSTEMS, build_system
from repro.experiments.fig13_ablation import VARIANTS
from repro.sparsity import TraceConfig


class TestTraceToResultPipeline:
    def test_different_seeds_give_different_latencies(
        self, machine, tiny_model
    ):
        cfg = TraceConfig(prompt_len=16, decode_len=32, granularity=8)
        results = []
        for seed in (1, 2):
            trace = generate_trace(tiny_model, cfg, seed=seed)
            results.append(
                HermesSystem(machine, tiny_model).run(trace).decode_time
            )
        assert results[0] != results[1]

    def test_seed_variance_is_small(self, machine, tiny_model):
        """Throughput is a property of the workload statistics, not the
        specific random draw: seeds must agree within a few percent."""
        cfg = TraceConfig(prompt_len=32, decode_len=64, granularity=8)
        rates = []
        for seed in (1, 2, 3):
            trace = generate_trace(tiny_model, cfg, seed=seed)
            rates.append(HermesSystem(machine, tiny_model).run(
                trace).decode_tokens_per_second)
        assert np.std(rates) / np.mean(rates) < 0.10


class TestExperimentFactories:
    def test_fig09_factory_builds_every_system(self, machine, tiny_model):
        for name in SYSTEMS:
            system = build_system(name, machine, tiny_model)
            assert system.name == name

    def test_fig13_variants_are_distinct_configs(self):
        assert len(VARIANTS) == 6
        assert VARIANTS["Hermes"] == HermesConfig()
        assert VARIANTS["Hermes-random"].partition_strategy == "random"
        assert not VARIANTS["Hermes-partition"].online_adjustment
        assert not VARIANTS["Hermes-token-adjustment"].layer_prediction
        assert not VARIANTS["Hermes-layer-adjustment"].token_prediction
        assert not VARIANTS["Hermes-adjustment"].window_scheduling


class TestWholeSystemInvariants:
    def test_hot_bytes_never_exceed_budget(
        self, machine, tiny_model, tiny_trace
    ):
        result = HermesSystem(machine, tiny_model).run(tiny_trace)
        assert result.metadata["hot_bytes"] \
            <= result.metadata["gpu_hot_budget"]

    def test_decode_rate_excludes_prefill(
        self, machine, tiny_model, tiny_trace
    ):
        result = HermesSystem(machine, tiny_model).run(tiny_trace)
        assert (result.decode_tokens_per_second >= result.tokens_per_second)

    def test_oracle_beats_or_ties_every_variant(
        self, machine, tiny_model, tiny_trace
    ):
        oracle = HermesSystem(
            machine, tiny_model,
            HermesConfig(oracle=True, window_scheduling=False,
                         online_adjustment=False)).run(tiny_trace)
        for name, config in VARIANTS.items():
            result = HermesSystem(machine, tiny_model, config).run(tiny_trace)
            assert (oracle.decode_latency_per_token
                    <= result.decode_latency_per_token * 1.10), name

    def test_cost_model_scales_with_dimms(self):
        small = machine_cost_usd(Machine(num_dimms=4))
        large = machine_cost_usd(Machine(num_dimms=16))
        assert large > small

    def test_migration_traffic_bounded_by_cold_pool(
        self, machine, tiny_model, tiny_trace
    ):
        """A run cannot migrate more unique bytes per rebalance than the
        cold pool holds; sanity-bound total traffic."""
        result = HermesSystem(machine, tiny_model).run(tiny_trace)
        sparse_total = (
            tiny_model.sparse_bytes_per_layer * tiny_model.num_layers
        )
        n_windows = max(1, tiny_trace.n_decode_tokens // 5)
        assert result.metadata["remap_bytes"] \
            <= sparse_total * n_windows

    def test_all_public_symbols_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
