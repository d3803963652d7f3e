"""Tests for the pluggable serving backends and heterogeneous fleets."""

from __future__ import annotations

import math

import pytest

from repro.baselines import DejaVu, FlexGen
from repro.cluster import ThroughputLeastLoadedRouter, get_router
from repro.models import get_model
from repro.serving import (
    BACKENDS,
    DejaVuBackend,
    DenseGPUBackend,
    LengthDistribution,
    MachineExecutor,
    MachineGroup,
    Request,
    ServingBackend,
    ServingConfig,
    ServingSimulator,
    WorkloadConfig,
    generate_workload,
    make_backend,
)
from repro.sparsity import TraceConfig, generate_trace


@pytest.fixture(scope="module")
def backends(machine, tiny_model, tiny_trace):
    return {
        name: make_backend(name, machine, tiny_model, trace=tiny_trace,
                           nominal_batch=4)
        for name in BACKENDS
    }


class TestRegistry:
    def test_registry_names(self):
        assert set(BACKENDS) == {"hermes", "dense", "dejavu"}

    def test_instances_satisfy_protocol(self, backends):
        for name, backend in backends.items():
            assert isinstance(backend, ServingBackend), name
            assert backend.name == name

    def test_unknown_backend_rejected(self, machine, tiny_model):
        with pytest.raises(KeyError, match="unknown backend"):
            make_backend("vllm", machine, tiny_model)


class TestSteppableSurface:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_decode_step_positive_and_tracked(self, backends, name):
        backend = backends[name]
        cost = backend.decode_step(2, 40)
        assert cost.seconds > 0
        assert cost.gpu_busy >= 0 and cost.dimm_busy >= 0

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_prefill_cost_memoised_and_growing(self, backends, name):
        backend = backends[name]
        short = backend.prefill_seconds(16)
        long = backend.prefill_seconds(256)
        assert 0 < short < long
        assert backend.prefill_cost(16) == backend.prefill_cost(16)

    def test_dense_mean_union_is_one(self, backends):
        for batch in (1, 2, 8):
            assert backends["dense"].mean_union(batch) == 1.0
        assert backends["dense"].max_union_batch(1.0, 16) == 16

    def test_dejavu_union_grows_with_batch(self, backends):
        dejavu = backends["dejavu"]
        assert dejavu.mean_union(1) == 1.0
        assert dejavu.mean_union(8) > dejavu.mean_union(2) > 1.0
        assert dejavu.max_union_batch(1.0, 16) == 1
        assert dejavu.max_union_batch(10.0, 16) == 16

    def test_dejavu_matches_offline_kernel(
        self, machine, tiny_model, tiny_trace
    ):
        """The backend charges the offline baseline's own token cost."""
        backend = DejaVuBackend(machine, tiny_model, trace=tiny_trace)
        core = DejaVu(machine, tiny_model)
        union = core.union_factors(tiny_trace, 2)
        t = next(iter(tiny_trace.decode_tokens()))
        want = core.token_cost(tiny_trace, t, 40, 2, union)
        got = backend.decode_step(2, 40)
        assert got.seconds == want.total

    def test_dense_resident_on_tiny_model(self, backends, machine, tiny_model):
        """tiny-test fits the GPU, so decode moves zero PCIe bytes and
        one token costs exactly L dense HBM reads plus attention."""
        dense = backends["dense"]
        assert dense.resident_fraction == 1.0
        cost = dense.decode_step(1, 40)
        assert cost.gpu_busy == cost.seconds

    def test_dense_streams_oversized_model(self, machine):
        """A model larger than GPU memory streams over PCIe: decode gets
        transfer-bound and the step takes far longer per byte."""
        model = get_model("OPT-30B")
        dense = DenseGPUBackend(machine, model)
        assert 0.0 <= dense.resident_fraction < 1.0
        cost = dense.decode_step(1, 40)
        assert cost.gpu_busy < cost.seconds

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_throughput_estimate_pure_and_deterministic(
        self, machine, tiny_model, tiny_trace, name
    ):
        a = make_backend(name, machine, tiny_model, trace=tiny_trace)
        b = make_backend(name, machine, tiny_model, trace=tiny_trace)
        a.decode_step(2, 40)
        est = a.estimated_tokens_per_second()
        assert est > 0
        assert est == b.estimated_tokens_per_second()
        # probing did not advance a's serving state: its next steps
        # still march in lockstep with the unprobed control instance
        b.decode_step(2, 40)
        for context in (41, 42, 43):
            assert (a.decode_step(2, context).seconds
                    == b.decode_step(2, context).seconds)

    def test_backend_ordering_matches_offline_story(self, machine):
        """On a model well beyond GPU memory, sparsity beats dense
        streaming per token — the fig09 ordering, now online.  (OPT-13B
        is ~94 % resident on the default machine, so the dense stream is
        nearly free there; OPT-30B is the smallest model where PCIe
        dominates.)"""
        model = get_model("OPT-30B")
        config = TraceConfig(prompt_len=16, decode_len=16, granularity=256)
        trace = generate_trace(model, config, seed=11)
        dense = DenseGPUBackend(machine, model)
        dejavu = DejaVuBackend(machine, model, trace=trace)
        assert (dejavu.decode_step(1, 65).seconds
                < dense.decode_step(1, 65).seconds)

    def test_dejavu_rejects_mismatched_trace(self, machine, tiny_trace):
        with pytest.raises(ValueError, match="trace"):
            DejaVuBackend(machine, get_model("OPT-13B"), trace=tiny_trace)


class TestInheritedSurface:
    """The surface every backend inherits from :class:`ServingBackend`."""

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_one_step_span_is_one_decode_step(
        self, machine, tiny_model, tiny_trace, name
    ):
        backend, twin = (
            make_backend(name, machine, tiny_model, trace=tiny_trace)
            for _ in range(2)
        )
        step = twin.decode_step(2, 40)
        assert backend.span_estimate(2, 40, 1) == (
            step.seconds, step.gpu_busy, step.dimm_busy
        )

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_degrade_round_trip_restores_costs(
        self, machine, tiny_model, tiny_trace, name
    ):
        backend = make_backend(name, machine, tiny_model, trace=tiny_trace)
        prefill = backend.prefill_cost(16)
        throughput = backend.estimated_tokens_per_second()
        backend.degrade(0.5, 0.5)
        backend.degrade(1.0, 1.0)
        assert backend.prefill_cost(16) == prefill
        assert backend.estimated_tokens_per_second() == throughput

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_kv_capacity_lives_on_the_dimm_pool(
        self, machine, tiny_model, tiny_trace, name
    ):
        backend = make_backend(name, machine, tiny_model, trace=tiny_trace)
        pristine = backend.kv_capacity_tokens()
        backend.degrade(0.5, 1.0)
        if name == "hermes":
            assert backend.kv_capacity_tokens() < pristine < math.inf
        else:
            assert backend.kv_capacity_tokens() == pristine == math.inf

    def test_hermes_span_probes_shared_per_hardware(
        self, machine, tiny_model, tiny_trace
    ):
        store: dict = {}
        a, b = (
            MachineExecutor(
                machine, tiny_model, trace=tiny_trace, probe_store=store
            )
            for _ in range(2)
        )
        quote = a.span_estimate(2, 40.0, 8)
        steps = b.session.steps_done
        assert b.span_estimate(2, 40.0, 8) == quote
        assert b.session.steps_done == steps  # read from a's probes
        b.degrade(0.5, 0.5)
        fresh = MachineExecutor(b.machine, tiny_model, trace=tiny_trace)
        degraded = b.span_estimate(2, 40.0, 8)
        assert degraded == fresh.span_estimate(2, 40.0, 8)
        assert degraded != quote
        b.degrade(1.0, 1.0)
        assert b.span_estimate(2, 40.0, 8) == quote


class TestMachineGroup:
    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            MachineGroup(count=0)
        with pytest.raises(ValueError, match="unknown backend"):
            MachineGroup(backend="vllm")
        with pytest.raises(ValueError, match="nominal_batch"):
            MachineGroup(nominal_batch=0)

    def test_fleet_needs_groups(self, tiny_trace):
        with pytest.raises(ValueError, match="at least one"):
            ServingSimulator("tiny-test", "fcfs", trace=tiny_trace, fleet=[])

    def test_fleet_overrides_num_machines(self, tiny_trace):
        sim = ServingSimulator(
            "tiny-test", "fcfs",
            ServingConfig(max_batch=4, num_machines=1),
            trace=tiny_trace,
            fleet=[MachineGroup(count=2, backend="dense"),
                   MachineGroup(count=1, backend="dejavu")])
        assert sim.config.num_machines == 3
        assert sim.machine_backends == ["dense", "dense", "dejavu"]

    def test_group_model_override(self, machine, tiny_trace):
        sim = ServingSimulator(
            "tiny-test",
            "fcfs",
            ServingConfig(max_batch=4),
            trace=tiny_trace,
            granularity=4,
            fleet=[MachineGroup(count=1, backend="dense", model="OPT-13B")],
        )
        assert sim.executors[0].model.name == "OPT-13B"

    def test_hermes_fleet_reproduces_homogeneous_run(self, tiny_trace):
        """Acceptance pin: a 1-group hermes-only fleet is bit-for-bit
        today's homogeneous report."""
        workload = generate_workload(
            WorkloadConfig(rate=800.0, num_requests=14,
                           prompt_lens=LengthDistribution(mean=24),
                           output_lens=LengthDistribution(
                               kind="uniform", mean=10, low=4, high=16)),
            seed=4)
        config = ServingConfig(max_batch=6, num_machines=2)
        old = ServingSimulator("tiny-test", "fcfs", config,
                               trace=tiny_trace).run(list(workload))
        new = ServingSimulator("tiny-test", "fcfs", config,
                               trace=tiny_trace,
                               fleet=[MachineGroup(count=2)]
                               ).run(list(workload))
        assert old.makespan == new.makespan
        assert old.machine_gpu_busy == new.machine_gpu_busy
        assert old.machine_dimm_busy == new.machine_dimm_busy
        assert ([r.token_times for r in old.records]
                == [r.token_times for r in new.records])
        assert old.queue_samples == new.queue_samples


class TestThroughputRouter:
    def _request(self, i):
        return Request(req_id=i, arrival=float(i), prompt_len=8, output_len=4)

    def test_normalizes_load_by_speed(self):
        router = ThroughputLeastLoadedRouter()
        router.bind_fleet([10.0, 100.0])
        # 3 queued on the 10x faster machine drain before 1 on the slow
        assert router.route(self._request(0), [1.0, 3.0]) == 1
        # uniform speeds: plain least-loaded with ties to lowest index
        router.bind_fleet([5.0, 5.0])
        assert router.route(self._request(1), [2.0, 2.0]) == 0
        assert router.route(self._request(2), [3.0, 1.0]) == 1

    def test_unbound_degenerates_to_least_loaded(self):
        router = ThroughputLeastLoadedRouter()
        assert router.route(self._request(0), [2.0, 1.0, 3.0]) == 1

    def test_bind_validation(self):
        router = ThroughputLeastLoadedRouter()
        with pytest.raises(ValueError, match="positive"):
            router.bind_fleet([1.0, 0.0])
        router.bind_fleet([1.0, 2.0])
        with pytest.raises(ValueError, match="bound to 2"):
            router.route(self._request(0), [1.0, 1.0, 1.0])

    def test_registered(self):
        router = get_router("throughput-least-loaded")
        assert isinstance(router, ThroughputLeastLoadedRouter)
        assert router.needs_throughputs


class TestOfflineBaselinesStillOffline:
    """The steppable refactor keeps the offline run() surface intact."""

    def test_flexgen_token_cost_positive(self, machine, tiny_model):
        pipeline, transfer_only, attn = FlexGen(
            machine, tiny_model).token_cost(64, 2)
        assert pipeline >= transfer_only > 0
        assert attn > 0

    def test_executor_is_the_hermes_backend(
        self, machine, tiny_model, tiny_trace
    ):
        executor = MachineExecutor(machine, tiny_model, trace=tiny_trace)
        assert executor.name == "hermes"
        assert isinstance(executor, ServingBackend)
