"""Tests for the online serving subsystem (workload, metrics, scheduler)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import HermesSystem, batch_union_factor
from repro.hardware import Machine
from repro.models import get_model
from repro.serving import (
    LengthDistribution,
    MachineExecutor,
    Request,
    RequestRecord,
    ServingConfig,
    ServingSimulator,
    WorkloadConfig,
    generate_workload,
    get_policy,
    percentile,
    time_weighted_mean,
    workload_from_arrivals,
)
from repro.sparsity import TraceConfig, generate_trace


# ----------------------------------------------------------------------
# workload generation
# ----------------------------------------------------------------------
class TestWorkload:
    def test_deterministic_for_seed(self):
        config = WorkloadConfig(rate=10.0, num_requests=32)
        a = generate_workload(config, seed=5)
        b = generate_workload(config, seed=5)
        assert [(r.arrival, r.prompt_len, r.output_len) for r in a] \
            == [(r.arrival, r.prompt_len, r.output_len) for r in b]

    def test_seed_changes_workload(self):
        config = WorkloadConfig(rate=10.0, num_requests=32)
        a = generate_workload(config, seed=5)
        b = generate_workload(config, seed=6)
        assert [r.arrival for r in a] != [r.arrival for r in b]

    def test_poisson_rate_roughly_matches(self):
        config = WorkloadConfig(rate=8.0, num_requests=2000)
        workload = generate_workload(config, seed=1)
        span = workload[-1].arrival
        assert 8.0 == pytest.approx(len(workload) / span, rel=0.15)

    def test_arrivals_sorted_and_ids_unique(self):
        workload = generate_workload(
            WorkloadConfig(arrival="bursty", rate=10.0, num_requests=64),
            seed=2,
        )
        arrivals = [r.arrival for r in workload]
        assert arrivals == sorted(arrivals)
        assert len({r.req_id for r in workload}) == len(workload)

    def test_bursty_preserves_mean_rate(self):
        config = WorkloadConfig(
            arrival="bursty",
            rate=8.0,
            num_requests=4000,
            burst_factor=4.0,
            burst_fraction=0.2,
        )
        workload = generate_workload(config, seed=3)
        realised = len(workload) / workload[-1].arrival
        assert realised == pytest.approx(8.0, rel=0.25)

    def test_bursty_is_burstier_than_poisson(self):
        """Squared coefficient of variation of inter-arrival gaps > 1."""
        config = WorkloadConfig(
            arrival="bursty",
            rate=10.0,
            num_requests=4000,
            burst_factor=4.0,
            burst_fraction=0.2,
        )
        gaps = np.diff([r.arrival for r in generate_workload(config, seed=4)])
        cv2 = gaps.var() / gaps.mean() ** 2
        assert cv2 > 1.2

    def test_length_distributions(self):
        rng = np.random.default_rng(0)
        fixed = LengthDistribution(mean=77)
        assert all(fixed.sample(rng) == 77 for _ in range(5))
        uniform = LengthDistribution(kind="uniform", low=10, high=20)
        draws = [uniform.sample(rng) for _ in range(200)]
        assert min(draws) >= 10 and max(draws) <= 20
        heavy = LengthDistribution(
            kind="lognormal", mean=100, sigma=0.5, low=1, high=4096
        )
        draws = [heavy.sample(rng) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(100, rel=0.1)

    def test_trace_driven_workload(self):
        workload = workload_from_arrivals([0.0, 0.5, 2.0], 64, [8, 16, 24])
        assert [r.output_len for r in workload] == [8, 16, 24]
        assert all(r.prompt_len == 64 for r in workload)
        with pytest.raises(ValueError):
            workload_from_arrivals([1.0, 0.5], 64, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(rate=0.0)
        with pytest.raises(ValueError):
            WorkloadConfig(arrival="sinusoid")
        with pytest.raises(ValueError):
            # quiet-state rate would go negative
            WorkloadConfig(arrival="bursty", burst_factor=6.0,
                           burst_fraction=0.2)
        with pytest.raises(ValueError):
            LengthDistribution(kind="uniform")
        with pytest.raises(ValueError):
            Request(req_id=0, arrival=0.0, prompt_len=0, output_len=4)


# ----------------------------------------------------------------------
# metric math
# ----------------------------------------------------------------------
class TestPercentile:
    def test_hand_computed_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile(values, 25) == pytest.approx(1.75)
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_order_independent(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)

    def test_single_value(self):
        assert percentile([7.5], 99) == 7.5

    def test_p99_hand_computed(self):
        values = list(map(float, range(1, 101)))  # 1..100
        # rank = 99 * 0.99 = 98.01 -> 99 + 0.01 * (100 - 99)
        assert percentile(values, 99) == pytest.approx(99.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_time_weighted_mean_hand_computed(self):
        # 0 until t=1, then 2 until t=3, then 4 until horizon 4
        samples = [(1.0, 2.0), (3.0, 4.0)]
        assert time_weighted_mean(samples, 4.0) == pytest.approx(
            (0 * 1 + 2 * 2 + 4 * 1) / 4.0
        )


class TestRequestRecord:
    def test_latency_accessors(self):
        request = Request(req_id=0, arrival=1.0, prompt_len=8, output_len=3)
        record = RequestRecord(
            request=request, prefill_start=1.5, token_times=[2.0, 2.25, 2.75]
        )
        assert record.finished
        assert record.queue_wait == pytest.approx(0.5)
        assert record.ttft == pytest.approx(1.0)
        assert record.e2e_latency == pytest.approx(1.75)
        assert record.tbts == pytest.approx([0.25, 0.5])


# ----------------------------------------------------------------------
# policies + executor
# ----------------------------------------------------------------------
class TestPolicies:
    def test_registry(self):
        for name in ("fcfs", "fcfs-nobatch", "sjf", "hermes-union"):
            assert get_policy(name).name == name
        with pytest.raises(KeyError):
            get_policy("priority-lottery")

    def test_sjf_orders_by_output_len(self):
        queue = [Request(req_id=i, arrival=float(i), prompt_len=8,
                         output_len=n)
                 for i, n in enumerate([30, 10, 20])]
        ordered = get_policy("sjf").order(queue)
        assert [r.output_len for r in ordered] == [10, 20, 30]

    def test_fcfs_orders_by_arrival(self):
        queue = [Request(req_id=i, arrival=a, prompt_len=8, output_len=8)
                 for i, a in enumerate([2.0, 0.5, 1.0])]
        ordered = get_policy("fcfs").order(queue)
        assert [r.arrival for r in ordered] == [0.5, 1.0, 2.0]

    def test_empty_queue_round_is_noop(self):
        """Regression: every policy must tolerate an empty queue round."""
        for name in ("fcfs", "fcfs-nobatch", "sjf", "hermes-union"):
            assert get_policy(name).order([]) == []

    def test_sjf_equal_output_lengths_tiebreak_deterministic(self):
        """Regression: SJF ties on output_len fall back to (arrival,
        req_id) — a stable total order, not dict/insertion order."""
        queue = [Request(req_id=i, arrival=a, prompt_len=8, output_len=16)
                 for i, a in enumerate([1.0, 0.25, 0.25, 0.5])]
        ordered = get_policy("sjf").order(queue)
        assert [r.req_id for r in ordered] == [1, 2, 3, 0]
        # shuffled input produces the identical order
        assert get_policy("sjf").order(queue[::-1]) == ordered


class TestUnionCapEdgeCases:
    @pytest.fixture(scope="class")
    def executor(self, machine, tiny_model, tiny_trace):
        return MachineExecutor(machine, tiny_model, trace=tiny_trace)

    def test_cap_at_single_request_union_admits_batch_one(self, executor):
        """Regression: union_cap == the single-request union factor (1.0)
        must still admit exactly one request, never zero."""
        from repro.serving import HermesUnionPolicy
        policy = HermesUnionPolicy(union_cap=1.0)
        assert policy.batch_limit(executor, 16) == 1
        # caps numerically below 1.0 (bypassing the constructor check)
        # keep the batch-1 floor rather than wedging the machine
        assert executor.max_union_batch(0.5, 16) == 1

    def test_cap_below_one_rejected_by_constructor(self):
        from repro.serving import HermesUnionPolicy
        with pytest.raises(ValueError):
            HermesUnionPolicy(union_cap=0.99)

    def test_limit_one_short_circuits(self, executor):
        assert executor.max_union_batch(10.0, 1) == 1
        with pytest.raises(ValueError):
            executor.max_union_batch(10.0, 0)

    def test_union_capped_serving_run_completes(self, tiny_trace):
        """A union cap of exactly 1.0 degrades to no-batching service
        but must still drain the whole workload deterministically."""
        from repro.serving import HermesUnionPolicy
        workload = generate_workload(
            WorkloadConfig(rate=500.0, num_requests=12,
                           prompt_lens=LengthDistribution(mean=16),
                           output_lens=LengthDistribution(mean=6)),
            seed=5)
        reports = [
            ServingSimulator("tiny-test", HermesUnionPolicy(union_cap=1.0),
                             ServingConfig(max_batch=8),
                             trace=tiny_trace).run(workload)
            for _ in range(2)
        ]
        assert all(len(r.completed) == 12 for r in reports)
        assert reports[0].makespan == reports[1].makespan
        assert reports[0].mean_batch_size <= 1.0 + 1e-9

    def test_zero_batch_limit_policy_is_clamped(self, tiny_trace):
        """Regression: a (buggy) policy returning batch_limit 0 used to
        strand the queue forever; the simulator clamps it to 1 — and
        surfaces the repair as a warning plus a report counter instead
        of silently fixing the policy."""
        from repro.serving import BatchingPolicy

        class ZeroLimit(BatchingPolicy):
            name = "zero-limit"

            def batch_limit(self, executor, max_batch):
                return 0

        workload = generate_workload(
            WorkloadConfig(rate=500.0, num_requests=6,
                           prompt_lens=LengthDistribution(mean=16),
                           output_lens=LengthDistribution(mean=4)),
            seed=6)
        with pytest.warns(RuntimeWarning, match="clamped to 1"):
            report = ServingSimulator("tiny-test", ZeroLimit(),
                                      ServingConfig(max_batch=8),
                                      trace=tiny_trace).run(workload)
        assert len(report.completed) == 6
        assert report.batch_limit_clamps == 1

    def test_clamp_counted_once_per_machine(self, tiny_trace):
        """The limit is constant per machine, so the count is exact —
        one note per affected machine, not one per scheduling round."""
        from repro.serving import BatchingPolicy

        class NegativeLimit(BatchingPolicy):
            name = "negative-limit"

            def batch_limit(self, executor, max_batch):
                return -3

        workload = generate_workload(
            WorkloadConfig(rate=500.0, num_requests=8,
                           prompt_lens=LengthDistribution(mean=16),
                           output_lens=LengthDistribution(mean=4)),
            seed=6)
        with pytest.warns(RuntimeWarning, match="negative-limit"):
            report = ServingSimulator(
                "tiny-test", NegativeLimit(),
                ServingConfig(max_batch=8, num_machines=2),
                trace=tiny_trace).run(workload)
        assert len(report.completed) == 8
        assert report.batch_limit_clamps == 2

    def test_healthy_policies_never_clamp(self, tiny_trace):
        workload = generate_workload(
            WorkloadConfig(rate=500.0, num_requests=6,
                           prompt_lens=LengthDistribution(mean=16),
                           output_lens=LengthDistribution(mean=4)),
            seed=6)
        report = ServingSimulator("tiny-test", "fcfs",
                                  ServingConfig(max_batch=8),
                                  trace=tiny_trace).run(workload)
        assert report.batch_limit_clamps == 0


class TestExecutor:
    @pytest.fixture(scope="class")
    def executor(self, machine, tiny_model, tiny_trace):
        return MachineExecutor(machine, tiny_model, trace=tiny_trace)

    def test_prefill_grows_with_prompt(self, executor):
        assert executor.prefill_seconds(256) > executor.prefill_seconds(16)

    def test_decode_step_positive_and_stateful(self, executor):
        before = executor.session.steps_done
        cost = executor.decode_step(batch=2, context=40)
        assert cost.seconds > 0
        assert cost.gpu_busy > 0 and cost.dimm_busy >= 0
        assert executor.session.steps_done == before + 1

    def test_session_wraps_past_trace_end(
        self, machine, tiny_model, tiny_trace
    ):
        executor = MachineExecutor(machine, tiny_model, trace=tiny_trace)
        for _ in range(tiny_trace.n_decode_tokens + 5):
            executor.decode_step(batch=1, context=33)
        assert executor.session.steps_done > tiny_trace.n_decode_tokens

    def test_union_batch_cap_monotone(self, executor):
        loose = executor.max_union_batch(10.0, 16)
        tight = executor.max_union_batch(1.0, 16)
        assert loose == 16  # tiny-test unions stay below 1.3
        assert tight == 1
        assert executor.max_union_batch(1.2, 16) <= loose


# ----------------------------------------------------------------------
# end-to-end serving simulation
# ----------------------------------------------------------------------
SATURATED = WorkloadConfig(
    rate=2000.0, num_requests=40,
    prompt_lens=LengthDistribution(mean=32),
    output_lens=LengthDistribution(kind="uniform", mean=24, low=8, high=40))


def _simulate(tiny_trace, policy, **kwargs):
    simulator = ServingSimulator(
        "tiny-test",
        policy,
        ServingConfig(**{"max_batch": 8, **kwargs}),
        trace=tiny_trace,
    )
    return simulator.run(generate_workload(SATURATED, seed=3))


class TestServingSimulator:
    @pytest.fixture(scope="class")
    def fcfs_report(self, tiny_trace):
        return _simulate(tiny_trace, "fcfs")

    def test_all_requests_complete_with_full_output(self, fcfs_report):
        assert len(fcfs_report.completed) == 40
        for record in fcfs_report.records:
            assert len(record.token_times) == record.request.output_len

    def test_timestamps_causal(self, fcfs_report):
        for record in fcfs_report.completed:
            assert record.prefill_start >= record.request.arrival
            assert record.first_token_time > record.prefill_start
            assert record.token_times == sorted(record.token_times)

    def test_continuous_batching_beats_no_batching_at_saturation(
        self, tiny_trace
    ):
        batched = _simulate(tiny_trace, "fcfs")
        serial = _simulate(tiny_trace, "fcfs-nobatch")
        assert batched.tokens_per_second > 2.0 * serial.tokens_per_second
        assert batched.e2e_percentile(99) < serial.e2e_percentile(99)
        assert serial.mean_batch_size <= 1.0 + 1e-9

    def test_deterministic(self, tiny_trace):
        a = _simulate(tiny_trace, "fcfs")
        b = _simulate(tiny_trace, "fcfs")
        assert a.makespan == b.makespan
        assert a.ttft_percentile(99) == b.ttft_percentile(99)

    def test_queue_builds_at_saturation(self, fcfs_report):
        assert fcfs_report.max_queue_depth >= 8
        assert fcfs_report.mean_queue_depth > 0

    def test_batch_cap_respected(self, fcfs_report):
        assert fcfs_report.mean_batch_size <= 8.0
        assert max(v for _, v in fcfs_report.batch_samples) <= 8.0

    def test_utilization_fractions_sane(self, fcfs_report):
        assert 0.0 < fcfs_report.gpu_utilization <= 1.0
        assert 0.0 <= fcfs_report.dimm_utilization <= 1.0

    def test_two_machines_scale_throughput(self, tiny_trace):
        one = _simulate(tiny_trace, "fcfs")
        two = _simulate(tiny_trace, "fcfs", num_machines=2)
        assert two.tokens_per_second > 1.4 * one.tokens_per_second
        machines = {r.machine for r in two.completed}
        assert machines == {0, 1}

    def test_simultaneous_burst_on_shared_queue(self, tiny_trace):
        """Machines admitting concurrently from one queue must not collide.

        Regression: every request arrives at ~t=0, so multiple machines sit
        in admission over the same shared queue; a stale policy-order
        snapshot held across a prefill yield used to double-admit.
        """
        burst = WorkloadConfig(
            rate=1e5,
            num_requests=48,
            prompt_lens=LengthDistribution(mean=16),
            output_lens=LengthDistribution(mean=8),
        )
        workload = generate_workload(burst, seed=4)
        report = ServingSimulator(
            "tiny-test", "fcfs",
            ServingConfig(max_batch=8, num_machines=3),
            trace=tiny_trace).run(workload)
        assert len(report.completed) == 48
        assert {r.machine for r in report.completed} == {0, 1, 2}

    def test_tbt_tracks_engine_step_latency(
        self, tiny_trace, machine, tiny_model
    ):
        """Median TBT should match the engine's per-step decode latency."""
        report = _simulate(tiny_trace, "fcfs")
        single = HermesSystem(machine, tiny_model).run(tiny_trace, batch=4)
        engine_step = single.decode_latency_per_token
        assert report.tbt_percentile(50) == pytest.approx(
            engine_step, rel=0.75
        )

    def test_underload_leaves_queue_empty(self, tiny_trace):
        calm = WorkloadConfig(
            rate=5.0,
            num_requests=10,
            prompt_lens=LengthDistribution(mean=16),
            output_lens=LengthDistribution(mean=8),
        )
        simulator = ServingSimulator(
            "tiny-test", "fcfs", ServingConfig(max_batch=8), trace=tiny_trace
        )
        report = simulator.run(generate_workload(calm, seed=1))
        assert len(report.completed) == 10
        assert report.mean_queue_depth < 0.5

    def test_rejects_empty_workload(self, tiny_trace):
        simulator = ServingSimulator("tiny-test", trace=tiny_trace)
        with pytest.raises(ValueError):
            simulator.run([])


# ----------------------------------------------------------------------
# policy select(), vectorized mean_union, partition cache
# ----------------------------------------------------------------------
#: module-level trace shared by the pins below
_TRACE = None


def _trace():
    global _TRACE
    if _TRACE is None:
        _TRACE = generate_trace(
            get_model("tiny-test"),
            TraceConfig(prompt_len=16, decode_len=24, granularity=8),
            seed=11,
        )
    return _TRACE


class TestPolicySelect:
    def test_select_matches_order_head(self):
        from repro.cluster.slo import (
            PriorityClass,
            PriorityOrderedPolicy,
            SLOPolicy,
        )
        from repro.serving import get_policy
        rng = np.random.default_rng(5)
        slo = SLOPolicy(classes=(
            PriorityClass(name="default"),
            PriorityClass(name="hi", priority=3, ttft_slo=0.1),
        ))
        base_policies = [
            get_policy(n) for n in ("fcfs", "sjf", "hermes-union")
        ]
        policies = base_policies + [
            PriorityOrderedPolicy(base, slo) for base in base_policies
        ]
        for trial in range(20):
            n = int(rng.integers(1, 12))
            queue = [
                generate_workload(
                    WorkloadConfig(rate=50.0, num_requests=1),
                    seed=100 * trial + i,
                    class_name="hi" if rng.random() < 0.4 else "default",
                )[0]
                for i in range(n)
            ]
            queue = [
                dataclasses.replace(r, req_id=i) for i, r in enumerate(queue)
            ]
            for policy in policies:
                head = policy.order(queue)[0]
                assert queue[policy.select(queue)] is head

    def test_mean_union_matches_per_layer_loop(self):
        executor = MachineExecutor(
            Machine(), get_model("tiny-test"), trace=_trace()
        )
        freqs = executor.session.freqs
        for batch in (1, 2, 5, 8):
            reference = float(np.mean(
                [batch_union_factor(freq, batch) for freq in freqs]))
            assert executor.mean_union(batch) == reference

    def test_partition_cache_reuses_solution_across_runs(self):
        trace = generate_trace(
            get_model("tiny-test"),
            TraceConfig(prompt_len=16, decode_len=24, granularity=8),
            seed=23,
        )
        a = MachineExecutor(Machine(), get_model("tiny-test"), trace=trace)
        b = MachineExecutor(Machine(), get_model("tiny-test"), trace=trace)
        pa, pb = a.session.partition, b.session.partition
        # distinct objects (window scheduling mutates them per run) with
        # identical solved contents
        assert pa is not pb
        assert np.array_equal(pa.hot_masks, pb.hot_masks)
        assert np.array_equal(pa.dimm_of, pb.dimm_of)
