"""Bit-equality pins for the sharded cluster event loop.

``config.shards`` partitions the fleet into per-shard calendars
synchronized only at crash instants (see :mod:`repro.cluster.sharded`).
The contract pinned here: for a fixed scenario and seed, the sharded
run equals the single-calendar reference — records (every token
timestamp, preemption, migration), per-machine busy time, makespan,
and batch-occupancy statistics — for any shard count.

Scope notes (deliberate, documented in the module under test):

* fault equality runs use the session-affinity router: round-robin's
  shared counter makes arrivals landing *exactly* on a crash instant
  order-ambiguous against that instant's migrations in the reference
  (heap order), so round-robin is pinned fault-free only;
* crash instants are distinct per machine — simultaneous multi-machine
  crashes with refugees routed onto co-crashed machines are likewise
  heap-order-ambiguous in the reference;
* ``mean_queue_depth`` is excluded: the reference may ingest (and
  sample) a waiting arrival at another shard's machine boundary; no
  scheduling decision observes that difference.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.serving import (
    MachineGroup,
    ServingConfig,
    ServingSimulator,
    WorkloadConfig,
    generate_workload,
)
from repro.serving.faults import CrashSpec, FaultSchedule
from repro.serving.workload import merge_workloads

MODEL = "tiny-test"

FLEETS = {
    "hermes": None,  # homogeneous default fleet
    "dense": [MachineGroup(count=4, backend="dense")],
    "mixed": [
        MachineGroup(count=2, backend="dense"),
        MachineGroup(count=2, backend="dejavu"),
    ],
}


def _workload(n_tenants=6, per=15, rate=8.0, seed=5):
    streams = [
        generate_workload(
            WorkloadConfig(num_requests=per, rate=rate),
            seed=seed + i,
            tenant=f"t{i}",
        )
        for i in range(n_tenants)
    ]
    return merge_workloads(*streams)


def _run(config, workload, fleet=None):
    sim = ClusterSimulator(MODEL, "fcfs", config, fleet=fleet)
    return sim.run(list(workload))


def _assert_reports_equal(ref, rep):
    assert rep.makespan == ref.makespan
    assert rep.machine_gpu_busy == ref.machine_gpu_busy
    assert rep.machine_dimm_busy == ref.machine_dimm_busy
    assert rep.batch_samples == sorted(
        rep.batch_samples, key=lambda s: s[0]
    )
    assert len(rep.records) == len(ref.records)
    for a, b in zip(ref.records, rep.records):
        assert a.request.req_id == b.request.req_id
        assert a.machine == b.machine
        assert a.prefill_start == b.prefill_start
        assert a.token_times == b.token_times
        assert a.preemptions == b.preemptions
        assert a.migrations == b.migrations
        assert a.needs_prefill == b.needs_prefill
    assert rep.mean_batch_size == ref.mean_batch_size


class TestShardedEqualsSingleProcess:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        fleet_name=st.sampled_from(sorted(FLEETS)),
        router=st.sampled_from(["round-robin", "session-affinity"]),
        shards=st.sampled_from([1, 2, 4]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_fault_free(self, fleet_name, router, shards, seed):
        """Sharded == reference, fault-free, all fleets and routers."""
        workload = _workload(seed=11 + seed)
        base = ClusterConfig(num_machines=4, router=router, max_batch=4)
        ref = _run(base, workload, fleet=FLEETS[fleet_name])
        cfg = dataclasses.replace(base, shards=shards)
        rep = _run(cfg, workload, fleet=FLEETS[fleet_name])
        _assert_reports_equal(ref, rep)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        fleet_name=st.sampled_from(sorted(FLEETS)),
        shards=st.sampled_from([1, 2, 4]),
        crash_times=st.lists(
            st.floats(min_value=0.3, max_value=4.0),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_with_crashes(self, fleet_name, shards, crash_times, seed):
        """Sharded == reference under crash/restart faults.

        Distinct crash instants on distinct machines, session-affinity
        routing (order-independent targets) — the supported fault
        envelope; see the module docstring for why.
        """
        faults = FaultSchedule(crashes=tuple(
            CrashSpec(machine=i % 4, at=at, restart_after=0.5 + 0.2 * i)
            for i, at in enumerate(sorted(crash_times))
        ))
        workload = _workload(per=25, seed=17 + seed)
        base = ClusterConfig(
            num_machines=4,
            router="session-affinity",
            max_batch=4,
            faults=faults,
        )
        ref = _run(base, workload, fleet=FLEETS[fleet_name])
        cfg = dataclasses.replace(base, shards=shards)
        rep = _run(cfg, workload, fleet=FLEETS[fleet_name])
        _assert_reports_equal(ref, rep)

    def test_crash_migrations_actually_happen(self):
        """The fault pin above must exercise real cross-machine hops."""
        faults = FaultSchedule(crashes=(
            CrashSpec(machine=1, at=0.9, restart_after=0.7),
            CrashSpec(machine=3, at=1.9, restart_after=0.6),
        ))
        workload = _workload(per=40, seed=5)
        base = ClusterConfig(
            num_machines=4,
            router="session-affinity",
            max_batch=4,
            faults=faults,
        )
        ref = _run(base, workload)
        assert sum(r.migrations for r in ref.records) > 0
        rep = _run(dataclasses.replace(base, shards=4), workload)
        _assert_reports_equal(ref, rep)

    def test_two_sharded_runs_identical(self):
        """Sharded runs are deterministic run-to-run (golden drift)."""
        workload = _workload(per=15, seed=31)
        cfg = ClusterConfig(num_machines=4, router="round-robin",
                            max_batch=4, shards=2)
        a = _run(cfg, workload)
        b = _run(cfg, workload)
        _assert_reports_equal(a, b)


class TestShardedTelemetry:
    def test_merged_stream_is_time_ordered_and_complete(self):
        from repro.telemetry.events import (
            RequestCompleted,
            RunEnded,
            RunStarted,
        )
        from repro.telemetry.tracer import RecordingTracer

        workload = _workload(per=10, seed=7)
        cfg = ClusterConfig(num_machines=4, router="round-robin",
                            max_batch=4, shards=2)
        tracer = RecordingTracer()
        report = _run(cfg, workload)
        sim = ClusterSimulator(MODEL, "fcfs", cfg)
        traced = sim.run(list(workload), tracer=tracer)
        _assert_reports_equal(report, traced)
        events = tracer.events
        assert isinstance(events[0], RunStarted)
        assert isinstance(events[-1], RunEnded)
        times = [e.time for e in events[1:-1]]
        assert times == sorted(times)
        completed = [
            e for e in events if isinstance(e, RequestCompleted)
        ]
        assert len(completed) == len(
            [r for r in traced.records if r.finished]
        )


class TestShardedValidation:
    def test_base_simulator_rejects_shards(self):
        cfg = ServingConfig(num_machines=2, shards=2)
        sim = ServingSimulator(MODEL, "fcfs", cfg)
        with pytest.raises(ValueError, match="cluster front door"):
            sim.run(_workload(per=2))

    def test_more_shards_than_machines(self):
        cfg = ClusterConfig(num_machines=2, shards=3)
        with pytest.raises(ValueError, match="cannot exceed"):
            _run(cfg, _workload(per=2))

    def test_load_dependent_router_rejected(self):
        cfg = ClusterConfig(num_machines=4, router="least-loaded",
                            shards=2)
        with pytest.raises(ValueError, match="not shardable"):
            _run(cfg, _workload(per=2))

    def test_health_aware_rejected(self):
        faults = FaultSchedule(crashes=(
            CrashSpec(machine=0, at=1.0, restart_after=0.5),
        ))
        cfg = ClusterConfig(num_machines=4, shards=2, health_aware=True,
                            faults=faults)
        with pytest.raises(ValueError, match="health_aware"):
            _run(cfg, _workload(per=2))

    def test_partitions_rejected(self):
        from repro.serving.faults import PartitionSpec

        faults = FaultSchedule(partitions=(
            PartitionSpec(machine=0, start=1.0, end=2.0),
        ))
        cfg = ClusterConfig(num_machines=4, shards=2, faults=faults)
        with pytest.raises(ValueError, match="partition"):
            _run(cfg, _workload(per=2))
