"""Distribution-level validation of ``fidelity: fast``.

Fast fidelity replaces per-token event replay with one closed-form span
estimate per admitted batch (uniform token spacing within the span), so
it is *not* bit-equal to exact mode — individual token timestamps move
within a span.  What must survive is the distribution: the metrics a
study actually reports.  The contract pinned here, for fixed seeds:

* latency percentiles (TTFT, E2E at p50/p95/p99), makespan, goodput
  and tokens/sec within **5 %** relative (plus a 1 ms absolute floor
  for near-zero percentiles);
* SLO attainment fractions within **0.05** absolute;
* request completion counts and migration counts exactly equal (fast
  mode changes token *timing*, never scheduling outcomes at this
  granularity envelope).

The budget is calibrated against an exhaustive sweep of this grid
(rate × max_batch × seed): the measured worst case is ~2.9 % on tail
percentiles at max_batch=2 under 600 req/s overload — long spans with
tiny batches are where uniform spacing diverges most from the exact
context ramp — while moderate loads sit near ~1e-3 and the crash
drill near ~3e-4.  Goodput's deltas are additionally discrete (a
request flipping across the SLO boundary moves it by its whole token
count).  A fast run depends only on its own inputs (a fresh trace,
a trace another run already probed, and a repeated ``run()`` agree), and
a fast span ends only where a scheduling decision can change — all
pinned below.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.cluster.slo import PriorityClass, SLOPolicy
from repro.models import get_model
from repro.serving import WorkloadConfig, generate_workload
from repro.serving.executor import DEFAULT_TRACE_DECODE, DEFAULT_TRACE_PROMPT
from repro.serving.faults import (
    CrashSpec,
    DegradeSpec,
    DomainCrashSpec,
    DomainSpec,
    FaultSchedule,
    PartitionSpec,
    StragglerSpec,
)
from repro.serving.workload import merge_workloads
from repro.sparsity import TraceConfig, generate_trace
from repro.telemetry import DecodeStep, RecordingTracer

MODEL = "tiny-test"
REL_TOL = 0.05
ABS_FLOOR = 1e-3
ATTAINMENT_TOL = 0.05

SLO = SLOPolicy(classes=(
    PriorityClass(name="default", priority=0, ttft_slo=0.3, tbt_slo=0.01),
))


def _workload(per, rate, seed):
    return merge_workloads(*[
        generate_workload(
            WorkloadConfig(num_requests=per, rate=rate),
            seed=seed + i,
            tenant=f"t{i}",
        )
        for i in range(4)
    ])


def _pair(base, workload):
    """(exact report, fast report) for the same scenario."""
    reports = []
    for fid in ("exact", "fast"):
        cfg = dataclasses.replace(base, fidelity=fid)
        sim = ClusterSimulator(MODEL, "fcfs", cfg, slo=SLO)
        reports.append(sim.run(list(workload)))
    return reports


def _close(exact, fast):
    if math.isnan(exact):
        return math.isnan(fast)
    return abs(fast - exact) <= max(REL_TOL * abs(exact), ABS_FLOOR)


def _assert_distributions_close(exact, fast):
    assert len(fast.records) == len(exact.records)
    assert len(fast.completed) == len(exact.completed)
    assert (sum(r.migrations for r in fast.records)
            == sum(r.migrations for r in exact.records))
    assert _close(exact.makespan, fast.makespan)
    for p in (50, 95, 99):
        assert _close(exact.ttft_percentile(p), fast.ttft_percentile(p)), (
            f"ttft p{p}: exact={exact.ttft_percentile(p)} "
            f"fast={fast.ttft_percentile(p)}")
        assert _close(exact.e2e_percentile(p), fast.e2e_percentile(p)), (
            f"e2e p{p}: exact={exact.e2e_percentile(p)} "
            f"fast={fast.e2e_percentile(p)}")
    ea = exact.slo_attainment("default")
    fa = fast.slo_attainment("default")
    for key in ("ttft", "tbt", "joint"):
        assert abs(fa[key] - ea[key]) <= ATTAINMENT_TOL, (
            f"attainment[{key}]: exact={ea[key]} fast={fa[key]}")
    assert _close(exact.goodput, fast.goodput), (
        f"goodput: exact={exact.goodput} fast={fast.goodput}")
    assert _close(exact.tokens_per_second, fast.tokens_per_second)


class TestFastFidelityTolerance:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rate=st.sampled_from([8.0, 200.0, 600.0]),
        max_batch=st.sampled_from([2, 4, 8]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_fault_free(self, rate, max_batch, seed):
        """Percentiles/attainment/goodput within budget across loads."""
        base = ClusterConfig(num_machines=4, router="round-robin",
                             max_batch=max_batch)
        exact, fast = _pair(base, _workload(30, rate, 11 + seed))
        _assert_distributions_close(exact, fast)

    @pytest.mark.parametrize("router,faults", [
        ("session-affinity", FaultSchedule(crashes=(
            CrashSpec(machine=1, at=0.2, restart_after=0.3),
            CrashSpec(machine=3, at=0.5, restart_after=0.4),
        ))),
        ("least-loaded", FaultSchedule(degrades=(
            DegradeSpec(machine=1, at=0.1, dimm_fraction=0.5,
                        bandwidth_factor=0.5),))),
        ("least-loaded", FaultSchedule(stragglers=(
            StragglerSpec(machine=2, start=0.05, end=0.3, slowdown=4.0),))),
        ("least-loaded", FaultSchedule(partitions=(
            PartitionSpec(machine=0, start=0.05, end=0.25),))),
        ("least-loaded", FaultSchedule(
            domains=(DomainSpec("rack0", (0, 1)),),
            domain_crashes=(DomainCrashSpec("rack0", 0.1, 0.2),))),
    ], ids=["crash", "degrade", "straggler", "partition", "domain-crash"])
    def test_under_faults(self, router, faults):
        """Fault-cut spans stay within the same budget for every fault
        kind, and the crashing inputs do migrate requests."""
        base = ClusterConfig(num_machines=4, router=router, max_batch=4,
                             faults=faults)
        exact, fast = _pair(base, _workload(60, 300.0, 5))
        migrations = sum(r.migrations for r in exact.records)
        assert (migrations > 0) == bool(faults.expanded_crashes)
        _assert_distributions_close(exact, fast)


def _fresh_trace():
    """A new trace object equal to the simulator's default one."""
    return generate_trace(
        get_model(MODEL),
        TraceConfig(prompt_len=DEFAULT_TRACE_PROMPT,
                    decode_len=DEFAULT_TRACE_DECODE, granularity=64),
        seed=7)


def _assert_identical(a, b):
    assert a.makespan == b.makespan
    assert a.machine_gpu_busy == b.machine_gpu_busy
    assert a.machine_dimm_busy == b.machine_dimm_busy
    for ra, rb in zip(a.records, b.records, strict=True):
        assert ra.machine == rb.machine
        assert ra.prefill_start == rb.prefill_start
        assert ra.token_times == rb.token_times


class TestRunIsolation:
    CONFIG = ClusterConfig(num_machines=4, router="round-robin",
                           max_batch=4, fidelity="fast")

    def test_fast_run_ignores_earlier_runs_on_its_trace(self):
        """A fast run's report is the same on a fresh trace and on a
        trace a different fast run has already probed."""
        workload = _workload(20, 100.0, 29)
        cold = ClusterSimulator(MODEL, "fcfs", self.CONFIG, slo=SLO,
                                trace=_fresh_trace()).run(list(workload))
        trace = _fresh_trace()
        other = dataclasses.replace(self.CONFIG, max_batch=2)
        ClusterSimulator(MODEL, "fcfs", other, slo=SLO, trace=trace).run(
            _workload(12, 600.0, 3))
        warm = ClusterSimulator(MODEL, "fcfs", self.CONFIG, slo=SLO,
                                trace=trace).run(list(workload))
        _assert_identical(cold, warm)

    @pytest.mark.parametrize("fidelity,faults", [
        ("exact", None),
        ("fast", None),
        ("exact", FaultSchedule(degrades=(
            DegradeSpec(machine=0, at=0.05, bandwidth_factor=0.5),))),
    ], ids=["exact", "fast", "exact-degraded"])
    def test_repeated_runs_agree(self, fidelity, faults):
        """A second ``run()`` starts from the same cold fleet, with
        pristine hardware even after a degrade."""
        cfg = dataclasses.replace(self.CONFIG, fidelity=fidelity,
                                  faults=faults)
        sim = ClusterSimulator(MODEL, "fcfs", cfg, slo=SLO,
                               trace=_fresh_trace())
        workload = _workload(20, 100.0, 29)
        _assert_identical(sim.run(list(workload)), sim.run(list(workload)))


def test_fast_spans_end_only_at_own_events():
    """No thundering herd: a span ends only at its own machine's events.

    A fast span ends at a completion, an arrival routed to its machine,
    the preemptor's trigger, or its machine's own fault transition — so
    on a non-preemptive run the machines no fault names make at most two
    spans (one ``DecodeStep`` each) per request they serve, however many
    machines share the front door and however often a peer's fault
    timeline changes.
    """
    workload = generate_workload(
        WorkloadConfig(num_requests=200, rate=400.0), seed=3)
    # twenty slight degrades on machine 15, spread over the arrivals
    peer_degrades = FaultSchedule(degrades=tuple(
        DegradeSpec(machine=15, at=0.025 * (i + 1), bandwidth_factor=0.99)
        for i in range(20)))
    for faults in (None, peer_degrades):
        cfg = ClusterConfig(num_machines=16, router="round-robin",
                            max_batch=8, fidelity="fast", faults=faults)
        tracer = RecordingTracer()
        report = ClusterSimulator(MODEL, "fcfs", cfg).run(
            list(workload), tracer=tracer)
        assert len(report.completed) == len(workload)
        named = faults.machines if faults is not None else frozenset()
        served = sum(r.machine not in named for r in report.records)
        spans = sum(isinstance(e, DecodeStep) and e.machine not in named
                    for e in tracer.events)
        assert spans <= 2 * served
