"""Fault injection and failure-aware serving tests.

The contracts pinned here, roughly inside-out:

* **engine** — ``Signal``/``WaitSignal`` interruptible waits: a fire
  wakes every waiter exactly once, deadlines still expire, and a stale
  deadline after a fire is a no-op;
* **schedule** — :class:`FaultSchedule` interval queries (down windows
  include the restart warmup and are half-open, slowdowns compound,
  partitions are routing-only), validation, and the seeded
  :func:`sample_faults` expansion (string-seeded, hence identical in
  every process);
* **serving** — crashes abort in-flight work at the instant, killed
  requests migrate with their generated tokens but *without* their
  KV-cache (the re-prefill is charged honestly), never-restart crashes
  strand work as ``unfinished`` and count against SLO attainment, and
  an all-machines-down run degrades to nan metrics instead of raising;
* **health** — the EWMA monitor demotes a machine that got slower
  *than itself* (not one that is natively slower than the fleet), and
  health-aware routing beats health-blind on the bundled chaos drill;
* **determinism** — ``--jobs 2`` grids and telemetry streams are
  byte-identical to serial runs, and an *empty* ``FaultSchedule`` is
  bit-identical to ``faults=None`` (the machinery itself is free);
* **telemetry** — fault lifecycle events appear in recorded streams,
  tracing never perturbs the run, the JSONL stream carries the string
  ``health`` column and fault counters, the watch renderer shows them,
  and the Chrome exporter draws outages and migrations.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import HealthMonitor
from repro.experiments import cluster_eval
from repro.experiments.runner import run_grid
from repro.models import get_model
from repro.scenarios import load_scenario
from repro.serving import (
    CrashSpec,
    FaultSchedule,
    LengthDistribution,
    PartitionSpec,
    SampleSpec,
    ServingConfig,
    ServingSimulator,
    StragglerSpec,
    WorkloadConfig,
    generate_workload,
    merge_sampled,
    sample_faults,
)
from repro.sim import Signal, Simulator, Timeout, WaitSignal
from repro.sparsity import TraceConfig, generate_trace
from repro.telemetry import (
    MachineDown,
    MachineHealth,
    MachineUp,
    MetricStreamTracer,
    RecordingTracer,
    RequestMigrated,
    chrome_trace,
)
from repro.telemetry.watch import StreamState

REPO = pathlib.Path(__file__).resolve().parent.parent
CHAOS_SPEC = REPO / "scenarios" / "chaos_mixed_tiny.json"

#: module-level trace: hypothesis examples must not rebuild it
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


def _workload(num_requests=36, rate=2000.0, seed=9):
    return generate_workload(
        WorkloadConfig(rate=rate, num_requests=num_requests,
                       prompt_lens=LengthDistribution(mean=24),
                       output_lens=LengthDistribution(
                           kind="uniform", mean=12, low=4, high=20)),
        seed=seed)


def _serve(faults, *, machines=2, fleet=None, policy="fcfs",
           num_requests=36):
    simulator = ServingSimulator(
        "tiny-test", policy,
        ServingConfig(max_batch=6, num_machines=machines, faults=faults),
        trace=_trace(),
        fleet=fleet)
    return simulator.run(list(_workload(num_requests)))


def _record_view(record):
    return (
        record.request.req_id,
        record.machine,
        record.prefill_start,
        record.token_times,
        record.preemptions,
        record.migrations,
    )


def _assert_reports_equal(a, b):
    assert a.makespan == b.makespan
    assert a.machine_gpu_busy == b.machine_gpu_busy
    assert a.machine_dimm_busy == b.machine_dimm_busy
    assert a.batch_samples == b.batch_samples
    assert a.queue_samples == b.queue_samples
    assert ([_record_view(r) for r in a.records]
            == [_record_view(r) for r in b.records])


# ----------------------------------------------------------------------
# engine: interruptible waits
# ----------------------------------------------------------------------
class TestSignal:
    def test_fire_wakes_unbounded_waiter(self):
        sim = Simulator()
        wake = Signal("wake")
        woke_at = []

        def sleeper():
            yield WaitSignal(wake)
            woke_at.append(sim.now)

        def firer():
            yield Timeout(2.0)
            sim.fire(wake)

        sim.process(sleeper())
        sim.process(firer())
        sim.run()
        assert woke_at == [2.0]

    def test_deadline_expires_without_fire(self):
        sim = Simulator()
        wake = Signal()
        woke_at = []

        def sleeper():
            yield WaitSignal(wake, until=1.5)
            woke_at.append(sim.now)

        sim.process(sleeper())
        assert sim.run() == 1.5
        assert woke_at == [1.5]

    def test_fire_beats_deadline_and_stale_entry_is_noop(self):
        sim = Simulator()
        wake = Signal()
        woke_at = []

        def sleeper():
            yield WaitSignal(wake, until=10.0)
            woke_at.append(sim.now)
            # sleep again past the stale deadline entry: if the t=10
            # heap entry re-woke us this wait would end early
            yield WaitSignal(wake, until=20.0)
            woke_at.append(sim.now)

        def firer():
            yield Timeout(1.0)
            sim.fire(wake)

        sim.process(sleeper())
        sim.process(firer())
        assert sim.run() == 20.0
        assert woke_at == [1.0, 20.0]

    def test_fire_wakes_every_waiter_once(self):
        sim = Simulator()
        wake = Signal()
        woke = []

        def sleeper(tag):
            yield WaitSignal(wake)
            woke.append((tag, sim.now))

        def firer():
            yield Timeout(3.0)
            sim.fire(wake)
            sim.fire(wake)  # nobody left: must be a no-op

        for tag in range(3):
            sim.process(sleeper(tag))
        sim.process(firer())
        sim.run()
        assert sorted(woke) == [(0, 3.0), (1, 3.0), (2, 3.0)]


# ----------------------------------------------------------------------
# schedule: interval queries + validation
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_down_window_includes_warmup_and_is_half_open(self):
        f = FaultSchedule(crashes=(CrashSpec(0, 1.0, 2.0),),
                          restart_warmup=0.5)
        assert not f.is_down(0, 0.999)
        assert f.is_down(0, 1.0)
        assert f.is_down(0, 3.499)
        assert not f.is_down(0, 3.5)
        assert f.up_time(0, 2.0) == 3.5
        with pytest.raises(ValueError):
            f.up_time(0, 0.5)

    def test_never_restart_is_down_forever(self):
        f = FaultSchedule(crashes=(CrashSpec(1, 2.0, None),))
        assert f.is_down(1, 1e9)
        assert f.up_time(1, 5.0) is None
        assert f.next_down(1, 0.0) == 2.0
        assert f.next_down(1, 3.0) == 2.0  # inside: the containing crash
        assert f.next_down(0, 0.0) is None

    def test_slowdowns_compound(self):
        f = FaultSchedule(stragglers=(
            StragglerSpec(0, 1.0, 3.0, 2.0),
            StragglerSpec(0, 2.0, 4.0, 3.0),
            StragglerSpec(0, 5.0, None, 1.5),
        ))
        assert f.slowdown_at(0, 0.5) == 1.0
        assert f.slowdown_at(0, 1.5) == 2.0
        assert f.slowdown_at(0, 2.5) == 6.0
        assert f.slowdown_at(0, 3.5) == 3.0
        assert f.slowdown_at(0, 100.0) == 1.5  # open-ended window

    def test_health_state_priority(self):
        f = FaultSchedule(
            crashes=(CrashSpec(0, 1.0, 1.0),),
            stragglers=(StragglerSpec(0, 0.0, 10.0, 4.0),),
            partitions=(PartitionSpec(0, 0.0, 10.0),),
        )
        assert f.health_state(0, 1.5) == "down"
        assert f.health_state(0, 3.0) == "partitioned"
        f2 = FaultSchedule(stragglers=(StragglerSpec(0, 0.0, 1.0, 4.0),))
        assert f2.health_state(0, 0.5) == "slow"
        assert f2.health_state(0, 2.0) == "ok"

    def test_downtime_and_recoveries_within_horizon(self):
        f = FaultSchedule(
            crashes=(CrashSpec(0, 1.0, 2.0), CrashSpec(1, 3.0, None)),
            restart_warmup=0.5,
        )
        assert f.downtime_within(0, 10.0) == pytest.approx(2.5)
        assert f.downtime_within(0, 2.0) == pytest.approx(1.0)
        assert f.downtime_within(1, 10.0) == pytest.approx(7.0)
        # only fully recovered crashes count, durations include warmup
        assert f.recoveries_within(10.0) == [2.5]
        assert f.recoveries_within(2.0) == []

    def test_overlapping_crashes_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FaultSchedule(crashes=(CrashSpec(0, 1.0, 5.0),
                                   CrashSpec(0, 2.0, 1.0)))
        with pytest.raises(ValueError, match="overlap"):
            FaultSchedule(crashes=(CrashSpec(0, 1.0, None),
                                   CrashSpec(0, 2.0, 1.0)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CrashSpec(0, 1.0, 0.0)  # restart must be positive or None
        with pytest.raises(ValueError):
            CrashSpec(-1, 1.0, 1.0)
        with pytest.raises(ValueError):
            StragglerSpec(0, 1.0, 0.5, 2.0)  # end before start
        with pytest.raises(ValueError):
            StragglerSpec(0, 0.0, 1.0, 0.5)  # speedup, not a straggler
        with pytest.raises(ValueError):
            PartitionSpec(0, 2.0, 2.0)
        with pytest.raises(ValueError):
            SampleSpec(horizon=0.0)
        with pytest.raises(ValueError):
            SampleSpec(horizon=1.0, restart_fraction=1.5)

    def test_validate_fleet(self):
        f = FaultSchedule(crashes=(CrashSpec(3, 1.0, 1.0),))
        f.validate_fleet(4)
        with pytest.raises(ValueError, match="machine 3"):
            f.validate_fleet(3)


class TestSampledFaults:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**31 - 1), machines=st.integers(1, 4))
    def test_sampling_is_deterministic_and_valid(self, seed, machines):
        spec = SampleSpec(horizon=1.0, crashes_per_machine=2.0,
                          mean_downtime=0.1, restart_fraction=0.5,
                          stragglers_per_machine=1.0, mean_straggle=0.2,
                          partitions_per_machine=1.0, mean_partition=0.1)
        a = sample_faults(spec, machines, seed=seed, restart_warmup=0.01)
        b = sample_faults(spec, machines, seed=seed, restart_warmup=0.01)
        assert a == b  # frozen dataclasses: full structural equality
        a.validate_fleet(machines)  # every event targets a real machine

    def test_restart_fraction_extremes(self):
        spec = SampleSpec(horizon=1.0, crashes_per_machine=3.0,
                          mean_downtime=0.05, restart_fraction=0.0)
        never = sample_faults(spec, 2, seed=7)
        assert never.crashes
        assert all(c.restart_after is None for c in never.crashes)
        spec = dataclasses.replace(spec, restart_fraction=1.0)
        always = sample_faults(spec, 2, seed=7)
        assert all(c.restart_after is not None for c in always.crashes)

    def test_merge_keeps_explicit_crashes(self):
        explicit = FaultSchedule(crashes=(CrashSpec(0, 0.5, None),),
                                 seed=3)
        spec = SampleSpec(horizon=1.0, crashes_per_machine=4.0,
                          mean_downtime=0.1)
        merged = merge_sampled(explicit, spec, 2)
        assert CrashSpec(0, 0.5, None) in merged.crashes
        # machine 0 is down forever from 0.5: no sampled crash may
        # overlap it, and the merge must still validate
        merged.validate_fleet(2)
        for crash in merged.crashes:
            if crash.machine == 0 and crash.at != 0.5:
                assert crash.at < 0.5
        assert merge_sampled(explicit, None, 2) is explicit


# ----------------------------------------------------------------------
# serving semantics under faults
# ----------------------------------------------------------------------
class TestServingUnderFaults:
    def test_crash_migrates_and_recharges_prefill(self):
        f = FaultSchedule(crashes=(CrashSpec(0, 0.005, 0.004),),
                          restart_warmup=0.001)
        report = _serve(f)
        assert report.migrations > 0
        assert not report.unfinished  # the machine comes back
        moved = [r for r in report.records if r.migrations]
        assert moved
        for record in moved:
            # generated tokens survive the move; timestamps stay
            # monotone through the re-prefill
            times = record.token_times
            assert all(a < b for a, b in zip(times, times[1:]))
            assert len(times) == record.request.output_len
        assert report.availability < 1.0
        assert report.mean_time_to_recover == pytest.approx(0.005)

    def test_never_restart_strands_work(self):
        f = FaultSchedule(crashes=(CrashSpec(0, 0.004, None),
                                   CrashSpec(1, 0.006, None)))
        report = _serve(f)
        assert report.unfinished
        assert math.isnan(report.mean_time_to_recover)
        done = sum(1 for r in report.records if r.finished)
        assert len(report.unfinished) == len(report.records) - done
        assert done < len(report.records)

    def test_all_machines_down_degrades_to_nan(self):
        f = FaultSchedule(crashes=(CrashSpec(0, 1e-4, None),
                                   CrashSpec(1, 1e-4, None)))
        report = _serve(f)  # must not raise
        assert not any(r.finished for r in report.records)
        assert math.isnan(report.ttft_percentile(99))
        assert report.tokens_per_second == 0.0

    def test_all_machines_down_cluster_renders_dashes(self):
        """The cluster table path: nan percentiles and fairness render
        as em-dashes instead of raising."""
        scenario = load_scenario(CHAOS_SPEC)
        f = FaultSchedule(crashes=tuple(
            CrashSpec(m, 1e-4, None)
            for m in range(scenario.config.num_machines)))
        dead = dataclasses.replace(
            scenario,
            config=dataclasses.replace(scenario.config, faults=f))
        report = dead.run()
        assert not any(r.finished for r in report.records)
        assert math.isnan(report.fairness_index())
        assert math.isnan(report.class_ttft_percentile("interactive", 99))
        assert math.isnan(report.slo_attainment("default")["joint"])
        rows, _ = cluster_eval._scenario_rows(dead, None)
        assert rows == []  # no completions: nothing to tabulate

    def test_straggler_stretches_makespan(self):
        slow = FaultSchedule(stragglers=(
            StragglerSpec(0, 0.0, None, 6.0),
            StragglerSpec(1, 0.0, None, 6.0)))
        assert _serve(slow).makespan > _serve(None).makespan

    def test_empty_schedule_is_bit_identical_to_none(self):
        """The fault machinery itself is free: an empty schedule takes
        the fault-aware code paths (signal-bounded idle waits, crash
        checks) yet reproduces the fault-free run exactly."""
        _assert_reports_equal(_serve(FaultSchedule()), _serve(None))


# ----------------------------------------------------------------------
# health monitoring + health-aware routing
# ----------------------------------------------------------------------
class TestHealthMonitor:
    def test_demotes_on_self_relative_slowdown(self):
        monitor = HealthMonitor(alpha=0.5, threshold=3.0)
        for _ in range(4):
            monitor.observe(0, 0.001, 1)
        assert not monitor.demoted(0)
        for _ in range(6):
            monitor.observe(0, 0.01, 1)
        assert monitor.demoted(0)
        # recovery: the EWMA decays back under threshold x own-best
        for _ in range(20):
            monitor.observe(0, 0.001, 1)
        assert not monitor.demoted(0)

    def test_natively_slow_machine_is_not_a_straggler(self):
        monitor = HealthMonitor()
        for _ in range(10):
            monitor.observe(0, 0.001, 1)   # fast machine
            monitor.observe(1, 0.02, 1)    # 20x slower, consistently
        assert not monitor.demoted(0)
        assert not monitor.demoted(1)

    def test_unknown_machine_is_healthy(self):
        assert not HealthMonitor().demoted(7)

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor(alpha=0.0)
        with pytest.raises(ValueError):
            HealthMonitor(alpha=1.5)
        with pytest.raises(ValueError):
            HealthMonitor(threshold=1.0)
        monitor = HealthMonitor()
        monitor.observe(0, -1.0, 1)  # rejected sample
        monitor.observe(0, 1.0, 0)
        assert not monitor.demoted(0)

    def test_health_aware_beats_blind_on_chaos_drill(self):
        """The acceptance pin: on the bundled chaos scenario the
        health-aware front door wins the interactive joint SLO."""
        scenario = load_scenario(CHAOS_SPEC)
        trace = scenario.build_trace()
        joint = {}
        for health_aware in (True, False):
            run = dataclasses.replace(
                scenario,
                config=dataclasses.replace(
                    scenario.config, health_aware=health_aware))
            report = run.run(trace)
            joint[health_aware] = {
                name: report.slo_attainment(name)["joint"]
                for name in ("interactive", "bulk")
            }
            assert report.migrations > 0
        assert joint[True]["interactive"] > joint[False]["interactive"]
        assert joint[True]["bulk"] >= joint[False]["bulk"]


# ----------------------------------------------------------------------
# --jobs determinism
# ----------------------------------------------------------------------
def _stream_bytes(path):
    """Worker: run the scenario with a JSONL stream tracer attached and
    return the raw stream bytes (module-level: spawn-picklable)."""
    scenario = load_scenario(path)
    out = io.StringIO()
    tracer = MetricStreamTracer(out, sample_interval=0.002,
                                source="jobs-pin")
    scenario.run(tracer=tracer)
    return out.getvalue()


class TestJobsDeterminism:
    def test_grid_rows_jobs2_match_serial(self):
        points = [(str(CHAOS_SPEC), None), (str(CHAOS_SPEC), "least-loaded")]
        serial = run_grid(cluster_eval._point, points, jobs=1)
        parallel = run_grid(cluster_eval._point, points, jobs=2)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)

    def test_telemetry_stream_jobs2_byte_identical(self):
        paths = [str(CHAOS_SPEC), str(CHAOS_SPEC)]
        serial = run_grid(_stream_bytes, paths, jobs=1)
        parallel = run_grid(_stream_bytes, paths, jobs=2)
        assert serial == parallel
        assert serial[0] == serial[1]
        assert serial[0]  # the stream actually carries content


# ----------------------------------------------------------------------
# telemetry under faults
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chaos_recorded():
    scenario = load_scenario(CHAOS_SPEC)
    trace = scenario.build_trace()
    tracer = RecordingTracer()
    report = scenario.run(trace, tracer=tracer)
    return scenario, trace, report, tracer.events


class TestFaultTelemetry:
    def test_tracing_does_not_perturb(self, chaos_recorded):
        scenario, trace, traced, _ = chaos_recorded
        _assert_reports_equal(scenario.run(trace), traced)

    def test_fault_lifecycle_events(self, chaos_recorded):
        scenario, _, report, events = chaos_recorded
        downs = [e for e in events if isinstance(e, MachineDown)]
        ups = [e for e in events if isinstance(e, MachineUp)]
        faults = scenario.config.faults
        assert sorted((e.machine, e.time) for e in downs) == sorted(
            (c.machine, c.at) for c in faults.crashes)
        assert len(ups) == len(faults.crashes)  # both crashes restart
        for up in ups:
            assert up.warmup == faults.restart_warmup
        moved = [e for e in events if isinstance(e, RequestMigrated)]
        assert len(moved) == report.migrations
        states = {e.state for e in events if isinstance(e, MachineHealth)}
        assert {"down", "slow", "ok"} <= states

    def test_stream_has_health_column_and_fault_counters(
            self, chaos_recorded):
        scenario, trace, report, _ = chaos_recorded
        out = io.StringIO()
        tracer = MetricStreamTracer(out, sample_interval=0.002)
        scenario.run(trace, tracer=tracer)
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        machine_configs = [
            m for m in lines
            if m["type"] == "config" and m["topic"].startswith("machine/")
        ]
        assert machine_configs
        for config in machine_configs:
            fields = {f["name"]: f for f in config["fields"]}
            assert fields["health"]["kind"] == "state"
        health_seen = {
            m["values"]["health"] for m in lines
            if m["type"] == "sample" and m["topic"].startswith("machine/")
        }
        assert "slow" in health_seen or "down" in health_seen
        cluster_samples = [
            m for m in lines
            if m["type"] == "sample" and m["topic"] == "cluster"
        ]
        assert cluster_samples[-1]["values"]["migrations"] == \
            report.migrations
        ups = {m["values"]["machines_up"] for m in cluster_samples}
        assert min(ups) < scenario.config.num_machines

    def test_watch_renders_health(self, chaos_recorded):
        scenario, trace, _, _ = chaos_recorded
        out = io.StringIO()
        tracer = MetricStreamTracer(out, sample_interval=0.002)
        scenario.run(trace, tracer=tracer)
        state = StreamState()
        for line in out.getvalue().splitlines():
            state.feed_line(line)
        rendered = state.render()
        assert "health" in rendered
        assert "ok" in rendered  # every machine ends the run healthy

    def test_chrome_trace_draws_faults(self, chaos_recorded):
        scenario, _, _, events = chaos_recorded
        doc = chrome_trace(events)
        json.dumps(doc, allow_nan=False)  # strict-JSON clean
        names = [e["name"] for e in doc["traceEvents"]]
        crashes = len(scenario.config.faults.crashes)
        assert names.count("crash") == crashes
        assert names.count("down") == crashes
        assert any(n.startswith("migrate req ") for n in names)
        assert any(n.startswith("health: slow") for n in names)
