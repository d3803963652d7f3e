"""Telemetry subsystem tests.

The load-bearing guarantee is **observation only**: attaching any
tracer leaves the simulation results bit-identical to an untraced run.

Plus unit coverage for the metrics registry, the self-describing JSONL
topic stream, the Chrome trace exporter (strict JSON, required fields,
flow arrows), the ``watch`` renderer (its final snapshot must agree
with the post-hoc ``ClusterReport``), and the scenario ``telemetry:``
schema.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math

import pytest

from repro.scenarios import load_scenario, parse_scenario
from repro.telemetry import (
    DecodeStep,
    MetricsRegistry,
    MetricStreamTracer,
    MultiTracer,
    NULL_TRACER,
    PrefillEnded,
    QueueDepth,
    RecordingTracer,
    RequestAdmitted,
    RequestCompleted,
    RequestPreempted,
    RunEnded,
    RunStarted,
    TelemetrySpec,
    TopicStream,
    chrome_trace,
    export_chrome_trace,
    scenario_sinks,
)
from repro.telemetry.watch import StreamState, watch


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("scenarios/mixed_slo_tiny.json")


@pytest.fixture(scope="module")
def trace(scenario):
    return scenario.build_trace()


def _run(scenario, trace, *, tracer=None):
    recorder = tracer if tracer is not None else RecordingTracer()
    report = scenario.run(trace, tracer=recorder)
    return recorder, report


@pytest.fixture(scope="module")
def recorded(scenario, trace):
    """(events, report) of the traced mixed_slo_tiny run."""
    recorder, report = _run(scenario, trace)
    return recorder.events, report


def _at(scenario, fidelity):
    """``scenario`` served at ``fidelity`` (the bundled spec is exact)."""
    config = dataclasses.replace(scenario.config, fidelity=fidelity)
    return dataclasses.replace(scenario, config=config)


# ----------------------------------------------------------------------
class TestLoopEquivalence:
    """The serving loop behaves identically with and without a tracer."""

    def test_tracing_does_not_perturb(self, scenario, trace, recorded):
        """A traced run and an untraced run produce identical reports."""
        _, traced = recorded
        untraced = scenario.run(trace)
        assert traced.makespan == untraced.makespan
        assert traced.queue_samples == untraced.queue_samples
        assert traced.machine_gpu_busy == untraced.machine_gpu_busy
        assert [r.token_times for r in traced.records] == [
            r.token_times for r in untraced.records
        ]


# ----------------------------------------------------------------------
class TestRecordedStream:
    def test_bracketing_events(self, recorded):
        events, report = recorded
        assert isinstance(events[0], RunStarted)
        assert isinstance(events[-1], RunEnded)
        assert events[-1].makespan == report.makespan
        first = events[0]
        assert first.router == report.router
        assert first.preemptive is True
        assert [c.name for c in first.classes] == report.class_names
        assert first.backends == ("hermes", "hermes")

    @pytest.mark.parametrize("fidelity", ["exact", "fast"])
    def test_stream_matches_report(self, scenario, trace, recorded,
                                   fidelity):
        if fidelity == "exact":
            events, report = recorded
        else:
            recorder, report = _run(_at(scenario, fidelity), trace)
            events = recorder.events
        completed = [e for e in events if isinstance(e, RequestCompleted)]
        assert len(completed) == len(report.completed)
        preempted = [e for e in events if isinstance(e, RequestPreempted)]
        assert len(preempted) == report.preemptions
        admitted = [e for e in events if isinstance(e, RequestAdmitted)]
        assert len(admitted) == len(report.records)
        tokens = sum(
            len(e.req_ids) * e.steps
            for e in events if isinstance(e, DecodeStep)
        )
        assert tokens == report.total_tokens

    def test_queue_depth_mirrors_queue_samples(self, recorded):
        events, report = recorded
        depths = [
            (e.time, float(e.depth))
            for e in events
            if isinstance(e, QueueDepth)
        ]
        assert depths == report.queue_samples

    def test_decode_step_busy_mirrors_report(self, recorded):
        events, report = recorded
        gpu = [0.0] * report.num_machines
        dimm = [0.0] * report.num_machines
        for e in events:
            if isinstance(e, DecodeStep):
                gpu[e.machine] += e.gpu_busy
                dimm[e.machine] += e.dimm_busy
            elif isinstance(e, PrefillEnded):
                gpu[e.machine] += e.compute
        for m in range(report.num_machines):
            assert gpu[m] == pytest.approx(report.machine_gpu_busy[m])
            assert dimm[m] == pytest.approx(report.machine_dimm_busy[m])

    def test_hermes_steps_carry_engine_counters(self, recorded):
        events, _ = recorded
        steps = [e for e in events if isinstance(e, DecodeStep)]
        assert all(e.resident_bytes > 0 for e in steps)
        assert any(e.swap_bytes > 0 for e in steps)


# ----------------------------------------------------------------------
class TestTracers:
    def test_null_tracer_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_recording_tracer(self):
        rt = RecordingTracer()
        rt.emit(QueueDepth(time=0.0, depth=1))
        assert len(rt) == 1
        rt.clear()
        assert rt.events == []

    def test_multi_tracer_fans_out(self):
        a, b = RecordingTracer(), RecordingTracer()
        multi = MultiTracer(a, NULL_TRACER, b)
        multi.emit(QueueDepth(time=0.0, depth=2))
        assert len(a) == 1 and len(b) == 1

    def test_multi_tracer_needs_an_enabled_sink(self):
        with pytest.raises(ValueError):
            MultiTracer(NULL_TRACER)


# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("done")
        counter.inc()
        counter.inc(2.0)
        assert registry.collect()["done"] == 3.0
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        assert math.isnan(registry.collect()["depth"])
        gauge.set(4)
        gauge.set(2)
        assert registry.collect()["depth"] == 2.0

    def test_get_or_create_and_kind_mismatch(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_histogram_windowed_percentiles(self):
        registry = MetricsRegistry(percentiles=(50.0,))
        hist = registry.histogram("lat", unit="ms")
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        sample = registry.collect()
        assert sample["lat_count"] == 3.0
        assert sample["lat_p50"] == 2.0
        assert sample["lat_max"] == 3.0
        # the window reset with the collect; the count is cumulative
        again = registry.collect()
        assert again["lat_count"] == 3.0
        assert math.isnan(again["lat_p50"])
        assert math.isnan(again["lat_max"])

    def test_describe_expands_histograms(self):
        registry = MetricsRegistry(percentiles=(50.0, 99.0))
        registry.histogram("lat", unit="ms", help="latency")
        names = [f["name"] for f in registry.describe()]
        assert names == ["lat_count", "lat_p50", "lat_p99", "lat_max"]
        kinds = {f["name"]: f["kind"] for f in registry.describe()}
        assert kinds["lat_count"] == "counter"
        assert kinds["lat_p50"] == "gauge"

    def test_percentiles_validated(self):
        with pytest.raises(ValueError):
            MetricsRegistry(percentiles=(101.0,))


# ----------------------------------------------------------------------
class TestTopicStream:
    def test_publish_requires_announce(self):
        stream = TopicStream(io.StringIO())
        with pytest.raises(RuntimeError):
            stream.publish("cluster", 0.0, {})

    def test_lines_are_strict_json_with_null_for_nan(self):
        out = io.StringIO()
        stream = TopicStream(out)
        stream.announce("t", [{"name": "v", "kind": "gauge"}])
        stream.publish("t", 0.0, {"v": math.nan})
        stream.end(1.0)
        lines = out.getvalue().splitlines()
        assert len(lines) == 3
        decoded = [
            json.loads(line, parse_constant=pytest.fail)
            for line in lines
        ]
        assert decoded[0]["retain"] is True
        assert decoded[1]["values"]["v"] is None
        assert decoded[2] == {"type": "end", "time": 1.0}

    def test_stream_tracer_needs_run_started(self):
        tracer = MetricStreamTracer(io.StringIO())
        with pytest.raises(RuntimeError):
            tracer.emit(QueueDepth(time=0.0, depth=1))

    def test_sample_interval_validated(self):
        with pytest.raises(ValueError):
            MetricStreamTracer(io.StringIO(), sample_interval=0.0)

    @pytest.mark.parametrize("fidelity", ["exact", "fast"])
    def test_final_sample_matches_report(self, scenario, trace, fidelity):
        """The last sample of every class topic carries exactly the
        report's completion counts and SLO attainment, and the machine
        token counters sum to the report's tokens, at either fidelity
        (a fast span's event covers many tokens)."""
        scenario = _at(scenario, fidelity)
        out = io.StringIO()
        tracer = MetricStreamTracer(out, source=scenario.name)
        _, report = _run(scenario, trace, tracer=tracer)
        state = StreamState()
        for line in out.getvalue().splitlines():
            state.feed_line(line)
        assert state.ended
        assert sum(
            state.samples[f"machine/{m}"]["values"]["tokens"]
            for m in range(report.num_machines)
        ) == report.total_tokens
        for name in report.class_names:
            sample = state.samples.get(f"class/{name}")
            done = len([
                r for r in report.class_records(name) if r.finished
            ])
            if done == 0:
                assert sample is None or (
                    sample["values"]["completed"] == 0.0
                )
                continue
            values = sample["values"]
            assert values["completed"] == float(done)
            attainment = report.slo_attainment(name)
            assert values["slo_ttft"] == pytest.approx(attainment["ttft"])
            assert values["slo_tbt"] == pytest.approx(attainment["tbt"])
            assert values["slo_joint"] == pytest.approx(
                attainment["joint"]
            )
        cluster = state.samples["cluster"]["values"]
        assert cluster["completed"] == float(len(report.completed))
        assert cluster["preempted"] == float(report.preemptions)


# ----------------------------------------------------------------------
class TestChromeExport:
    def test_strict_json_with_required_fields(self, recorded, tmp_path):
        events, report = recorded
        path = tmp_path / "run.trace.json"
        export_chrome_trace(events, str(path))
        document = json.loads(
            path.read_text(), parse_constant=pytest.fail
        )
        trace_events = document["traceEvents"]
        assert trace_events
        for entry in trace_events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(entry)

    def test_one_lane_per_machine(self, recorded):
        events, report = recorded
        document = chrome_trace(events)
        lanes = {
            entry["args"]["name"]
            for entry in document["traceEvents"]
            if entry["ph"] == "M" and entry["name"] == "thread_name"
        }
        assert "front door" in lanes
        for m in range(report.num_machines):
            assert f"machine {m} (hermes)" in lanes

    def test_flow_arrows_balanced(self, recorded):
        """Every request's flow starts once ('s') and finishes once
        ('f'); preemption round trips add 't' hops in between."""
        events, report = recorded
        document = chrome_trace(events)
        flows: dict[int, list[str]] = {}
        for entry in document["traceEvents"]:
            if entry["ph"] in ("s", "t", "f"):
                flows.setdefault(entry["id"], []).append(entry["ph"])
        assert len(flows) == len(report.records)
        for phases in flows.values():
            assert phases[0] == "s"
            assert phases[-1] == "f"
            assert phases.count("s") == 1 and phases.count("f") == 1
        hops = sum(p.count("t") for p in flows.values())
        # routed prefill adds one 't' per request; each preemption adds
        # a preempt hop plus a resume hop
        assert hops >= len(report.records)

    def test_decode_slices_span_step_duration(self, recorded):
        events, _ = recorded
        document = chrome_trace(events)
        decode = [
            entry for entry in document["traceEvents"]
            if entry["ph"] == "X" and entry["name"].startswith("decode")
        ]
        assert decode
        step = next(e for e in events if isinstance(e, DecodeStep))
        first = decode[0]
        assert first["dur"] == pytest.approx(step.seconds * 1e6)
        assert first["ts"] == pytest.approx(
            (step.time - step.seconds) * 1e6
        )

    def test_queue_depth_counter_present(self, recorded):
        events, _ = recorded
        document = chrome_trace(events)
        counters = [
            entry for entry in document["traceEvents"]
            if entry["ph"] == "C"
        ]
        assert counters
        assert all("queued" in entry["args"] for entry in counters)


# ----------------------------------------------------------------------
class TestWatchRenderer:
    def test_once_matches_cluster_report(
        self, scenario, trace, tmp_path, capsys
    ):
        """The acceptance pin: watch --once over a recorded stream
        renders exactly the report's per-class attainment."""
        sinks = scenario_sinks(
            scenario.telemetry,
            trace_out=str(tmp_path / "run.jsonl"),
            source=scenario.name,
        )
        _, report = _run(scenario, trace, tracer=sinks.tracer)
        (path,) = sinks.close()
        assert watch(path, once=True) == 0
        rendered = capsys.readouterr().out
        assert scenario.name in rendered
        for name in report.class_names:
            done = [
                r for r in report.class_records(name) if r.finished
            ]
            if not done:
                continue
            joint = report.slo_attainment(name)["joint"]
            row = next(
                line for line in rendered.splitlines()
                if line.startswith(name)
            )
            assert f"{joint:.3f}" in row
            assert f"{len(done):g}" in row

    def test_follow_mode_stops_at_end_marker(
        self, scenario, trace, tmp_path
    ):
        sinks = scenario_sinks(
            TelemetrySpec(stream=str(tmp_path / "run.jsonl")),
            source=scenario.name,
        )
        _run(scenario, trace, tracer=sinks.tracer)
        (path,) = sinks.close()
        out = io.StringIO()
        assert watch(path, once=False, interval=0.01, out=out) == 0
        assert scenario.name in out.getvalue()


# ----------------------------------------------------------------------
class TestScenarioTelemetrySchema:
    BASE = {
        "model": "tiny-test",
        "tenants": [{"rate": 100.0, "num_requests": 2}],
    }

    def test_defaults_want_no_output(self, scenario):
        assert scenario.telemetry == TelemetrySpec()
        assert not scenario.telemetry.wants_output

    def test_parse_telemetry_section(self):
        data = dict(
            self.BASE,
            telemetry={
                "sample_interval": 0.005,
                "stream": "out/run.jsonl",
                "chrome_trace": "out/run.trace.json",
            },
        )
        scn = parse_scenario(data, name_hint="t")
        assert scn.telemetry.sample_interval == 0.005
        assert scn.telemetry.stream == "out/run.jsonl"
        assert scn.telemetry.chrome_trace == "out/run.trace.json"
        assert scn.telemetry.wants_output

    def test_unknown_telemetry_key_rejected(self):
        data = dict(self.BASE, telemetry={"streem": "x.jsonl"})
        with pytest.raises(ValueError, match="telemetry"):
            parse_scenario(data, name_hint="t")

    def test_bad_sample_interval_rejected(self):
        data = dict(self.BASE, telemetry={"sample_interval": 0})
        with pytest.raises(ValueError, match="sample_interval"):
            parse_scenario(data, name_hint="t")

    def test_sinks_route_trace_out_by_extension(self, tmp_path):
        spec = TelemetrySpec()
        jsonl = scenario_sinks(
            spec, trace_out=str(tmp_path / "a.jsonl")
        )
        chrome = scenario_sinks(
            spec, trace_out=str(tmp_path / "a.json")
        )
        assert isinstance(jsonl.tracer, MetricStreamTracer)
        assert isinstance(chrome.tracer, RecordingTracer)
        jsonl.close()
        chrome.close()
        assert (tmp_path / "a.json").exists()

    def test_no_sinks_means_no_tracer(self):
        sinks = scenario_sinks(TelemetrySpec())
        assert sinks.tracer is None
        assert not sinks.active
        assert sinks.close() == []
