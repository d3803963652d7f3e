"""Cluster-serving benchmark bodies: scenario wall time + drift probes.

Shared by ``tools/bench_serving.py`` (which maintains
``BENCH_serving.json`` and the CI serving gate) and usable
interactively::

    PYTHONPATH=src python -c "
    from benchmarks.bench_serving import bench_scenario
    print(bench_scenario())"

Two kinds of numbers come out of one measurement:

* **wall time** of end-to-end scenario runs (workload gen + cluster
  simulation + metrics) — machine-dependent, tracked informationally
  and calibration-scaled like the decode bench;
* **simulated metrics** (tokens/s, per-class SLO attainment,
  preemptions) — *deterministic* given the code, so any change is real
  behaviour drift; the CI gate pins them the way the engine goldens pin
  ``decode_step``.

Three scenarios are benched: the homogeneous-Hermes SLO smoke
scenario, the mixed hermes/dense/dejavu fleet behind the
throughput-weighted router (``backend_shootout_tiny.json``), and the
fault-injection chaos drill (``chaos_mixed_tiny.json``), so the Hermes
fast path, the pluggable-backend dispatch, and the failure-handling
path (migrations, availability, MTTR) all stay gated.  The
1000-machine ``megafleet_1k.json`` scale drill is additionally timed
as a single end-to-end run (``fidelity: fast`` behind the push-based
front door, which wakes only an arrival's machine), gating the scale
path the same way.
"""

from __future__ import annotations

import time

from repro.experiments.cluster_eval import resolve_scenario
from repro.scenarios import load_scenario

#: the spec the serving bench pins — the CI smoke scenario
BENCH_SCENARIO = "mixed_slo_tiny.json"
#: the heterogeneous-fleet spec the bench also pins: three backends
#: (hermes/dense/dejavu) behind the throughput-weighted router, so the
#: gate covers the pluggable-backend dispatch path end to end
BENCH_MIXED_FLEET_SCENARIO = "backend_shootout_tiny.json"
#: the fault-injection drill (crashes + straggler + partition with
#: health-aware routing): pins the failure-handling path end to end
BENCH_CHAOS_SCENARIO = "chaos_mixed_tiny.json"
#: the correlated-failure drill (rack-wide domain crash + a DIMM
#: degrade with renegotiation): pins the failure-domain path
BENCH_DOMAINS_SCENARIO = "chaos_domains_tiny.json"
#: the 1000-machine scale drill (front door + fidelity:fast): pins
#: the megafleet path end to end
BENCH_MEGAFLEET_SCENARIO = "megafleet_1k.json"


def bench_scenario(
    spec: str = BENCH_SCENARIO, *, min_seconds: float = 1.0
) -> dict:
    """Measure end-to-end runs/sec of one scenario, plus its metrics.

    The scenario (spec parse, workload generation, trace, cluster
    simulation, report) re-runs whole until ``min_seconds`` of wall time
    accumulate; the simulated metrics of the final run are included for
    the drift gate — they are identical across runs by construction.
    """
    path = resolve_scenario(spec)
    scenario = load_scenario(path)
    trace = scenario.build_trace()  # shared across runs, like a server
    scenario.run(trace)  # warmup: solve partitions/unions once, untimed
    runs = 0
    report = None
    start = time.perf_counter()
    while True:
        report = scenario.run(trace)
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            break

    attainment = {
        name: report.slo_attainment(name)["joint"]
        for name in report.class_names
        if any(r.finished for r in report.class_records(name))
    }
    return {
        "scenario": scenario.name,
        "runs": runs,
        "seconds": elapsed,
        "runs_per_sec": runs / elapsed,
        "simulated": {
            "completed": len(report.completed),
            "tokens_per_second": report.tokens_per_second,
            "makespan": report.makespan,
            "preemptions": report.preemptions,
            "fairness": report.fairness_index(),
            "slo_joint": attainment,
        },
    }


def bench_megafleet(spec: str = BENCH_MEGAFLEET_SCENARIO) -> dict:
    """One timed end-to-end run of the 1000-machine scale drill.

    The megafleet scenario (100k requests over 1000 machines,
    ``fidelity: fast``, one calendar) costs several seconds of wall
    time per run, so unlike the tiny scenarios it is measured as a
    *single* timed run with no warmup pass — the committed baseline and
    the CI check then measure exactly the same thing (one cold run
    including the one-time trace/partition work), keeping the wall
    ratio honest.  The ``simulated`` half is unaffected either way: a
    fast run depends only on its inputs, pinned by the tier-1 suite.
    """
    path = resolve_scenario(spec)
    scenario = load_scenario(path)
    trace = scenario.build_trace()
    start = time.perf_counter()
    report = scenario.run(trace)
    elapsed = time.perf_counter() - start

    attainment = {
        name: report.slo_attainment(name)["joint"]
        for name in report.class_names
        if any(r.finished for r in report.class_records(name))
    }
    return {
        "scenario": scenario.name,
        "runs": 1,
        "seconds": elapsed,
        "runs_per_sec": 1.0 / elapsed,
        "simulated": {
            "completed": len(report.completed),
            "tokens_per_second": report.tokens_per_second,
            "makespan": report.makespan,
            "preemptions": report.preemptions,
            "fairness": report.fairness_index(),
            "slo_joint": attainment,
        },
    }


def bench_fault_overhead(*, min_seconds: float = 0.5) -> dict:
    """Wall time + drift probes for the fault-injection serving path.

    Runs :func:`bench_scenario` on the bundled chaos drill (crashes,
    an 8x straggler, a router partition, health-aware routing) and
    extends the ``simulated`` record with the failure metrics the gate
    must pin: migration count, availability, and mean time to recover.
    All three are deterministic given the code — drift means the
    failure semantics changed — and the scenario is built so none of
    them degenerates to nan (nan would poison the float comparison and
    the strict-JSON record alike).
    """
    record = bench_scenario(BENCH_CHAOS_SCENARIO, min_seconds=min_seconds)
    scenario = load_scenario(resolve_scenario(BENCH_CHAOS_SCENARIO))
    report = scenario.run(scenario.build_trace())
    simulated = record["simulated"]
    simulated["migrations"] = report.migrations
    simulated["availability"] = report.availability
    simulated["mean_time_to_recover"] = report.mean_time_to_recover
    simulated["unfinished"] = len(report.unfinished)
    for key in ("availability", "mean_time_to_recover"):
        if simulated[key] != simulated[key]:  # nan check
            raise ValueError(
                f"chaos bench scenario produced nan {key}; the bundled "
                "spec must keep its faults inside the run")
    return record


def bench_degradation(*, min_seconds: float = 0.5) -> dict:
    """Wall time + drift probes for the failure-domain serving path.

    Runs :func:`bench_scenario` on the bundled rack-outage drill (a
    domain crash taking both rack0 machines down together, plus a DIMM
    degrade that renegotiates machine 3 onto half its pool) and extends
    the ``simulated`` record with the correlated-failure metrics the
    gate must pin: migration count (crash evacuations *and* degrade
    KV evictions), fleet and per-domain availability, and the
    correlated-outage seconds.  All deterministic given the code; the
    scenario declares domains, so none of them is nan.
    """
    record = bench_scenario(BENCH_DOMAINS_SCENARIO,
                            min_seconds=min_seconds)
    scenario = load_scenario(resolve_scenario(BENCH_DOMAINS_SCENARIO))
    report = scenario.run(scenario.build_trace())
    simulated = record["simulated"]
    simulated["migrations"] = report.migrations
    simulated["availability"] = report.availability
    simulated["mean_time_to_recover"] = report.mean_time_to_recover
    simulated["unfinished"] = len(report.unfinished)
    simulated["correlated_outage_seconds"] = (
        report.correlated_outage_seconds)
    simulated["domain_availability"] = report.domain_availability()
    for key in ("availability", "mean_time_to_recover",
                "correlated_outage_seconds"):
        if simulated[key] != simulated[key]:  # nan check
            raise ValueError(
                f"domains bench scenario produced nan {key}; the "
                "bundled spec must keep its faults (and domains) "
                "inside the run")
    return record


def bench_planner(*, min_seconds: float = 0.5) -> dict:
    """Wall time + drift probes for the capacity planner.

    Times full ``plan()`` passes (enumerate, analytic prune, frontier,
    quick simulator validation) over the CI smoke scenario, and records
    the planner's *decisions* — candidate/prune/frontier counts and the
    chosen fleet — as the deterministic ``simulated`` half for the
    drift gate: a changed answer means the planning semantics changed.
    """
    from repro.planner import plan

    path = resolve_scenario(BENCH_SCENARIO)
    plan(path, quick=True)  # warmup: fill the per-process trace caches
    runs = 0
    start = time.perf_counter()
    while True:
        result = plan(path, quick=True)
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            break
    best = result.best
    return {
        "scenario": result.scenario,
        "runs": runs,
        "seconds": elapsed,
        "runs_per_sec": runs / elapsed,
        "simulated": {
            "num_candidates": result.num_candidates,
            "num_pruned": result.num_pruned,
            "frontier_size": len(result.frontier),
            "validated_passing": sum(
                1 for o in result.validations if o.passed
            ),
            "best": None if best is None else {
                "backend": best.candidate.backend,
                "gpu": best.candidate.gpu,
                "model": best.candidate.model,
                "count": best.candidate.count,
                "nominal_batch": best.candidate.nominal_batch,
                "cost_usd": best.cost_usd,
            },
        },
    }


def bench_telemetry_overhead(
    spec: str = BENCH_SCENARIO, *, min_seconds: float = 0.5
) -> dict:
    """Measure what *enabled* telemetry costs the serving loop.

    Runs the scenario back-to-back untraced (the default
    ``NullTracer`` path, which the runs/sec gate covers) and with a
    :class:`~repro.telemetry.RecordingTracer` attached, reporting both
    rates and the fractional slowdown.  Recorded informationally in
    ``BENCH_serving.json`` under the top-level ``telemetry`` key — the
    disabled path stays inside the existing gates; this records what
    opting in costs.
    """
    from repro.telemetry import RecordingTracer

    path = resolve_scenario(spec)
    scenario = load_scenario(path)
    trace = scenario.build_trace()
    scenario.run(trace)  # warmup, untimed

    def rate(tracer_factory):
        runs = 0
        events = 0
        start = time.perf_counter()
        while True:
            tracer = tracer_factory()
            scenario.run(trace, tracer=tracer)
            runs += 1
            if tracer is not None:
                events = len(tracer.events)
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                return runs / elapsed, events

    untraced_rps, _ = rate(lambda: None)
    recording_rps, events = rate(RecordingTracer)
    return {
        "scenario": scenario.name,
        "events_per_run": events,
        "untraced_runs_per_sec": untraced_rps,
        "recording_runs_per_sec": recording_rps,
        "recording_overhead_frac": 1.0 - recording_rps / untraced_rps,
    }
