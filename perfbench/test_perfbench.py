"""Tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---- self time over nested spans -------------------------------------
def test_self_time_subtracts_each_child_once():
    # root [0, 100) holds a [10, 60) which holds b [20, 50) which holds
    # c [25, 35); root also holds d [70, 90)
    parent = np.array([-1, 0, 1, 2, 0])
    start = np.array([0, 10, 20, 25, 70])
    end = np.array([100, 60, 50, 35, 90])
    assert tracing.self_times(parent, start, end).tolist() == [
        30.0, 20.0, 20.0, 10.0, 20.0]


def test_layer_self_times_sum_to_root_duration():
    rec = tracing.Recorder()
    with rec.span("pass"):
        with rec.span("serving.simulator"):
            with rec.span("sim"):
                with rec.span("serving.simulator"):
                    with rec.span("core"):
                        pass
        with rec.span("cluster.report"):
            pass
    spans = rec.arrays()
    per_layer = tracing.layer_self_times(spans)
    root = spans["end"][0] - spans["start"][0]
    assert sum(per_layer.values()) == pytest.approx(root)
    assert all(value >= 0 for value in per_layer.values())


def test_traced_restores_every_entry_point():
    from repro.serving.faults import FaultSchedule
    from repro.sim import Simulator

    before = (Simulator.run, Simulator.process, FaultSchedule.is_down)
    with tracing.traced(tracing.Recorder()):
        assert Simulator.run is not before[0]
    assert (Simulator.run, Simulator.process,
            FaultSchedule.is_down) == before


# ---- calibration ------------------------------------------------------
def test_calibration_rescales_to_the_reference():
    typical = round(calib.REFERENCE_S * 2 * 1e9)  # a host twice as slow
    work = 3 * 10**9
    assert calib.calibrate(work, [typical] * 9) == pytest.approx(1.5)


def test_calibration_trims_outlying_samples():
    base = round(calib.REFERENCE_S * 1e9)
    samples = [base] * 18 + [base * 50, base // 50]
    assert calib.typical(samples) == pytest.approx(base)


def test_interval_removes_the_samplers_own_time():
    sampler = calib.Sampler()
    sampler.samples = [(5, 2, 3), (9, 4, 7), (20, 1, 2)]
    interval = sampler.interval((0, 0), (15, 2))
    assert interval.samples_ns == (2, 4)
    assert interval.work_ns == 15 - 10


# ---- output checks ----------------------------------------------------
@pytest.fixture(scope="module")
def served():
    spec = workloads.chaos_mixed(workloads.DEFAULT_SEED, scale=0.02)
    scenario = run.load_modules()["api"].load_scenario(
        run.write_spec("test", 0, spec))
    workload = scenario.build_workload()
    report = scenario.build_simulator(scenario.build_trace()).run(workload)
    return report, workload, scenario.config.faults


def test_clean_report_passes(served):
    report, workload, faults = served
    assert checks.check_report(
        report, workload, may_strand=checks.can_strand(faults)) == []


def test_dropped_token_is_rejected(served):
    report, workload, _ = served
    records = [dataclasses.replace(r, token_times=list(r.token_times))
               for r in report.records]
    victim = next(r for r in records if r.finished)
    victim.token_times.pop()
    broken = dataclasses.replace(report, records=records)
    problems = checks.check_report(broken, workload, may_strand=False)
    assert any("unfinished" in p for p in problems)


def test_duplicated_request_is_rejected(served):
    report, workload, _ = served
    broken = dataclasses.replace(
        report, records=report.records + report.records[:1])
    problems = checks.check_report(broken, workload, may_strand=False)
    assert any("more than once" in p for p in problems)


def test_unordered_tokens_and_overlong_busy_are_rejected(served):
    report, workload, _ = served
    records = [dataclasses.replace(r, token_times=list(r.token_times))
               for r in report.records]
    victim = next(r for r in records if r.finished and len(r.token_times) > 1)
    victim.token_times[0], victim.token_times[1] = (victim.token_times[1],
                                                    victim.token_times[0])
    busy = list(report.machine_gpu_busy)
    busy[0] = report.makespan * 2
    broken = dataclasses.replace(report, records=records,
                                 machine_gpu_busy=busy)
    problems = checks.check_report(broken, workload, may_strand=False)
    assert any("strictly increasing" in p for p in problems)
    assert any("exceeds makespan" in p for p in problems)


def test_same_metrics_treats_nan_as_equal():
    assert checks.same_metrics({"a": float("nan")}, {"a": float("nan")},
                               "x") == []
    assert checks.same_metrics({"a": 1.0}, {"a": 1.0 + 1e-15}, "x")


# ---- seeds ------------------------------------------------------------
def test_one_seed_fixes_every_input():
    for build in workloads.WORKLOADS.values():
        assert build(3) == build(3)
        assert workloads.params_hash(build(3)) != workloads.params_hash(
            build(4))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_held_out_seed_passes_checks_with_same_metric_names(name):
    modules = run.load_modules()
    names = []
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        spec = workloads.WORKLOADS[name](seed, scale=0.02)
        built = run.cold_setup(modules["api"],
                               run.write_spec(f"test-{name}", seed, spec))
        report, metrics, _ = run.serve(built)
        faults = built["scenario"].config.faults
        assert checks.check_report(report, built["workload"],
                                   may_strand=checks.can_strand(faults)) == []
        names.append(sorted(metrics))
    assert names[0] == names[1]


# ---- BENCHMARK.json ---------------------------------------------------
def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
                            metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
