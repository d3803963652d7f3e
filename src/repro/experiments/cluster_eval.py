"""Cluster scenario evaluation: SLO attainment across routers.

Beyond the paper: runs declarative scenario specs (``scenarios/*.json`` /
``*.toml``) through the cluster simulator and reports, per (scenario,
router, priority class): completed requests, cluster token throughput,
P50/P99 TTFT, P50/P99 TBT, TTFT/TBT/joint SLO attainment, preemption
count, Jain fairness across tenants, and mean per-machine DIMM-pool
utilization.

Two entry forms:

* ``python -m repro.experiments cluster`` — the bundled tiny scenarios
  swept across *every* router (the scenario's own router plus the three
  others), so routing policies are directly comparable per workload;
* ``python -m repro.experiments cluster --scenario <file>`` — one spec,
  exactly as written (its own router only): the "new workload without a
  code change" path.

Expected shape: preemptive scenarios hold interactive-class attainment
near 1.0 while the batch class absorbs the deadline pressure (its E2E
tail and the preemption count grow); session-affinity trades global
balance (lower fairness across machines) for per-tenant locality.
"""

from __future__ import annotations

import dataclasses
import pathlib

from ..models import get_model
from ..scenarios import Scenario, load_scenario
from ..serving import default_serving_trace
from ..telemetry import scenario_sinks
from .common import ExperimentResult
from .runner import run_grid

#: repo-root scenarios/ directory the bundled specs live in
SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[3] / "scenarios"

#: bundled specs swept by the default (no ``--scenario``) run
TINY_SCENARIOS = ("mixed_slo_tiny.json", "p2c_burst_storm_tiny.json")
FULL_EXTRA_SCENARIOS = ("mixed_slo_opt13b.json",)

ROUTER_SWEEP = (
    "round-robin",
    "least-loaded",
    "session-affinity",
    "power-of-two",
)


def resolve_scenario(spec: str | pathlib.Path) -> pathlib.Path:
    """A scenario path: as given, or looked up under ``scenarios/``."""
    path = pathlib.Path(spec)
    if path.exists():
        return path
    for candidate in (
        SCENARIO_DIR / path.name,
        SCENARIO_DIR / f"{path.name}.json",
        SCENARIO_DIR / f"{path.name}.toml",
    ):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(
        f"no scenario spec {spec!r} (looked in . and {SCENARIO_DIR})"
    )


def _scenario_rows(
    scenario: Scenario,
    router: str | None,
    trace_out: str | None = None,
) -> tuple[list[list], list[str]]:
    """Run one (scenario, router) cell; one output row per class.

    Returns ``(rows, written)`` where ``written`` lists any telemetry
    output paths produced (scenario ``telemetry:`` section and/or the
    CLI ``--trace-out`` override).
    """
    if router is not None:
        scenario = dataclasses.replace(
            scenario,
            config=dataclasses.replace(scenario.config, router=router),
        )
    trace = default_serving_trace(
        get_model(scenario.model),
        granularity=scenario.granularity,
        seed=scenario.trace_seed,
    )
    sinks = scenario_sinks(
        scenario.telemetry, trace_out=trace_out, source=scenario.name
    )
    report = scenario.run(trace, tracer=sinks.tracer)
    written = sinks.close()
    rows = []
    for name in report.class_names:
        done = [r for r in report.class_records(name) if r.finished]
        if not done:
            continue
        attainment = report.slo_attainment(name)
        rows.append([
            scenario.name,
            report.router,
            name,
            len(done),
            report.tokens_per_second,
            report.class_ttft_percentile(name, 50) * 1e3,
            report.class_ttft_percentile(name, 99) * 1e3,
            report.class_tbt_percentile(name, 50) * 1e3,
            report.class_tbt_percentile(name, 99) * 1e3,
            report.class_queue_wait_percentile(name, 50) * 1e3,
            report.class_queue_wait_percentile(name, 99) * 1e3,
            attainment["ttft"],
            attainment["tbt"],
            attainment["joint"],
            report.preemptions,
            report.fairness_index(),
            sum(report.machine_dimm_utilization)
            / max(1, report.num_machines),
        ])
    return rows, written


def _point(task: tuple[str, str | None]) -> list[list]:
    """One (scenario path, router override) cell of the sweep."""
    path, router = task
    rows, _ = _scenario_rows(load_scenario(path), router)
    return rows


HEADERS = [
    "scenario",
    "router",
    "class",
    "done",
    "tok/s",
    "TTFT p50 (ms)",
    "TTFT p99 (ms)",
    "TBT p50 (ms)",
    "TBT p99 (ms)",
    "QW p50 (ms)",
    "QW p99 (ms)",
    "SLO ttft",
    "SLO tbt",
    "SLO joint",
    "preempt",
    "fairness",
    "DIMM util",
]

NOTES = [
    "SLO columns are the fraction of ALL the class's requests meeting "
    "the deadline (joint = both TTFT and TBT; requests stranded by an "
    "outage count as missed); QW is the arrival -> prefill-start "
    "queue wait",
    "fairness is Jain's index over per-tenant decode service rates; "
    "preempt counts low-priority evictions for deadline-threatened "
    "prefills",
]


def run(
    quick: bool = False,
    jobs: int | None = None,
    scenario: str | None = None,
    trace_out: str | None = None,
) -> ExperimentResult:
    notes = list(NOTES)
    if scenario is not None:
        path = resolve_scenario(scenario)
        rows, written = _scenario_rows(
            load_scenario(path), None, trace_out=trace_out
        )
        if written:
            notes.append(
                "telemetry written: " + ", ".join(written)
                + " (tail streams with `python -m repro.experiments "
                "watch <file>`)"
            )
        description = f"scenario {path.name} as specified"
    else:
        if trace_out is not None:
            raise ValueError(
                "--trace-out needs a single run: pass --scenario too"
            )
        names = TINY_SCENARIOS
        if not quick:
            names = names + FULL_EXTRA_SCENARIOS
        points: list[tuple[str, str | None]] = []
        for name in names:
            path = str(resolve_scenario(name))
            points.extend((path, router) for router in ROUTER_SWEEP)
        rows = [
            row for point in run_grid(_point, points, jobs=jobs)
            for row in point
        ]
        description = "bundled scenarios x router sweep"
    return ExperimentResult(
        name="cluster",
        description=description,
        headers=HEADERS,
        rows=rows,
        notes=notes,
    )
