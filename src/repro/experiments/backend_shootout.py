"""Backend shootout: identical traffic on Hermes and the baselines.

Beyond the paper: the offline figures (fig09/fig17) compare systems one
generation pass at a time; this experiment replays *the same open-loop
workload* — from a declarative scenario whose ``fleet:`` section defines
a mixed hermes/dense/dejavu cluster — across four fleets:

* one homogeneous fleet per registered backend (same machine count as
  the scenario's fleet), and
* the scenario's own mixed fleet, routed by its (typically
  throughput-weighted) router, with a per-backend breakdown of which
  machines absorbed which latency.

Reported per (fleet, backend, class): completed requests, cluster token
throughput, P50/P99 TTFT, P50/P99 TBT, and TTFT/TBT/joint SLO
attainment — the online comparison the offline ``run()`` passes cannot
express (queueing, batching, and preemption all interact with each
backend's per-token cost profile).

Expected shape: on a model that *fits GPU memory* (the bundled
tiny-test scenario — a dispatch/correctness exercise, not the paper's
regime) the dense backend dominates outright: every read is an HBM
read, while Hermes pays the NDP-DIMM path and Deja Vu the host
stream, so both trail on TBT and SLO attainment.  The offloading
backends only earn their keep on models *beyond* GPU memory (compare
``fig09``, or point ``--scenario`` at an OPT-13B/30B fleet spec),
where dense decode turns PCIe-transfer-bound.  In the mixed fleet the
throughput-weighted router biases work toward whichever backend is
fastest for the scenario's model, so the fleet lands between its
parts.
"""

from __future__ import annotations

import dataclasses

from ..cluster import ClusterReport
from ..models import get_model
from ..scenarios import Scenario, load_scenario
from ..serving import BACKENDS, MachineGroup, default_serving_trace
from ..serving.metrics import RequestRecord, percentile
from .cluster_eval import resolve_scenario
from .common import ExperimentResult
from .runner import run_grid

#: the bundled spec the shootout replays (fleet: one machine per backend)
DEFAULT_SCENARIO = "backend_shootout_tiny.json"

#: homogeneous fleets swept next to the scenario's own mixed fleet
BACKEND_SWEEP = tuple(sorted(BACKENDS))


def _fleet_variant(scenario: Scenario, backend: str | None) -> Scenario:
    """The scenario with its fleet replaced by one homogeneous group.

    ``None`` keeps the scenario's own (mixed) fleet.  The homogeneous
    variants keep the machine count, router, policy, classes and
    tenants identical, so every fleet serves byte-identical traffic.
    """
    if backend is None:
        return scenario
    count = scenario.config.num_machines
    return dataclasses.replace(
        scenario, fleet=(MachineGroup(count=count, backend=backend),)
    )


def _request_metrics(
    report: ClusterReport, records: list[RequestRecord]
) -> list[float] | None:
    """[done, ttft p50/p99 (ms), tbt p50/p99 (ms), slo fractions]."""
    done = [r for r in records if r.finished]
    if not done:
        return None
    ttfts = [r.ttft for r in done]
    gaps = [g for r in done for g in r.tbts]
    flags = [report.request_attains(r) for r in done]
    n = len(flags)
    return [
        len(done),
        percentile(ttfts, 50) * 1e3,
        percentile(ttfts, 99) * 1e3,
        percentile(gaps, 50) * 1e3 if gaps else 0.0,
        percentile(gaps, 99) * 1e3 if gaps else 0.0,
        sum(1 for t, _ in flags if t) / n,
        sum(1 for _, b in flags if b) / n,
        sum(1 for t, b in flags if t and b) / n,
    ]


def _point(task: tuple[str, str | None]) -> list[list]:
    """One fleet variant of the shootout; one row per (backend, class)."""
    path, backend = task
    scenario = _fleet_variant(load_scenario(path), backend)
    trace = default_serving_trace(
        get_model(scenario.model),
        granularity=scenario.granularity,
        seed=scenario.trace_seed,
    )
    simulator = scenario.build_simulator(trace)
    machine_backends = simulator.machine_backends
    report = simulator.run(scenario.build_workload())
    label = backend if backend is not None else "mixed"
    rows: list[list] = []
    for name in report.class_names:
        metrics = _request_metrics(report, report.class_records(name))
        if metrics is None:
            continue
        rows.append([label, "*", name, *metrics, report.tokens_per_second])
    if backend is None:
        # mixed fleet: attribute completed requests to the backend of
        # the machine that served them
        for sub in sorted(set(machine_backends)):
            machines = {m for m, b in enumerate(machine_backends) if b == sub}
            records = [r for r in report.records if r.machine in machines]
            metrics = _request_metrics(report, records)
            if metrics is None:
                continue
            rows.append(
                [label, sub, "(all)", *metrics, report.tokens_per_second]
            )
    return rows


HEADERS = [
    "fleet",
    "backend",
    "class",
    "done",
    "TTFT p50 (ms)",
    "TTFT p99 (ms)",
    "TBT p50 (ms)",
    "TBT p99 (ms)",
    "SLO ttft",
    "SLO tbt",
    "SLO joint",
    "tok/s",
]

NOTES = [
    "every fleet serves the identical workload from the scenario's "
    "tenants section; fleet 'mixed' is the scenario's own fleet: "
    "composition behind its router",
    "mixed-fleet '(all)' rows attribute requests to the backend of the "
    "machine that served them; tok/s is the whole fleet's",
]


def run(
    quick: bool = False,
    jobs: int | None = None,
    scenario: str | None = None,
) -> ExperimentResult:
    path = str(resolve_scenario(scenario or DEFAULT_SCENARIO))
    points: list[tuple[str, str | None]] = [
        (path, backend) for backend in BACKEND_SWEEP
    ]
    points.append((path, None))
    rows = [
        row for point in run_grid(_point, points, jobs=jobs) for row in point
    ]
    return ExperimentResult(
        name="backend_shootout",
        description=(
            "same workload replayed on homogeneous "
            f"{'/'.join(BACKEND_SWEEP)} fleets and the scenario's mixed "
            "fleet"
        ),
        headers=HEADERS,
        rows=rows,
        notes=NOTES,
    )
