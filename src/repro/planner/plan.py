"""The capacity planner: enumerate, prune, validate, pick the cheapest.

``plan()`` answers "what is the cheapest fleet that serves this
scenario's traffic within its SLO table?" in four deterministic steps:

1. **Enumerate** every candidate fleet the scenario's ``planner:``
   section allows (:func:`~repro.planner.space.enumerate_candidates`).
2. **Prune analytically** with the shared cost kernels
   (:func:`~repro.planner.prune.analyze_candidate`) — memory-infeasible
   Hermes fleets and fleets whose optimistic throughput bound cannot
   cover the offered load never reach the simulator.
3. **Validate the Pareto frontier only**
   (:func:`~repro.planner.frontier.pareto_frontier`): each surviving
   non-dominated candidate gets a short seeded simulator run, fanned
   out over :func:`~repro.experiments.runner.run_grid` workers when the
   scenario came from a file (a path travels to spawn workers; an
   in-memory :class:`~repro.scenarios.Scenario` validates serially).
4. **Pick** the cheapest validated fleet whose every SLO-bearing class
   reaches the spec's ``target_attainment``, breaking cost ties by
   cost-normalized attainment (machine-seconds per met-SLO token) and
   then by the candidate's own fields — same answer at any ``--jobs``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import pathlib
import typing

from ..experiments.runner import run_grid
from ..models import get_model
from ..scenarios import Scenario, load_scenario
from ..serving import default_serving_trace
from .frontier import pareto_frontier
from .prune import (
    CandidateAnalysis,
    OfferedLoad,
    analyze_candidate,
    offered_load,
)
from .space import FleetCandidate, enumerate_candidates

if typing.TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..cluster import ClusterReport

#: request cap per tenant under ``--quick`` (CI smoke) validation
QUICK_REQUESTS = 32


@dataclasses.dataclass(frozen=True)
class ValidationOutcome:
    """One frontier candidate's simulator verdict."""

    candidate: FleetCandidate
    cost_usd: float
    passed: bool
    #: why validation failed ("" when it passed): the failing class and
    #: its attainment, or the constructor/run error for a fleet the
    #: simulator rejected outright
    reason: str
    #: per-class joint SLO attainment (SLO-bearing classes only)
    attainment: dict[str, float] = dataclasses.field(default_factory=dict)
    goodput: float = math.nan
    machine_seconds_per_good_token: float = math.nan


@dataclasses.dataclass(frozen=True)
class PlanResult:
    """Everything ``plan()`` decided, including the audit trail."""

    scenario: str
    budget: int
    target_attainment: float
    quick: bool
    load: OfferedLoad
    #: every enumerated candidate's analytic verdict
    analyses: tuple[CandidateAnalysis, ...]
    #: the non-dominated survivors that were handed to the simulator
    frontier: tuple[CandidateAnalysis, ...]
    #: simulator verdicts, frontier order (cheapest first)
    validations: tuple[ValidationOutcome, ...]
    #: the cheapest validated SLO-meeting fleet, or ``None``
    best: ValidationOutcome | None

    @property
    def num_candidates(self) -> int:
        return len(self.analyses)

    @property
    def num_pruned(self) -> int:
        return sum(1 for a in self.analyses if not a.feasible)

    def to_text(self) -> str:
        lines = [
            f"capacity plan: {self.scenario} "
            f"(budget {self.budget}, target attainment "
            f"{self.target_attainment:.0%})",
            f"offered load: {self.load.total_output_tokens} output tokens "
            f"over {self.load.arrival_span:.1f}s arrivals "
            f"-> demanded {self.load.demanded_tokens_per_second:.1f} tok/s",
            f"candidates: {self.num_candidates} enumerated, "
            f"{self.num_pruned} pruned analytically, "
            f"{len(self.frontier)} on the cost/capacity frontier",
            "",
            f"{'fleet':<44} {'cost $':>9} {'est tok/s':>10} {'verdict':<8}",
        ]
        for outcome in self.validations:
            analysis = next(
                a for a in self.frontier if a.candidate == outcome.candidate
            )
            verdict = "PASS" if outcome.passed else "fail"
            lines.append(
                f"{outcome.candidate.describe():<44} "
                f"{outcome.cost_usd:>9.0f} "
                f"{analysis.fleet_tokens_per_second:>10.1f} "
                f"{verdict:<8}"
                + ("" if outcome.passed else f" ({outcome.reason})")
            )
        lines.append("")
        if self.best is None:
            lines.append(
                "no fleet within budget meets the SLO table; cheapest "
                "failure above explains what ran out"
            )
        else:
            lines.append(
                "cheapest SLO-meeting fleet: "
                f"{self.best.candidate.describe()}"
            )
            lines.append(
                f"  cost ${self.best.cost_usd:.0f}, goodput "
                f"{self.best.goodput:.1f} tok/s, "
                f"{self.best.machine_seconds_per_good_token * 1e3:.3f} "
                f"machine-ms per met-SLO token"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable form (``--json``); ``nan`` becomes ``null``."""
        def num(x: float) -> float | None:
            return None if isinstance(x, float) and math.isnan(x) else x

        def cand(c: FleetCandidate) -> dict:
            return {
                "backend": c.backend,
                "gpu": c.gpu,
                "model": c.model,
                "count": c.count,
                "nominal_batch": c.nominal_batch,
            }

        def outcome(o: ValidationOutcome) -> dict:
            return {
                "candidate": cand(o.candidate),
                "cost_usd": o.cost_usd,
                "passed": o.passed,
                "reason": o.reason,
                "attainment": {k: num(v) for k, v in o.attainment.items()},
                "goodput": num(o.goodput),
                "machine_seconds_per_good_token": num(
                    o.machine_seconds_per_good_token
                ),
            }

        return {
            "scenario": self.scenario,
            "budget": self.budget,
            "target_attainment": self.target_attainment,
            "quick": self.quick,
            "offered_load": {
                "total_output_tokens": self.load.total_output_tokens,
                "arrival_span": self.load.arrival_span,
                "slo_slack": self.load.slo_slack,
                "demanded_tokens_per_second": (
                    self.load.demanded_tokens_per_second
                ),
            },
            "num_candidates": self.num_candidates,
            "num_pruned": self.num_pruned,
            "frontier": [
                {
                    "candidate": cand(a.candidate),
                    "cost_usd": a.cost_usd,
                    "est_tokens_per_second": num(a.est_tokens_per_second),
                    "fleet_tokens_per_second": num(
                        a.fleet_tokens_per_second
                    ),
                    "resident_fraction": a.resident_fraction,
                }
                for a in self.frontier
            ],
            "validations": [outcome(o) for o in self.validations],
            "best": None if self.best is None else outcome(self.best),
        }


# ----------------------------------------------------------------------
# simulator validation
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=4)
def _scenario(path: str) -> Scenario:
    """Per-process scenario cache for spawn workers."""
    return load_scenario(path)


def _quick_scenario(scenario: Scenario) -> Scenario:
    """Truncate every tenant to :data:`QUICK_REQUESTS` requests."""
    tenants = tuple(
        dataclasses.replace(
            t,
            workload=dataclasses.replace(
                t.workload,
                num_requests=min(t.workload.num_requests, QUICK_REQUESTS),
            ),
        )
        for t in scenario.tenants
    )
    return dataclasses.replace(scenario, tenants=tenants)


def _validate(
    scenario: Scenario,
    candidate: FleetCandidate,
    target: float,
    quick: bool,
) -> ValidationOutcome:
    """One short seeded run of ``scenario`` on ``candidate``'s fleet."""
    cost = candidate.cost_usd(scenario.machine)
    if quick:
        scenario = _quick_scenario(scenario)
    variant = dataclasses.replace(
        scenario,
        fleet=candidate.groups(scenario.machine, scenario.model),
    )
    try:
        report: "ClusterReport" = variant.run(
            default_serving_trace(
                get_model(scenario.model),
                granularity=scenario.granularity,
                seed=scenario.trace_seed,
            )
        )
    except (ValueError, MemoryError) as exc:
        # the simulator rejected the fleet outright (e.g. a fault
        # schedule naming machines the candidate does not have, or a
        # Hermes engine that cannot hold the model) — a failed
        # validation, not a planner crash
        return ValidationOutcome(
            candidate=candidate,
            cost_usd=cost,
            passed=False,
            reason=f"simulator rejected fleet: {exc}",
        )
    attainment: dict[str, float] = {}
    failures: list[str] = []
    for cls in variant.slo.classes:
        if cls.ttft_slo is None and cls.tbt_slo is None:
            continue  # no declared deadline -> nothing to attain
        joint = report.slo_attainment(cls.name)["joint"]
        attainment[cls.name] = joint
        if math.isnan(joint):
            continue  # class saw no requests in this workload
        if joint < target:
            failures.append(f"{cls.name} joint {joint:.2f} < {target:.2f}")
    return ValidationOutcome(
        candidate=candidate,
        cost_usd=cost,
        passed=not failures,
        reason="; ".join(failures),
        attainment=attainment,
        goodput=report.goodput,
        machine_seconds_per_good_token=(
            report.machine_seconds_per_good_token
        ),
    )


def _validate_point(
    task: tuple[str, FleetCandidate, float, bool]
) -> ValidationOutcome:
    """Spawn-safe grid point: reload the scenario by path, validate."""
    path, candidate, target, quick = task
    return _validate(_scenario(path), candidate, target, quick)


def _best_key(outcome: ValidationOutcome):
    cost_per_token = outcome.machine_seconds_per_good_token
    if math.isnan(cost_per_token):
        cost_per_token = math.inf
    c = outcome.candidate
    return (
        outcome.cost_usd,
        cost_per_token,
        c.count,
        c.backend,
        c.gpu,
        c.model,
        c.nominal_batch,
    )


# ----------------------------------------------------------------------
# the planner entry point
# ----------------------------------------------------------------------
def plan(
    scenario: Scenario | str | pathlib.Path,
    *,
    budget: int | None = None,
    quick: bool = False,
    jobs: int | None = None,
) -> PlanResult:
    """Find the cheapest fleet serving ``scenario`` within its SLOs.

    ``scenario`` may be a spec path (validation then parallelises over
    ``jobs`` spawn workers) or an in-memory :class:`Scenario` (serial
    validation — the object never crosses a process boundary).
    ``budget`` overrides the spec's ``planner.budget``; ``quick`` caps
    every tenant at :data:`QUICK_REQUESTS` requests for smoke runs.
    """
    path: str | None = None
    if isinstance(scenario, (str, pathlib.Path)):
        path = str(scenario)
        scenario = load_scenario(path)
    spec = scenario.planner
    if budget is not None:
        spec = dataclasses.replace(
            spec,
            budget=int(budget),
            counts=tuple(c for c in spec.counts if c <= int(budget)),
        )

    load = offered_load(scenario)
    analyses = tuple(
        analyze_candidate(c, scenario, load, spec)
        for c in enumerate_candidates(scenario, spec)
    )
    frontier = tuple(pareto_frontier(a for a in analyses if a.feasible))

    target = spec.target_attainment
    if path is not None:
        validations = tuple(
            run_grid(
                _validate_point,
                [(path, a.candidate, target, quick) for a in frontier],
                jobs=jobs,
            )
        )
    else:
        validations = tuple(
            _validate(scenario, a.candidate, target, quick)
            for a in frontier
        )

    passing = [o for o in validations if o.passed]
    best = min(passing, key=_best_key) if passing else None
    return PlanResult(
        scenario=scenario.name,
        budget=spec.budget,
        target_attainment=target,
        quick=quick,
        load=load,
        analyses=analyses,
        frontier=frontier,
        validations=validations,
        best=best,
    )
