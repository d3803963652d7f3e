"""Analytic pruning: discard candidate fleets without simulating them.

Two pure screens, both built from the shared cost kernels in
:mod:`repro.baselines.base` and :mod:`repro.core.engine` (the same
spellings the serving backends charge per token and the engine checks,
so the planner and the simulator cannot disagree about what a machine
costs):

* **Memory feasibility** — a Hermes machine must hold the model's
  sparse weights on its DIMM pool and the dense weights plus workspace
  on its GPU (:func:`~repro.core.engine.hermes_memory_feasible`,
  exactly the checks that make the engine raise).  The
  streamed backends (dense, dejavu) degrade instead of failing — their
  GPU-resident weight fraction
  (:func:`~repro.baselines.base.weights_resident_fraction`) is recorded
  as a diagnostic and their slowness is left to the throughput screen.
* **Throughput lower bound** — the scenario's offered load (exact, from
  the generated workload) must be coverable by the fleet's estimated
  aggregate decode rate.  The estimate
  (:func:`~repro.serving.probe_tokens_per_second`) is heuristic, so it
  is inflated by the spec's ``optimism`` factor before comparing —
  pruning only fleets that miss by a wide margin and never one the
  simulator could validate (pinned by the planner tests).  For
  weight-streaming dense fleets a *sound* PCIe bound
  (:func:`~repro.baselines.base.streamed_token_transfer_floor`) caps
  the optimistic estimate.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from ..baselines.base import (
    streamed_token_transfer_floor,
    weights_resident_fraction,
)
from ..core.engine import hermes_memory_feasible
from ..models import get_model
from ..serving import probe_tokens_per_second
from .space import FleetCandidate

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scenarios import PlannerSpec, Scenario


@dataclasses.dataclass(frozen=True)
class OfferedLoad:
    """The scenario's traffic, reduced to a demanded token rate.

    ``demanded_tokens_per_second`` is the decode work the whole
    workload carries divided by the window it must roughly fit in —
    the arrival span plus the laxest completion slack any SLO-bound
    request enjoys (TTFT deadline plus its output at the TBT deadline).
    Zero when no class declares a complete TTFT+TBT SLO pair: latency
    then imposes no sustained-rate requirement the planner can bound.
    """

    total_output_tokens: int
    arrival_span: float
    slo_slack: float
    demanded_tokens_per_second: float


def offered_load(scenario: "Scenario") -> OfferedLoad:
    """Exact offered load from the scenario's (seeded) workload."""
    workload = scenario.build_workload()
    total = sum(r.output_len for r in workload)
    span = max((r.arrival for r in workload), default=0.0)
    classes = {c.name: c for c in scenario.slo.classes}
    slack = 0.0
    bounded = False
    for request in workload:
        cls = classes.get(request.class_name)
        if cls is None or cls.ttft_slo is None or cls.tbt_slo is None:
            continue  # no completion deadline -> no rate demand
        bounded = True
        slack = max(slack, cls.ttft_slo + request.output_len * cls.tbt_slo)
    if not bounded or total == 0:
        demanded = 0.0
    else:
        demanded = total / max(span + slack, 1e-12)
    return OfferedLoad(
        total_output_tokens=total,
        arrival_span=span,
        slo_slack=slack,
        demanded_tokens_per_second=demanded,
    )


@dataclasses.dataclass(frozen=True)
class CandidateAnalysis:
    """One candidate's analytic verdict (no simulator involved)."""

    candidate: FleetCandidate
    cost_usd: float
    memory_ok: bool
    #: why memory feasibility failed ("" when it did not)
    memory_reason: str
    #: GPU-resident weight fraction (streamed backends; 1.0 for hermes,
    #: whose weights live on the DIMM pool by construction)
    resident_fraction: float
    #: per-machine probe estimate (nan when memory-infeasible)
    est_tokens_per_second: float
    #: count x estimate — the frontier's capacity axis
    fleet_tokens_per_second: float
    throughput_ok: bool
    cost_ok: bool

    @property
    def feasible(self) -> bool:
        return self.memory_ok and self.throughput_ok and self.cost_ok


def analyze_candidate(
    candidate: FleetCandidate,
    scenario: "Scenario",
    load: OfferedLoad,
    spec: "PlannerSpec",
) -> CandidateAnalysis:
    """Run both analytic screens on one candidate."""
    machine = candidate.machine(scenario.machine)
    model = get_model(candidate.model)
    cost = candidate.cost_usd(scenario.machine)
    cost_ok = spec.max_cost_usd is None or cost <= spec.max_cost_usd

    if candidate.backend == "hermes":
        memory_ok, reason = hermes_memory_feasible(machine, model)
        resident = 1.0
        faults = scenario.config.faults
        if memory_ok and faults is not None and faults.degrades:
            # the scenario injects partial degradation: a candidate is
            # only feasible if it *stays* feasible on the worst-case
            # surviving DIMM pool — otherwise the renegotiation the
            # simulator would attempt raises instead of serving
            worst = min(
                faults.degrade_state(d.machine, math.inf)[0]
                for d in faults.degrades
            )
            degraded = dataclasses.replace(
                machine,
                num_dimms=max(1, int(machine.num_dimms * worst)),
            )
            memory_ok, degraded_reason = hermes_memory_feasible(
                degraded, model
            )
            if not memory_ok:
                reason = (
                    f"after worst-case degrade to {degraded.num_dimms} "
                    f"DIMMs ({worst:.2f} of the pool): {degraded_reason}"
                )
    else:
        memory_ok, reason = True, ""
        resident = weights_resident_fraction(machine, model)

    if not memory_ok:
        return CandidateAnalysis(
            candidate=candidate,
            cost_usd=cost,
            memory_ok=False,
            memory_reason=reason,
            resident_fraction=resident,
            est_tokens_per_second=math.nan,
            fleet_tokens_per_second=math.nan,
            throughput_ok=False,
            cost_ok=cost_ok,
        )

    est = probe_tokens_per_second(
        candidate.backend,
        machine,
        model,
        nominal_batch=candidate.nominal_batch,
        granularity=scenario.granularity,
        seed=scenario.trace_seed,
    )
    fleet_est = est * candidate.count
    upper_bound = fleet_est * spec.optimism
    if candidate.backend == "dense" and resident < 1.0:
        # sound per-machine cap: no pipeline beats the PCIe stream of
        # the non-resident weights, even at the largest admitted batch
        floor = streamed_token_transfer_floor(machine, model, resident)
        pcie_cap = scenario.config.max_batch / floor * candidate.count
        upper_bound = min(upper_bound, pcie_cap)
    throughput_ok = upper_bound >= load.demanded_tokens_per_second
    return CandidateAnalysis(
        candidate=candidate,
        cost_usd=cost,
        memory_ok=True,
        memory_reason="",
        resident_fraction=resident,
        est_tokens_per_second=est,
        fleet_tokens_per_second=fleet_est,
        throughput_ok=throughput_ok,
        cost_ok=cost_ok,
    )
