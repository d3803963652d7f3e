"""The cluster simulator: routed queues, priorities, preemption.

:class:`ClusterSimulator` specialises the machine-count-agnostic serving
loop (:class:`~repro.serving.ServingSimulator`) for a front-door
architecture: instead of every machine admitting from one shared queue,
a :class:`~repro.cluster.routers.Router` assigns each arrival to a
per-machine queue at its arrival instant (waking only that machine),
admission within a machine is ordered by priority class (base batching
policy within a class), and — when the
:class:`~repro.cluster.slo.SLOPolicy` enables it — a deadline-threatened
high-priority prefill preempts the newest low-priority resident.

With one machine, the round-robin router, and a single priority class,
every specialisation collapses to the base simulator exactly (same event
trace, bit-identical metrics) — a property the test suite pins.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from ..hardware import Machine
from ..models import ModelSpec
from ..serving import (
    BatchingPolicy,
    MachineGroup,
    Request,
    ServingConfig,
    ServingSimulator,
)
from ..serving.simulator import Preemptor, _RunState
from ..telemetry.events import ClassInfo, RunStarted
from .report import ClusterReport
from .routers import HealthAwareRouter, HealthMonitor, get_router
from .slo import DeadlinePreemptor, PriorityOrderedPolicy, SLOPolicy


@dataclasses.dataclass(frozen=True)
class ClusterConfig(ServingConfig):
    """Serving knobs plus the cluster front door."""

    num_machines: int = 2
    #: router name (see :data:`repro.cluster.routers.ROUTERS`)
    router: str = "round-robin"
    #: seed for routers that randomise (power-of-two probes)
    router_seed: int = 0
    #: wrap the router in :class:`~repro.cluster.routers.HealthAwareRouter`
    #: (skip down/partitioned machines, demote EWMA-detected stragglers);
    #: meaningful only with a fault schedule — without one every machine
    #: is always healthy and the wrapper is skipped entirely
    health_aware: bool = False


class ClusterSimulator(ServingSimulator):
    """N replicated Hermes machines behind a routing front door."""

    def __init__(
        self,
        model: ModelSpec | str,
        policy: BatchingPolicy | str = "fcfs",
        config: ClusterConfig | None = None,
        *,
        slo: SLOPolicy | None = None,
        machine: Machine | None = None,
        trace=None,
        granularity: int = 64,
        seed: int = 7,
        fleet: typing.Sequence[MachineGroup] | None = None,
    ) -> None:
        super().__init__(
            model,
            policy,
            config or ClusterConfig(),
            machine=machine,
            trace=trace,
            granularity=granularity,
            seed=seed,
            fleet=fleet,
        )
        self.slo = slo or SLOPolicy()

    # ------------------------------------------------------------------
    def _build_state(self, workload: list[Request]) -> _RunState:
        machines = self.config.num_machines
        state = _RunState(workload, machines, num_queues=machines)
        router = get_router(self.config.router, seed=self.config.router_seed)
        faults = self.config.faults
        #: routing-time clock for the health closure — ``route`` has no
        #: time parameter, so ``assign`` stamps it before delegating
        clock = [0.0]
        monitor: HealthMonitor | None = None
        if faults is not None and self.config.health_aware:
            monitor = HealthMonitor()

            def unhealthy(m: int) -> bool:
                now = clock[0]
                return (faults.is_down(m, now)
                        or faults.is_partitioned(m, now)
                        or monitor.demoted(m))

            router = HealthAwareRouter(router, unhealthy)
            state.observe_step = monitor.observe

        def bind_throughputs() -> None:
            if router.needs_throughputs:
                router.bind_fleet([
                    executor.estimated_tokens_per_second()
                    for executor in self.executors
                ])

        bind_throughputs()
        if faults is not None and faults.degrades:

            def on_degrade(machine: int) -> None:
                # a renegotiated machine is legitimately slower: relearn
                # its straggler baseline, and re-feed throughput-aware
                # routers the degraded tokens/sec estimates so "least
                # drain time" stays true on the diminished fleet
                if monitor is not None:
                    monitor.rebaseline(machine)
                bind_throughputs()

            state.on_degrade = on_degrade

        def assign(request: Request, now: float) -> int:
            clock[0] = now
            target = router.route(request, state.loads)
            if faults is not None and faults.is_partitioned(target, now):
                # a router<->machine partition is a network fact, not a
                # policy choice: *no* router can hand work to a machine
                # it cannot reach.  Probe linearly to the next reachable
                # machine; with the whole fleet partitioned the choice
                # stands and the queue drains on reconnection.
                for k in range(1, machines):
                    candidate = (target + k) % machines
                    if not faults.is_partitioned(candidate, now):
                        target = candidate
                        break
            return target

        state.assign = assign
        self._last_router_name = router.name
        return state

    def _admission_policy(self) -> BatchingPolicy:
        return PriorityOrderedPolicy(self.policy, self.slo)

    def _run_started_event(self) -> RunStarted:
        event = super()._run_started_event()
        return dataclasses.replace(
            event,
            router=self._last_router_name,
            classes=tuple(
                ClassInfo(
                    name=c.name,
                    priority=c.priority,
                    ttft_slo=c.ttft_slo,
                    tbt_slo=c.tbt_slo,
                )
                for c in sorted(
                    self.slo.classes, key=lambda c: (-c.priority, c.name)
                )
            ),
            preemptive=self.slo.preemptive,
        )

    def _preemptor(self) -> Preemptor | None:
        if not self.slo.preemptive:
            return None
        faults = self.config.faults
        health = None
        if faults is not None:
            # a victim's free re-admission lands back on the same
            # machine, so the preemptor must know when that machine is
            # straggling/degraded/dying — resolved by executor identity
            # (the victim call passes the executor, not the index)
            index = {id(ex): m for m, ex in enumerate(self.executors)}

            def health(executor, now: float) -> str:
                return faults.health_state(index[id(executor)], now)

        return DeadlinePreemptor(self._admission_policy(), self.slo,
                                 health=health)

    def _make_report(self, state: _RunState, makespan: float) -> ClusterReport:
        return ClusterReport(
            policy=self.policy.name,
            num_machines=self.config.num_machines,
            records=list(state.records.values()),
            makespan=makespan,
            queue_samples=state.queue_samples,
            batch_samples=state.batch_samples,
            machine_gpu_busy=state.machine_gpu_busy,
            machine_dimm_busy=state.machine_dimm_busy,
            batch_limit_clamps=state.batch_limit_clamps,
            router=self._last_router_name,
            slo=self.slo,
            domains=self._declared_domains(),
            correlated_outage_seconds=(
                self.config.faults.correlated_outage_within(makespan)
                if self.config.faults is not None else math.nan
            ),
            **self._fault_fields(makespan),
        )
