"""Request-level discrete-event serving simulator.

Layers continuous batching over the per-token Hermes engine using the
*existing* event calendar (:class:`repro.sim.Simulator` — no second event
loop).  Each machine is one simulation process, so nothing inside a
machine ever contends: the process simply sleeps for the duration of
each prefill and decode step.  Arrivals are *pushed*: one front-door
process routes every request into its queue at its arrival instant and
fires only the wake signal of the machine that may admit it (in
shared-queue mode, the one signal every machine waits on).  The machine
loop is the canonical iteration-level scheduler:

1. wake when the front door (or a crashing peer) hands it work, or
   when its own fault timeline crashes it;
2. (cluster only) preemptively evict a low-priority resident request when
   a queued higher-priority prefill would otherwise miss its deadline;
3. admit queued requests in policy order while the effective batch cap
   (``min(max_batch, policy.batch_limit)``) has room, charging each
   admission's prefill on the machine;
4. run one decode iteration for the whole resident batch: quote ``k``
   tokens at the batch's mean context length, wait for them, and commit
   the granted tokens to every resident at once;
5. retire finished requests and repeat — or, when fully idle, wait on
   its wake signal.

The two fidelities share that iteration and differ only in the quote
and the wait.  ``fidelity: "exact"`` (the default) quotes one engine
step, ``k = 1``, so it spends one calendar event per token: every token
re-predicts hot and cold neurons and may remap cold neurons across the
NDP-DIMMs, exactly as the engine decodes, and the golden files pin the
result bit for bit.  ``fidelity: "fast"`` is the scale path: it quotes a
whole decode span through one closed-form ``span_estimate`` call with
uniform token spacing.  A span is planned up to the preemptor's trigger
and the machine's own next fault transition and waits on the machine's
wake signal, so an arrival for that machine cuts it at the step in
flight; it is validated against exact by distribution-level tolerances.

Faults reach a machine only through its own timeline and its wake
signal: every wait (prefill, exact step, fast span, idle park) ends at
its work's end clamped to the machine's own next crash, one check on
waking aborts the work in flight (a decode keeps only the tokens that
completed before the crash), and a peer's crash hands the machine
migrated work through the signal.

Prefill blocks decode on the same machine (no chunked prefill), which is
what creates the classic TTFT-vs-TBT tension the policies trade off.

The loop itself is machine-count-agnostic: :class:`ServingSimulator` runs
every machine against one *shared* queue (work-stealing semantics), while
:class:`repro.cluster.ClusterSimulator` subclasses it with per-machine
queues fed by a router, priority-aware admission order, and a preemptor —
all through the small override points this module exposes
(``_build_state`` / ``_admission_policy`` / ``_preemptor`` /
``_make_report``).
"""

from __future__ import annotations

import collections.abc
import dataclasses
import math
import operator
import typing
import warnings

from ..hardware import Machine
from ..models import ModelSpec, get_model
from ..sim import Signal, Simulator, WaitSignal, WaitUntil
from ..sparsity import ActivationTrace
from ..telemetry.events import (
    DecodeStep,
    MachineDegraded,
    MachineDown,
    MachineHealth,
    MachineUp,
    PrefillEnded,
    PrefillStarted,
    QueueDepth,
    RequestAdmitted,
    RequestCompleted,
    RequestMigrated,
    RequestPreempted,
    RequestResumed,
    RequestRouted,
    RunEnded,
    RunStarted,
)
from ..telemetry.tracer import NULL_TRACER, Tracer
from .backends import MachineGroup, ServingBackend, make_backend
from .executor import default_serving_trace
from .faults import FaultSchedule
from .metrics import RequestRecord, ServingReport
from .policies import BatchingPolicy, get_policy
from .workload import Request


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Cluster-level serving knobs."""

    max_batch: int = 16
    num_machines: int = 1
    #: deterministic fault timeline (crashes/stragglers/partitions/
    #: degrades) the run executes against; each machine sees only its
    #: own part of it.  ``None`` is a pristine timeline: no machine is
    #: ever down, degraded or slowed
    faults: FaultSchedule | None = None
    #: cost model fidelity: ``"exact"`` replays every token boundary
    #: (the reference, pinned bit-for-bit by goldens), ``"fast"``
    #: aggregates whole decode spans through one closed-form
    #: ``span_estimate`` call with uniform token spacing — validated
    #: against exact by distribution-level tolerances, not equality
    fidelity: str = "exact"

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.num_machines < 1:
            raise ValueError("num_machines must be >= 1")
        if self.fidelity not in ("exact", "fast"):
            raise ValueError(
                f"fidelity must be 'exact' or 'fast', got {self.fidelity!r}")


@dataclasses.dataclass(slots=True)
class ActiveEntry:
    """A request resident in some machine's running batch."""

    request: Request
    record: RequestRecord
    #: simulation time this entry (last) joined the batch — preemption
    #: victims are chosen newest-first among the lowest priority class
    admitted_at: float = 0.0

    @property
    def next_context(self) -> int:
        """KV length its next token attends over (prompt + generated + 1)."""
        return self.request.prompt_len + len(self.record.token_times) + 1


class Preemptor(typing.Protocol):
    """Decides whether a resident request must yield its batch slot.

    ``next_trigger`` is the fast-fidelity span hook: a conservative
    lower bound on the first time ``victim`` could return non-``None``
    while the queue and resident batch stay unchanged (``None`` = never
    under the current state).  The exact loop asks ``victim`` at every
    token boundary and never needs the bound.
    """

    def victim(
        self,
        now: float,
        queue: list[Request],
        active: list[ActiveEntry],
        executor: ServingBackend,
    ) -> ActiveEntry | None:
        """The entry to evict so the queue head can admit, or ``None``."""
        ...  # pragma: no cover - protocol

    def next_trigger(
        self,
        now: float,
        queue: list[Request],
        active: list[ActiveEntry],
        executor: ServingBackend,
    ) -> float | None:
        """Earliest time ``victim`` could fire, given unchanged state."""
        ...  # pragma: no cover - protocol


class _FaultHorizon:
    """One machine's own fault state, memoised between its transitions.

    The machine loop's only view of the fault timeline.  Every value it
    asks of the :class:`FaultSchedule` — am I down, my degrade state, my
    slowdown factor, my next crash, my next exec transition — changes
    only at one of the machine's *own* exec transitions, so one refresh
    at or past the next transition re-derives all five with direct
    queries: the cached values are identical to them, and between
    transitions a lookup is one float compare.  Without a schedule the
    horizon is pristine (never down, undegraded, slowdown 1.0, no crash,
    no transition) and never refreshes.
    """

    __slots__ = ("_faults", "_machine", "_until", "down_now", "degrade",
                 "slowdown", "next_down", "exec_transition")

    def __init__(self, faults: FaultSchedule | None, machine: int) -> None:
        self._faults = faults
        self._machine = machine
        self._until = math.inf if faults is None else -math.inf
        self.down_now = False
        self.degrade = (1.0, 1.0)
        self.slowdown = 1.0
        self.next_down: float | None = None
        self.exec_transition: float | None = None

    def at(self, now: float) -> "_FaultHorizon":
        if now >= self._until:
            faults = self._faults
            m = self._machine
            self.down_now = faults.is_down(m, now)
            self.degrade = faults.degrade_state(m, now)
            self.slowdown = faults.slowdown_at(m, now)
            self.next_down = faults.next_down(m, now)
            self.exec_transition = faults.next_exec_transition(m, now)
            self._until = (math.inf if self.exec_transition is None
                           else self.exec_transition)
        return self

    def stop(self, end: float) -> float:
        """A wait's deadline: ``end`` clamped to the machine's next
        crash, which a completion landing on it misses."""
        crash = self.next_down
        return end if crash is None or end < crash else crash


class _Loads(collections.abc.Sequence):
    """Live per-machine load (queued + resident) routers consult.

    A view over the run state's queues and resident counts, so a
    routing call pays only for the machines its router reads: O(1) per
    lookup, and iteration runs at C speed for the routers that scan.
    """

    __slots__ = ("_queues", "_active")

    def __init__(self, queues: list[list[Request]],
                 active: list[int]) -> None:
        self._queues = queues
        self._active = active

    def __len__(self) -> int:
        return len(self._active)

    def __getitem__(self, m: int) -> int:
        return len(self._queues[m]) + self._active[m]

    def __iter__(self) -> typing.Iterator[int]:
        return map(operator.add, map(len, self._queues), self._active)


class _RunState:
    """Mutable state shared by the processes of one run.

    ``num_queues == 1`` is the shared-queue (work-stealing) mode the
    single-cluster :class:`ServingSimulator` uses; with one queue per
    machine, ``assign`` routes each arrival to its machine at its
    arrival instant (the cluster layer passes a router here).
    """

    def __init__(
        self,
        workload: list[Request],
        num_machines: int = 1,
        *,
        num_queues: int = 1,
        assign: typing.Callable[[Request, float], int] | None = None,
    ) -> None:
        self.workload = sorted(workload, key=lambda r: (r.arrival, r.req_id))
        ids = [r.req_id for r in self.workload]
        if len(set(ids)) != len(ids):
            raise ValueError("workload req_ids must be unique")
        self.records = {
            r.req_id: RequestRecord(request=r) for r in self.workload
        }
        #: index of the first request the front door has not routed yet
        self.next_arrival_idx = 0
        self.queues: list[list[Request]] = [[] for _ in range(num_queues)]
        #: running total of queued requests across every queue — kept
        #: incrementally at each enqueue/dequeue so ``note_queue`` stays
        #: O(1) instead of summing 1000 per-machine queues per sample
        self.queued_count = 0
        self.assign = assign
        #: telemetry sink; every emission site guards on ``.enabled``
        self.tracer: Tracer = NULL_TRACER
        self.total_active = 0
        self.active_counts = [0] * num_machines
        self.loads = _Loads(self.queues, self.active_counts)
        self.queue_samples: list[tuple[float, float]] = []
        self.batch_samples: list[tuple[float, float]] = []
        self.machine_gpu_busy = [0.0] * num_machines
        self.machine_dimm_busy = [0.0] * num_machines
        #: machines whose policy returned a batch limit < 1 (clamped)
        self.batch_limit_clamps = 0
        self._clamp_noted = [False] * num_machines
        #: interruptible-wait channels, indexed by machine: the front
        #: door (or a crashing peer migrating work over) fires the
        #: destination's signal, waking it if idle and cutting its fast
        #: span.  In shared-queue mode every machine may admit any
        #: request, so all entries are *one* signal, which wakes its
        #: waiters in the order they started waiting
        if num_queues == 1:
            self.wake_signals = [Signal("wake")] * num_machines
        else:
            self.wake_signals = [
                Signal(f"wake-{i}") for i in range(num_machines)
            ]
        #: the live simulator, bound by ``run()`` (routing and fault
        #: migration fire wake signals at the current simulation time)
        self.sim: Simulator | None = None
        #: health-monitor hook ``(machine, step_seconds, batch)`` called
        #: at every decode boundary (once per span in fast mode) when
        #: health-aware routing is on
        self.observe_step: typing.Callable[[int, float, int], None] | None = (
            None
        )
        #: degrade hook ``(machine)`` called right after a machine
        #: renegotiates over partially failed hardware — the cluster
        #: layer rebinds throughput-weighted routers and rebaselines the
        #: health monitor here
        self.on_degrade: typing.Callable[[int], None] | None = None

    def note_clamp(
        self, m: int, policy: "BatchingPolicy", raw_limit: int
    ) -> None:
        """Record (once per machine) a batch limit clamped up to 1.

        A limit below 1 is a policy bug — the simulator clamps so the
        machine keeps making progress, but silently repairing it would
        hide the bug, so it is surfaced as a warning and counted in the
        report.  The limit is constant while the batch composition is
        unchanged, so one note per machine is exact.
        """
        if self._clamp_noted[m]:
            return
        self._clamp_noted[m] = True
        self.batch_limit_clamps += 1
        warnings.warn(
            f"batching policy {policy.name!r} returned batch_limit "
            f"{raw_limit} on machine {m}; clamped to 1 so the machine "
            "keeps serving — fix the policy",
            RuntimeWarning, stacklevel=2)

    # ------------------------------------------------------------------
    def queue_of(self, m: int) -> list[Request]:
        """Machine ``m``'s admission queue (the shared one if only one)."""
        return self.queues[m] if len(self.queues) > 1 else self.queues[0]

    @property
    def all_routed(self) -> bool:
        """Whether the front door has routed every request."""
        return self.next_arrival_idx == len(self.workload)

    # ------------------------------------------------------------------
    def front_door(self):
        """Process routing each request at its arrival instant.

        At every distinct arrival instant it routes the requests with
        ``arrival <= now`` in ``(arrival, req_id)`` order, fires the
        wake signal of each target — only the machines that may admit
        the new work wake up — and samples the queue once.
        """
        sim = self.sim
        workload = self.workload
        queues = self.queues
        signals = self.wake_signals
        assign = self.assign
        tracer = self.tracer
        i = 0
        while i < len(workload):
            yield WaitUntil(workload[i].arrival)
            now = sim.now
            first = i
            while i < len(workload) and workload[i].arrival <= now:
                request = workload[i]
                target = 0 if assign is None else assign(request, now)
                queues[target].append(request)
                sim.fire(signals[target])
                i += 1
                if tracer.enabled:
                    tracer.emit(RequestAdmitted(
                        time=now,
                        req_id=request.req_id,
                        tenant=request.tenant,
                        class_name=request.class_name,
                        arrival=request.arrival,
                        prompt_len=request.prompt_len,
                        output_len=request.output_len,
                    ))
                    if assign is not None:
                        tracer.emit(RequestRouted(
                            time=now, req_id=request.req_id, machine=target
                        ))
            self.next_arrival_idx = i
            self.queued_count += i - first
            self.note_queue(now)

    def requeue(self, m: int, request: Request, now: float) -> None:
        """Return a preempted request to machine ``m``'s queue."""
        self.queue_of(m).append(request)
        self.queued_count += 1
        self.note_queue(now)

    def migrate(self, request: Request, from_machine: int, now: float,
                onto: int | None = None) -> None:
        """Move ``request`` off ``from_machine``, losing its KV cache.

        Generated tokens survive (they were already streamed to the
        client) but the KV cache does not: the record is flagged for
        re-prefill over ``prompt_len + generated`` on re-admission — the
        honest migration cost.  A crash evacuation leaves ``onto`` unset:
        in routed mode the request is re-routed against current loads
        and health, in shared-queue mode it returns to the common
        backlog.  A degrade eviction passes ``onto=from_machine``: the
        machine did not die, so the request re-queues on it.  The
        destination's wake signal fires so an idle machine picks the
        request up immediately.
        """
        record = self.records[request.req_id]
        record.needs_prefill = True
        record.migrations += 1
        routed = len(self.queues) > 1
        target = onto
        if target is None:
            target = (self.assign(request, now)
                      if routed and self.assign is not None else 0)
        self.queue_of(target).append(request)
        self.queued_count += 1
        if self.tracer.enabled:
            self.tracer.emit(RequestMigrated(
                time=now,
                req_id=request.req_id,
                from_machine=from_machine,
                to_machine=target if routed else -1,
                generated=len(record.token_times),
            ))
            if routed and onto is None:
                self.tracer.emit(RequestRouted(
                    time=now, req_id=request.req_id, machine=target
                ))
        self.note_queue(now)
        self.sim.fire(self.wake_signals[target])

    def note_queue(self, now: float) -> None:
        depth = self.queued_count
        self.queue_samples.append((now, float(depth)))
        if self.tracer.enabled:
            self.tracer.emit(QueueDepth(time=now, depth=depth))

    def note_batch(self, m: int, delta: int, now: float) -> None:
        """Grow machine ``m``'s batch by ``delta`` residents (negative to
        shrink it) and sample the fleet's batch size.  The only writer of
        ``total_active`` and ``active_counts``."""
        self.total_active += delta
        self.active_counts[m] += delta
        self.batch_samples.append((now, float(self.total_active)))

    def evacuate(self, m: int, entries: list[ActiveEntry], now: float,
                 onto: int | None = None) -> None:
        """Take ``entries`` out of machine ``m``'s batch and :meth:`migrate`
        each one (a crash leaves ``onto`` unset, a degrade passes ``m``)."""
        self.note_batch(m, -len(entries), now)
        for entry in entries:
            self.migrate(entry.request, m, now, onto)


def _span_cost(executor: ServingBackend, batch: int, start_context: float,
               steps: int, factor: float) -> tuple[float, float, float]:
    """A fast span's ``(seconds, gpu_busy, dimm_busy)`` at slowdown
    ``factor``."""
    cost = executor.span_estimate(batch, start_context, steps)
    if factor == 1.0:
        return cost
    return cost[0] * factor, cost[1] * factor, cost[2] * factor


def _cut_span(executor: ServingBackend, batch: int, start_context: float,
              steps: int, factor: float, start: float, cut: float,
              mean_step: float) -> tuple[int, tuple[float, float, float]]:
    """The shortest prefix of a ``steps``-token span started at ``start``
    whose re-estimated end reaches ``cut``, with its cost.

    The planned span's mean step only seeds the search: a prefix's own
    estimate is what its tokens are spaced by, and span cost grows with
    the prefix, so the walk from the seed is short.
    """
    j = min(steps, int((cut - start) / mean_step) + 1)
    cost = _span_cost(executor, batch, start_context, j, factor)
    while j < steps and start + cost[0] < cut:
        j += 1
        cost = _span_cost(executor, batch, start_context, j, factor)
    while j > 1:
        shorter = _span_cost(executor, batch, start_context, j - 1, factor)
        if start + shorter[0] < cut:
            break
        j -= 1
        cost = shorter
    return j, cost


class ServingSimulator:
    """A fleet of serving machines behind one request queue.

    Homogeneous by default (``config.num_machines`` identical Hermes
    machines); pass ``fleet=[MachineGroup(...), ...]`` for a
    heterogeneous fleet mixing backends, machine specs, or models —
    ``num_machines`` is then derived from the group counts, and a
    single all-default hermes group reproduces the homogeneous fleet
    exactly.
    """

    def __init__(
        self,
        model: ModelSpec | str,
        policy: BatchingPolicy | str = "fcfs",
        config: ServingConfig | None = None,
        *,
        machine: Machine | None = None,
        trace: ActivationTrace | None = None,
        granularity: int = 64,
        seed: int = 7,
        fleet: typing.Sequence[MachineGroup] | None = None,
    ) -> None:
        self.model = get_model(model) if isinstance(model, str) else model
        self.policy = get_policy(policy)
        self.config = config or ServingConfig()
        machine = machine or Machine()
        if trace is None:
            trace = default_serving_trace(
                self.model, granularity=granularity, seed=seed
            )
        # Each machine gets its own backend (own online engine state)
        # over the shared activation trace.  For Hermes machines the
        # offline partition is solved once — it is deterministic in
        # (trace, batch) — and every machine receives its *own clone*
        # from the per-trace cache: window scheduling remaps ``dimm_of``
        # in place, and a machine's live DIMM mapping is its own
        # hardware state, not something a sibling's migrations may
        # mutate mid-flight.
        nominal_batch = max(2, self.config.max_batch // 2)
        #: the hermes machines' fast-fidelity probe memo, emptied at the
        #: start of every repeated run (see :meth:`run`)
        self._probe_store: dict = {}
        self._ran = False
        if fleet is None:
            fleet = (MachineGroup(count=self.config.num_machines),)
        if not fleet:
            raise ValueError("fleet needs at least one machine group")
        self.fleet: tuple[MachineGroup, ...] = tuple(fleet)
        self.executors: list[ServingBackend] = []
        for group in self.fleet:
            group_model = (
                get_model(group.model)
                if group.model is not None
                else self.model
            )
            # a group serving the simulator's model shares its trace; an
            # overriding group gets the deterministic default trace for
            # its own model
            group_trace = trace if group_model is self.model else None
            group_machine = (
                group.machine if group.machine is not None else machine
            )
            group_batch = (
                group.nominal_batch
                if group.nominal_batch is not None
                else nominal_batch
            )
            self.executors.extend(
                make_backend(
                    group.backend,
                    group_machine,
                    group_model,
                    trace=group_trace,
                    nominal_batch=group_batch,
                    granularity=granularity,
                    seed=seed,
                    probe_store=self._probe_store,
                )
                for _ in range(group.count)
            )
        self.config = dataclasses.replace(
            self.config, num_machines=len(self.executors)
        )

    @property
    def machine_backends(self) -> list[str]:
        """Per-machine backend names (index = machine id)."""
        return [e.name for e in self.executors]

    # ---- override points for the cluster layer -----------------------
    def _build_state(self, workload: list[Request]) -> _RunState:
        """Run state: one shared queue every machine admits from."""
        return _RunState(workload, self.config.num_machines)

    def _admission_policy(self) -> BatchingPolicy:
        """The policy whose ``order`` ranks admission each round."""
        return self.policy

    def _preemptor(self) -> Preemptor | None:
        """Preemptive-admission hook; the base simulator has none."""
        return None

    def _run_started_event(self) -> RunStarted:
        """The run-configuration event an enabled tracer sees first."""
        return RunStarted(
            time=0.0,
            model=self.model.name,
            policy=self.policy.name,
            num_machines=self.config.num_machines,
            backends=tuple(self.machine_backends),
            domains=self._declared_domains(),
        )

    def _declared_domains(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """``(name, members)`` pairs of the fault schedule's domains."""
        faults = self.config.faults
        if faults is None or not faults.domains:
            return ()
        return tuple((d.name, d.machines) for d in faults.domains)

    def _fault_fields(self, makespan: float) -> dict:
        """Downtime/recovery report fields derived from the schedule."""
        faults = self.config.faults
        if faults is None:
            return {}
        return {
            "machine_downtime": [
                faults.downtime_within(m, makespan)
                for m in range(self.config.num_machines)
            ],
            "recoveries": faults.recoveries_within(makespan),
        }

    def _make_report(self, state: _RunState, makespan: float) -> ServingReport:
        return ServingReport(
            policy=self.policy.name,
            num_machines=self.config.num_machines,
            records=list(state.records.values()),
            makespan=makespan,
            queue_samples=state.queue_samples,
            batch_samples=state.batch_samples,
            machine_gpu_busy=state.machine_gpu_busy,
            machine_dimm_busy=state.machine_dimm_busy,
            batch_limit_clamps=state.batch_limit_clamps,
            **self._fault_fields(makespan),
        )

    # ------------------------------------------------------------------
    def run(
        self,
        workload: list[Request],
        *,
        tracer: Tracer | None = None,
    ) -> ServingReport:
        """Serve ``workload`` to completion; returns the metrics report.

        ``tracer`` receives the run's lifecycle event stream (see
        :mod:`repro.telemetry`); the default :data:`NULL_TRACER` makes
        every emission site a single attribute check.  Tracing never
        perturbs the simulation: the report (and the stream itself) is
        identical for any tracer.  A repeated call starts from the same
        cold fleet as the first: pristine hardware, fresh engine state
        and an empty probe memo, so a report depends only on its inputs.
        """
        if not workload:
            raise ValueError("workload must be non-empty")
        if self._ran:
            self._probe_store.clear()
            for executor in self.executors:
                executor.degrade(1.0, 1.0)
                executor.reset()
        self._ran = True
        if self.config.faults is not None:
            self.config.faults.validate_fleet(self.config.num_machines)
            self._check_degrades(self.config.faults)
        sim = Simulator()
        state = self._build_state(workload)
        state.sim = sim
        state.tracer = tracer if tracer is not None else NULL_TRACER
        if state.tracer.enabled:
            state.tracer.emit(self._run_started_event())
        # registered first, so arrivals at t = 0 are routed before any
        # machine looks at its queue
        sim.process(state.front_door(), name="front-door")
        for m, executor in enumerate(self.executors):
            sim.process(
                self._machine_proc(sim, state, m, executor),
                name=f"machine-{m}",
            )
        makespan = sim.run()
        if state.tracer.enabled:
            state.tracer.emit(RunEnded(time=makespan, makespan=makespan))
        return self._make_report(state, makespan)

    def _check_degrades(self, faults: FaultSchedule) -> None:
        """Raise before the run when a degrade shrinks a machine below
        its model.  Degrades only compound, so a machine's final state
        is its worst: its backend tries that state and is restored to a
        freshly reset one, which is what the run starts from anyway."""
        for m in sorted({d.machine for d in faults.degrades}):
            executor = self.executors[m]
            try:
                executor.degrade(*faults.degrade_state(m, math.inf))
            except ValueError as err:
                hw, model = executor.machine, executor.model
                needed = model.total_weight_bytes - model.embedding_bytes
                raise ValueError(
                    f"faults.degrades leaves machine {m} with "
                    f"{hw.num_dimms} DIMM(s) holding "
                    f"{hw.dimm_capacity_total} bytes, but {model.name} "
                    f"needs {needed} bytes of DIMM capacity"
                ) from err
            finally:
                executor.degrade(1.0, 1.0)

    # ------------------------------------------------------------------
    def _machine_proc(self, sim: Simulator, state: _RunState, m: int,
                      executor: ServingBackend):
        """Generator process for one machine's scheduling loop."""
        cfg = self.config
        policy = self._admission_policy()
        preemptor = self._preemptor()
        tracer = state.tracer
        tracing = tracer.enabled
        faults = cfg.faults
        wake = state.wake_signals[m]
        observe = state.observe_step
        last_health: str | None = None
        #: the cumulative degrade state already applied to the backend —
        #: the loop top renegotiates whenever the horizon's state moves
        #: past it
        applied_degrade = (1.0, 1.0)
        #: this machine's own fault timeline, pristine without faults
        fh = _FaultHorizon(faults, m)
        fast = cfg.fidelity == "fast"
        active: list[ActiveEntry] = []
        while True:
            h = fh.at(sim.now)
            if h.down_now:
                # ---- crash: kill residents, migrate, park ----
                now = sim.now
                if tracing:
                    tracer.emit(MachineDown(
                        time=now, machine=m, reason="crash"
                    ))
                    tracer.emit(MachineHealth(
                        time=now, machine=m, state="down", slowdown=1.0
                    ))
                    last_health = "down"
                # snapshot the backlog *before* migrating residents: a
                # resident whose re-route lands back on this same (dead)
                # machine must not be swept up and counted as a second
                # migration for the same evacuation
                pending: list[Request] = []
                if len(state.queues) > 1:
                    # routed mode: the dead machine's backlog is
                    # re-routed too (the frontend still holds it)
                    pending = list(state.queue_of(m))
                    state.queue_of(m).clear()
                    state.queued_count -= len(pending)
                if active:
                    state.evacuate(m, active, now)
                    active = []
                for request in pending:
                    state.migrate(request, m, now)
                up = faults.up_time(m, now)
                if up is None:
                    # never restarts; unserved work stays queued and is
                    # reported honestly as unfinished
                    return
                yield WaitUntil(up)
                executor.reset()
                if tracing:
                    tracer.emit(MachineUp(
                        time=sim.now,
                        machine=m,
                        warmup=faults.restart_warmup,
                    ))
                continue
            if h.degrade != applied_degrade:
                # ---- degrade: renegotiate, evict KV overflow ----
                # A degrade is a *state change at an instant*, not a
                # time-varying multiplier: it applies at the first loop
                # top at or past the instant (fast spans end at the
                # machine's own exec transitions), exactly like a
                # restart.
                applied_degrade = degrade = h.degrade
                executor.degrade(*degrade)
                evicted = 0
                capacity = executor.kv_capacity_tokens()
                if active:
                    # keep the admission-order prefix that still fits
                    # the shrunken KV pool; the overflow migrates onto
                    # this same machine (it did not die) and re-prefills
                    # on re-admission
                    resident = 0.0
                    kept: list[ActiveEntry] = []
                    overflow: list[ActiveEntry] = []
                    for entry in active:
                        tokens = entry.next_context - 1
                        if resident + tokens <= capacity:
                            resident += tokens
                            kept.append(entry)
                        else:
                            overflow.append(entry)
                    if overflow:
                        active = kept
                        evicted = len(overflow)
                        state.evacuate(m, overflow, sim.now, onto=m)
                if tracing:
                    tracer.emit(MachineDegraded(
                        time=sim.now,
                        machine=m,
                        surviving_dimm_fraction=degrade[0],
                        bandwidth_factor=degrade[1],
                        evicted=evicted,
                    ))
                if state.on_degrade is not None:
                    state.on_degrade(m)
            if tracing and faults is not None:
                health = faults.health_state(m, sim.now)
                if health != last_health:
                    last_health = health
                    tracer.emit(MachineHealth(
                        time=sim.now,
                        machine=m,
                        state=health,
                        slowdown=faults.slowdown_at(m, sim.now),
                    ))
            queue = state.queue_of(m)

            # ---- effective batch cap for this round ----
            # clamped to >= 1: a policy returning 0 would otherwise wedge
            # the machine (no admission, no decode, queue stranded) —
            # the clamp is warned about and counted, not silent
            raw_limit = policy.batch_limit(executor, cfg.max_batch)
            if raw_limit < 1:
                state.note_clamp(m, policy, raw_limit)
            limit = max(1, min(cfg.max_batch, raw_limit))

            # ---- preemptive admission (cluster SLO scheduling) ----
            if preemptor is not None and queue and len(active) >= limit:
                victim = preemptor.victim(sim.now, queue, active, executor)
                if victim is not None:
                    active.remove(victim)
                    victim.record.preemptions += 1
                    state.note_batch(m, -1, sim.now)
                    if tracing:
                        tracer.emit(RequestPreempted(
                            time=sim.now,
                            req_id=victim.request.req_id,
                            machine=m,
                        ))
                    state.requeue(m, victim.request, sim.now)

            # ---- admission: fill the batch in policy order ----
            # re-rank each admission: the queue changes under us while this
            # machine yields (the front door routes arrivals during a
            # prefill, and siblings admit from the same shared queue)
            while len(active) < limit and queue:
                request = queue.pop(policy.select(queue))
                state.queued_count -= 1
                state.note_queue(sim.now)
                record = state.records[request.req_id]
                record.machine = m
                if record.prefill_start is None or record.needs_prefill:
                    # a migrated request re-runs prefill over prompt +
                    # generated tokens: the tokens survive (already
                    # streamed) but the KV died with the crashed machine
                    replay = (len(record.token_times)
                              if record.needs_prefill else 0)
                    record.needs_prefill = False
                    if record.prefill_start is None:
                        record.prefill_start = sim.now
                    if tracing:
                        tracer.emit(PrefillStarted(
                            time=sim.now, req_id=request.req_id, machine=m
                        ))
                    compute, transfer = executor.prefill_cost(
                        request.prompt_len + replay
                    )
                    h = fh.at(sim.now)
                    compute *= h.slowdown
                    transfer *= h.slowdown
                    yield WaitUntil(h.stop(sim.now + (compute + transfer)))
                    if fh.at(sim.now).down_now:
                        # the crash landed mid-prefill: abort (no cost
                        # charged, KV lost) and migrate the request
                        state.migrate(request, m, sim.now)
                        break
                    # only the compute part occupies the GPU; the KV push
                    # is PCIe time (kept out of utilization, like decode's
                    # syncs)
                    state.machine_gpu_busy[m] += compute
                    if tracing:
                        tracer.emit(PrefillEnded(
                            time=sim.now,
                            req_id=request.req_id,
                            machine=m,
                            compute=compute,
                            transfer=transfer,
                        ))
                else:
                    # a preempted request re-joins — its KV state is
                    # already resident, so re-admission is free
                    if tracing:
                        tracer.emit(RequestResumed(
                            time=sim.now, req_id=request.req_id, machine=m
                        ))
                active.append(ActiveEntry(request, record,
                                          admitted_at=sim.now))
                state.note_batch(m, 1, sim.now)

            h = fh.at(sim.now)
            # a crash that landed during an admission prefill parks the
            # machine before it touches the (now stale) decode state
            if h.down_now:
                continue

            # ---- idle: park until handed work or crashed, or retire ----
            # (an empty batch implies an empty queue: the admission loop
            # above drains it first).  The front door, or a crashing peer
            # migrating work over, fires our signal; our own next crash
            # ends the park so the outage is witnessed — down/up
            # telemetry and the engine reset happen whether or not the
            # fleet is idle.  Without faults only the front door hands
            # out work, so once it has routed everything we retire.
            if not active:
                if faults is None and state.all_routed:
                    break
                yield WaitSignal(wake, until=h.next_down)
                continue

            # ---- decode: quote k tokens, wait, commit the granted ----
            # exact quotes one engine step (k = 1), fast a closed-form
            # span with uniform token spacing.  A straggler stretches the
            # quote, read at its start: work straddling a window boundary
            # completes at its quoted cost, like work straddling an arrival
            batch = len(active)
            ctx_sum = sum(a.next_context for a in active)
            factor = h.slowdown
            start = sim.now
            if fast:
                # admission and preemption decide only between spans: a
                # span is planned up to the preemptor trigger and the next
                # exec transition, and an arrival for this machine cuts it
                k = min(a.request.output_len - len(a.record.token_times)
                        for a in active)
                until = h.exec_transition
                if preemptor is not None and queue:
                    trigger = preemptor.next_trigger(start, queue, active,
                                                     executor)
                    if trigger is not None and (until is None
                                                or trigger < until):
                        until = trigger
                start_context = ctx_sum / batch
                seconds, gpu_cost, dimm_cost = _span_cost(
                    executor, batch, start_context, k, factor)
                if until is not None and k > 1 and start + seconds > until:
                    # truncate to the first step whose completion
                    # reaches the bound — the straddling step still
                    # runs, just as an exact step straddling an arrival
                    # completes before the arrival is seen
                    k = max(1, min(k, int((until - start) / (seconds / k))
                                   + 1))
                    seconds, gpu_cost, dimm_cost = _span_cost(
                        executor, batch, start_context, k, factor)
                swap_bytes = resident_bytes = 0.0
                stop = h.stop(start + seconds)
                yield WaitSignal(wake, until=stop)
                if sim.now < stop:
                    # an arrival for this machine cut the span: keep the
                    # shortest prefix whose re-estimated span reaches it
                    # — the step in flight completes, then admission runs
                    k, (seconds, gpu_cost, dimm_cost) = _cut_span(
                        executor, batch, start_context, k, factor, start,
                        sim.now, seconds / k)
                    stop = h.stop(start + seconds)
                    yield WaitUntil(stop)
            else:
                # an arrival waits for the token boundary: a signal wait
                # would add a calendar event per arrival landing mid-step
                k = 1
                cost = executor.decode_step(batch,
                                            max(1, round(ctx_sum / batch)))
                seconds = cost.seconds * factor
                gpu_cost = cost.gpu_busy * factor
                dimm_cost = cost.dimm_busy * factor
                swap_bytes = cost.swap_bytes
                resident_bytes = cost.resident_bytes
                stop = h.stop(start + seconds)
                yield WaitUntil(stop)
            # with k = 1, ``x / 1`` and ``x * 1.0`` are exact, so an exact
            # token lands on ``start + seconds``, where the wait ended
            mean_step = seconds / k
            granted = k
            if fh.at(sim.now).down_now:
                # the wait stopped at the crash: only tokens completing
                # before it are granted and charged (none of an exact
                # step), and the machine parks at the crash instant
                granted = min(k, int(max(0.0, stop - start) / mean_step))
                while granted > 0 and start + mean_step * granted >= stop:
                    granted -= 1
            if granted:
                frac = granted / k
                state.machine_gpu_busy[m] += gpu_cost * frac
                state.machine_dimm_busy[m] += dimm_cost * frac
                times = [start + mean_step * (i + 1) for i in range(granted)]
                for entry in active:
                    entry.record.token_times.extend(times)
                if observe is not None:
                    observe(m, mean_step, batch)
                if tracing:
                    # one event per commit: per token exact, per span fast
                    tracer.emit(DecodeStep(
                        time=times[-1],
                        machine=m,
                        batch=batch,
                        seconds=mean_step * granted,
                        gpu_busy=gpu_cost * frac,
                        dimm_busy=dimm_cost * frac,
                        swap_bytes=swap_bytes,
                        resident_bytes=resident_bytes,
                        req_ids=tuple(a.request.req_id for a in active),
                        steps=granted,
                    ))
            # ---- retire finished requests ----
            now = sim.now
            finished = [a for a in active if a.record.finished]
            if finished:
                active = [a for a in active if not a.record.finished]
                state.note_batch(m, -len(finished), now)
                if tracing:
                    for entry in finished:
                        tracer.emit(RequestCompleted(
                            time=now,
                            req_id=entry.request.req_id,
                            machine=m,
                            tokens=len(entry.record.token_times),
                        ))
