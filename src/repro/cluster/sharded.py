"""Sharded cluster event loop: one calendar per machine-group shard.

A 1000-machine fleet under one event calendar spends most of its time in
heap churn: every token boundary of every machine is a global event.
But in routed mode the machines are *almost* independent — between two
fault instants, a machine's trajectory depends only on its own queue,
and its queue is fed by a router whose decisions (for the ``shardable``
routers) are a pure function of the request stream, never of live
loads.  The coordinator exploits exactly that:

* the fleet is partitioned into ``config.shards`` contiguous machine
  ranges, each advanced by its own :class:`repro.sim.Simulator`
  calendar, inline in the coordinator;
* the router runs *once*, in the coordinator, replaying the unsharded
  routing-call order (arrivals in sorted order, crash refugees at their
  crash instants) — shards receive pre-routed work;
* the only cross-shard interactions are crash migrations, which occur
  exactly at the fault schedule's crash instants, so those instants are
  the *conservative synchronization quanta*: every shard advances to
  the next crash instant, the coordinator exchanges refugees (and the
  next window's arrivals), and the shards advance again.  Fault-free
  runs are one window — zero synchronization.

**Bit-equality contract.** For a fixed scenario and seed, a sharded run
produces the same records (token times, preemptions, migrations), the
same per-machine busy accounting, the same makespan, and the same
derived metrics as the single-calendar reference, for *any* shard count
— pinned by ``tests/test_sharded.py``.  The shard-local event
interleavings differ, but machines never share calendar-ordered
resources across shards: within a window each machine's trajectory is
fully determined by its own queue, whose contents the coordinator
replays exactly.

Known, deliberate exclusions (validated with clear errors):

* routers that read live loads (least-loaded, power-of-two,
  throughput-least-loaded) and ``health_aware`` wrapping — their
  decisions depend on cross-shard state at every arrival;
* router partitions — the reference routes around a partition at
  *ingest* time, which the coordinator (routing at arrival time)
  cannot replicate exactly;
* with the round-robin router under crash faults, arrivals landing at
  exactly a crash instant interleave with that instant's migrations by
  heap order in the reference; the coordinator fixes the order
  (arrivals first).  Session-affinity routing is immune (targets are
  order-independent), which is what the fault equality tests use.

One observability-only caveat: ``queue_samples`` records an arrival as
*queued* when some machine's loop top ingests it, and in the reference
that can be a machine outside the arrival's destination shard (every
machine bounds its spans at the fleet's next arrival).  Sharded runs
ingest at the destination shard's first boundary instead, so the
queue-depth series can mark a waiting arrival visible slightly later.
No scheduling decision reads that series — admission always happens at
the destination machine's own loop tops, which are identical — so
records, busy time, makespan and batch occupancy stay bit-equal; only
``mean_queue_depth`` may differ marginally.

**Composing with** ``fidelity: fast`` **changes the contract.**  The
bit-equality above is the *exact*-mode contract.  In fast mode the
coordinator additionally hands each shard the per-machine arrival
instants (``span_bounds``), so executors bound their closed-form spans
at arrivals *targeting that machine* rather than at every global
arrival — admission instants are unchanged (a foreign arrival can never
join this machine's batch), but the uniform token spacing inside a span
depends on the span's length, so fast+sharded is **not** bit-equal to
fast-unsharded or to exact mode.  Its contract is the fast-fidelity
one: deterministic run-to-run, and within the documented distribution
tolerances of the exact reference — pinned by ``tests/test_fidelity.py``
and ``tools/check_sharded_drift.py``.
"""

from __future__ import annotations

import dataclasses
import heapq
import types
import typing

from ..serving.metrics import RequestRecord
from ..serving.simulator import _RunState
from ..sim import Simulator
from ..telemetry.events import RequestMigrated, RequestRouted, RunEnded

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..serving.workload import Request
    from .simulator import ClusterSimulator

#: a migrated request's portable record state:
#: (machine, prefill_start, token_times, preemptions, migrations)
_Snapshot = tuple[int, float | None, tuple[float, ...], int, int]


class _Recorder:
    """Minimal tracer: buffer events for the coordinator to merge."""

    enabled = True

    def __init__(self) -> None:
        self.events: list = []

    def emit(self, event) -> None:
        self.events.append(event)


class _ShardState(_RunState):
    """Run state for one shard of a larger fleet.

    Arrays, queues and wake signals are *fleet-global* sized and indexed
    by global machine id — the shard's machine processes run unmodified
    — but only the slice ``[lo, hi)`` is ever touched.  Routing is a
    lookup into coordinator-precomputed targets, and a crash migration
    lands in the ``outbox`` (with a record snapshot) instead of being
    re-routed locally: the coordinator routes it at the window barrier.
    """

    def __init__(
        self,
        workload: list["Request"],
        targets: dict[int, int],
        num_machines: int,
    ) -> None:
        super().__init__(workload, num_machines, num_queues=num_machines)
        self._targets = dict(targets)
        self.assign = self._assign
        #: ``(request, from_machine, snapshot)`` triples awaiting the
        #: coordinator's barrier routing
        self.outbox: list[tuple["Request", int, _Snapshot]] = []

    def _assign(self, request: "Request", now: float) -> int:
        return self._targets[request.req_id]

    def migrate(
        self, request: "Request", from_machine: int, now: float
    ) -> None:
        record = self.records[request.req_id]
        record.needs_prefill = True
        record.migrations += 1
        self.outbox.append((request, from_machine, (
            record.machine,
            record.prefill_start,
            tuple(record.token_times),
            record.preemptions,
            record.migrations,
        )))
        # the request left this shard: sample the (possibly dropped)
        # local depth so the coordinator's delta merge stays exact
        self.note_queue(now)


def _fleet_slice(fleet, lo: int, hi: int):
    """The machine groups covering global machines ``[lo, hi)``."""
    groups = []
    pos = 0
    for group in fleet:
        g_lo, g_hi = pos, pos + group.count
        pos = g_hi
        take = min(hi, g_hi) - max(lo, g_lo)
        if take > 0:
            groups.append(dataclasses.replace(group, count=take))
    return tuple(groups)


class _ShardRunner:
    """One shard: a child cluster simulator driven window-by-window.

    The child is a plain :class:`ClusterSimulator` over the fleet slice
    ``[lo, hi)`` with sharding disabled; its unmodified machine
    processes are registered on a private calendar against a
    :class:`_ShardState`, and the coordinator drives that calendar
    through the engine's resumable ``run(until=...)`` contract.
    """

    def __init__(
        self,
        *,
        model,
        policy,
        slo,
        machine,
        hermes_config,
        trace,
        granularity,
        seed,
        config,
        fleet,
        lo,
        hi,
        workload,
        targets,
        windowed,
        tracing,
        span_bounds,
    ) -> None:
        from .simulator import ClusterSimulator

        child_config = dataclasses.replace(
            config, num_machines=hi - lo, shards=0
        )
        child = ClusterSimulator(
            model,
            policy,
            child_config,
            slo=slo,
            machine=machine,
            hermes_config=hermes_config,
            trace=trace,
            granularity=granularity,
            seed=seed,
            fleet=_fleet_slice(fleet, lo, hi),
        )
        child._machine_offset = lo
        self.sim = Simulator()
        self.state = _ShardState(
            list(workload), targets, config.num_machines
        )
        self.state.sim = self.sim
        self.state.expect_external = windowed
        self.state.span_bounds = span_bounds
        self.tracer = _Recorder() if tracing else None
        if self.tracer is not None:
            self.state.tracer = self.tracer
        for local_m, executor in enumerate(child.executors):
            m = lo + local_m
            self.sim.process(
                child._machine_proc(self.sim, self.state, m, executor),
                name=f"machine-{m}",
            )

    # -- coordinator protocol ------------------------------------------
    def advance(
        self, until: float | None
    ) -> list[tuple["Request", int, _Snapshot]]:
        """Run the calendar to ``until``; return the window's outbox."""
        self.sim.run(until=until)
        if until is not None and self.sim.now < until:
            # quiescent before the barrier (everything parked): land on
            # it anyway so barrier deliveries fire at the barrier time
            self.sim.now = until
        outbox = self.state.outbox
        self.state.outbox = []
        return outbox

    def deliver(
        self, transfers: list[tuple["Request", _Snapshot, int]]
    ) -> None:
        """Accept crash refugees routed to this shard at the barrier."""
        state = self.state
        now = self.sim.now
        for request, snap, target in transfers:
            machine, prefill_start, token_times, preempts, migs = snap
            state.records[request.req_id] = RequestRecord(
                request=request,
                machine=machine,
                prefill_start=prefill_start,
                token_times=list(token_times),
                preemptions=preempts,
                migrations=migs,
                needs_prefill=True,
            )
            state.queues[target].append(request)
            state.queued_count += 1
            state.note_queue(now)
            self.sim.fire(state.wake_signals[target])

    def extend(self, batch: list[tuple["Request", int]]) -> None:
        """Append the next window's (pre-routed) arrivals."""
        state = self.state
        for request, target in batch:
            state.workload.append(request)
            state.records[request.req_id] = RequestRecord(request=request)
            state._targets[request.req_id] = target
            if state.span_bounds is not None:
                # windows arrive in time order, so appending keeps the
                # per-machine bound lists sorted and the cursors valid
                state.span_bounds[target].append(request.arrival)
            # a machine parked before this arrival was known bounded its
            # sleep without it; wake it to re-plan (a no-op loop pass
            # when it was bounded tighter anyway)
            self.sim.fire(state.wake_signals[target])

    def mark_final(self) -> None:
        """No more windows: idle machines may park unboundedly again."""
        self.state.expect_external = False

    def finish(self) -> dict:
        state = self.state
        return {
            "records": dict(state.records),
            "gpu_busy": list(state.machine_gpu_busy),
            "dimm_busy": list(state.machine_dimm_busy),
            "queue_samples": list(state.queue_samples),
            "batch_samples": list(state.batch_samples),
            "clamps": state.batch_limit_clamps,
            "makespan": self.sim.now,
            "events": (
                list(self.tracer.events)
                if self.tracer is not None
                else None
            ),
        }


def _merge_samples(
    per_shard: list[list[tuple[float, float]]],
) -> list[tuple[float, float]]:
    """Recombine shard-local depth samples into the global series.

    Each shard samples its *local* depth; the global depth is their
    sum.  Replaying every sample as a delta, time-sorted (stable within
    a shard), yields a series whose value at every distinct time equals
    the reference run's — intra-instant orderings differ but carry zero
    weight in every time-weighted statistic, and the depths are
    integer-valued floats, so the sums are exact.
    """
    deltas: list[tuple[float, int, int, float]] = []
    for s_idx, samples in enumerate(per_shard):
        prev = 0.0
        for i, (t, depth) in enumerate(samples):
            deltas.append((t, s_idx, i, depth - prev))
            prev = depth
    deltas.sort(key=lambda e: (e[0], e[1], e[2]))
    merged: list[tuple[float, float]] = []
    depth = 0.0
    for t, _, _, d in deltas:
        depth += d
        merged.append((t, depth))
    return merged


def run_sharded(
    cluster_sim: "ClusterSimulator",
    workload: list["Request"],
    *,
    tracer=None,
):
    """Serve ``workload`` on ``cluster_sim`` with a sharded event loop.

    See the module docstring for the partitioning, the synchronization
    quanta, and the bit-equality contract with the single-calendar
    reference.
    """
    cfg = cluster_sim.config
    machines = cfg.num_machines
    shards = cfg.shards
    if not workload:
        raise ValueError("workload must be non-empty")
    if shards < 1:  # pragma: no cover - dispatch guard
        raise ValueError("run_sharded needs config.shards >= 1")
    if shards > machines:
        raise ValueError(
            f"shards ({shards}) cannot exceed num_machines ({machines})")
    if getattr(cfg, "health_aware", False):
        raise ValueError(
            "sharded runs cannot use health_aware routing: its "
            "decisions depend on live cross-shard load and health state")
    router = cluster_sim._make_router()
    if not getattr(router, "shardable", False):
        raise ValueError(
            f"router {router.name!r} is not shardable: its decisions "
            "depend on live cross-shard loads (see Router.shardable)")
    faults = cfg.faults
    if faults is not None:
        faults.validate_fleet(machines)
        if faults.partitions:
            raise ValueError(
                "sharded runs cannot replay router partitions: the "
                "reference routes around a partition at ingest time, "
                "which arrival-time routing cannot replicate")
    ordered = sorted(workload, key=lambda r: (r.arrival, r.req_id))
    ids = [r.req_id for r in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError("workload req_ids must be unique")

    barriers: list[float] = (
        sorted(set(faults._crash_starts)) if faults is not None else []
    )
    windowed = bool(barriers)
    bounds = [
        ((s * machines) // shards, ((s + 1) * machines) // shards)
        for s in range(shards)
    ]
    shard_of = [0] * machines
    for s_idx, (lo, hi) in enumerate(bounds):
        for m in range(lo, hi):
            shard_of[m] = s_idx
    #: shardable routers never read loads — only the fleet size
    loads_stub = [0.0] * machines
    tracing = tracer is not None and getattr(tracer, "enabled", False)
    #: req_id -> shard holding its authoritative record (last routing)
    owner: dict[int, int] = {}
    arr_idx = 0

    def take_until(bound: float | None) -> list[list]:
        """Route arrivals up to ``bound`` (inclusive; None = all)."""
        nonlocal arr_idx
        batches: list[list] = [[] for _ in range(shards)]
        while arr_idx < len(ordered) and (
            bound is None or ordered[arr_idx].arrival <= bound
        ):
            request = ordered[arr_idx]
            arr_idx += 1
            target = router.route(request, loads_stub)
            owner[request.req_id] = shard_of[target]
            batches[shard_of[target]].append((request, target))
        return batches

    initial = take_until(barriers[0] if windowed else None)
    #: fast fidelity only: per-machine arrival instants from the
    #: pre-routed targets, so each machine bounds its closed-form spans
    #: (and idle parks) at the arrivals that can actually join it —
    #: the coarser truncation is what lets a 1000-machine fleet keep
    #: long spans (see the fast-mode caveat in the module docstring)
    fast = cfg.fidelity == "fast"

    def _bounds_for(s_idx: int, lo: int, hi: int):
        if not fast:
            return None
        per_machine: dict[int, list[float]] = {
            m: [] for m in range(lo, hi)
        }
        for request, target in initial[s_idx]:
            per_machine[target].append(request.arrival)
        return per_machine

    runners = [
        _ShardRunner(
            model=cluster_sim.model,
            policy=cluster_sim.policy,
            slo=cluster_sim.slo,
            machine=cluster_sim.base_machine,
            hermes_config=cluster_sim._hermes_config,
            trace=cluster_sim._trace,
            granularity=cluster_sim._granularity,
            seed=cluster_sim._seed,
            config=cfg,
            fleet=cluster_sim.fleet,
            lo=lo,
            hi=hi,
            workload=[r for r, _ in initial[s_idx]],
            targets={r.req_id: t for r, t in initial[s_idx]},
            windowed=windowed,
            tracing=tracing,
            span_bounds=_bounds_for(s_idx, lo, hi),
        )
        for s_idx, (lo, hi) in enumerate(bounds)
    ]

    def advance_all(until: float | None) -> list[list]:
        return [runner.advance(until) for runner in runners]

    coordinator_events: list = []
    for i, barrier in enumerate(barriers):
        outboxes = advance_all(barrier)
        transfers: list[list] = [[] for _ in range(shards)]
        for outbox in outboxes:
            for request, from_machine, snap in outbox:
                target = router.route(request, loads_stub)
                owner[request.req_id] = shard_of[target]
                transfers[shard_of[target]].append((request, snap, target))
                if tracing:
                    coordinator_events.append(RequestMigrated(
                        time=barrier,
                        req_id=request.req_id,
                        from_machine=from_machine,
                        to_machine=target,
                        generated=len(snap[2]),
                    ))
                    coordinator_events.append(RequestRouted(
                        time=barrier,
                        req_id=request.req_id,
                        machine=target,
                    ))
        for s_idx, batch in enumerate(transfers):
            if batch:
                runners[s_idx].deliver(batch)
        next_bound = barriers[i + 1] if i + 1 < len(barriers) else None
        arrivals = take_until(next_bound)
        for s_idx, batch in enumerate(arrivals):
            if batch:
                runners[s_idx].extend(batch)
        if next_bound is None:
            for runner in runners:
                runner.mark_final()
    advance_all(None)
    results = [runner.finish() for runner in runners]

    makespan = max(res["makespan"] for res in results)
    merged = types.SimpleNamespace(
        records={
            r.req_id: results[owner[r.req_id]]["records"][r.req_id]
            for r in ordered
        },
        queue_samples=_merge_samples(
            [res["queue_samples"] for res in results]
        ),
        batch_samples=_merge_samples(
            [res["batch_samples"] for res in results]
        ),
        machine_gpu_busy=[
            sum(res["gpu_busy"][m] for res in results)
            for m in range(machines)
        ],
        machine_dimm_busy=[
            sum(res["dimm_busy"][m] for res in results)
            for m in range(machines)
        ],
        batch_limit_clamps=sum(res["clamps"] for res in results),
    )
    cluster_sim._last_router_name = router.name
    if tracing:
        tracer.emit(cluster_sim._run_started_event())
        streams = [res["events"] for res in results]
        streams.append(coordinator_events)
        for event in heapq.merge(*streams, key=lambda e: e.time):
            tracer.emit(event)
        tracer.emit(RunEnded(time=makespan, makespan=makespan))
    return cluster_sim._make_report(merged, makespan)
