"""Typed lifecycle events of one serving-simulation run.

The event stream is the single source every telemetry sink consumes:
request lifecycle transitions (admitted -> routed -> prefill -> decode
boundaries -> completion, with preemption round trips), machine busy
intervals (carried on the prefill/decode events), queue-depth change
points, and the engine's per-step swap/residency counters.

Every event is a frozen dataclass with value equality, so two streams
compare event for event — same events, same order, timestamps
bit-equal.

Events carry simulation timestamps in seconds.  ``DecodeStep.time`` is
the *end* boundary of the iteration (the instant every resident request
gains its token); the slice it occupies on a trace viewer therefore
starts at ``time - seconds``.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(frozen=True, slots=True)
class ClassInfo:
    """A declared priority class, as carried by :class:`RunStarted`.

    Mirrors :class:`repro.cluster.slo.PriorityClass` without importing
    the cluster layer — sinks reading a stream must not need the
    scenario that produced it.
    """

    name: str
    priority: int = 0
    ttft_slo: float | None = None
    tbt_slo: float | None = None


@dataclasses.dataclass(frozen=True, slots=True)
class RunStarted:
    """First event of every traced run: the run's static configuration."""

    time: float
    model: str
    policy: str
    num_machines: int
    #: per-machine backend names (index = machine id)
    backends: tuple[str, ...]
    #: router name for routed (cluster) runs; ``None`` = shared queue
    router: str | None = None
    #: declared priority classes, highest priority first
    classes: tuple[ClassInfo, ...] = ()
    preemptive: bool = False
    #: declared failure domains as ``(name, member_machines)`` pairs,
    #: in declaration order; empty when the run has no domains
    domains: tuple[tuple[str, tuple[int, ...]], ...] = ()


@dataclasses.dataclass(frozen=True, slots=True)
class RequestAdmitted:
    """A request entered the serving system (moved arrival -> queue)."""

    time: float
    req_id: int
    tenant: str
    class_name: str
    arrival: float
    prompt_len: int
    output_len: int


@dataclasses.dataclass(frozen=True, slots=True)
class RequestRouted:
    """The front door assigned an admitted request to a machine queue."""

    time: float
    req_id: int
    machine: int


@dataclasses.dataclass(frozen=True, slots=True)
class QueueDepth:
    """Total queued requests changed (a change-point sample)."""

    time: float
    depth: int


@dataclasses.dataclass(frozen=True, slots=True)
class PrefillStarted:
    """A machine started charging a request's prefill."""

    time: float
    req_id: int
    machine: int


@dataclasses.dataclass(frozen=True, slots=True)
class PrefillEnded:
    """Prefill finished; the request joins the running batch.

    ``compute`` is the GPU-busy part, ``transfer`` the PCIe KV push —
    together they are the machine's busy interval ``[time - compute -
    transfer, time]``.
    """

    time: float
    req_id: int
    machine: int
    compute: float
    transfer: float


@dataclasses.dataclass(frozen=True, slots=True)
class RequestResumed:
    """A preempted request re-joined a batch (free re-admission)."""

    time: float
    req_id: int
    machine: int


@dataclasses.dataclass(frozen=True, slots=True)
class DecodeStep:
    """Continuous-batching decode iterations ended on a machine.

    Emitted once per token boundary in exact fidelity, carrying that
    engine step's costs; ``fidelity: fast`` emits one aggregate event
    per closed-form span instead, its ``steps`` evenly spaced.
    """

    time: float
    machine: int
    batch: int
    seconds: float
    gpu_busy: float
    dimm_busy: float
    #: engine hot/cold bytes swapped onto the GPU during this step
    swap_bytes: int
    #: GPU-resident sparse-weight bytes at the end of this step
    resident_bytes: int
    #: requests that gained a token at each boundary (batch order)
    req_ids: tuple[int, ...]
    #: iterations covered, one token each per request (1 when exact)
    steps: int


@dataclasses.dataclass(frozen=True, slots=True)
class RequestPreempted:
    """A resident request was evicted for a deadline-threatened prefill."""

    time: float
    req_id: int
    machine: int


@dataclasses.dataclass(frozen=True, slots=True)
class RequestCompleted:
    """A request produced its last token and left the system."""

    time: float
    req_id: int
    machine: int
    tokens: int


@dataclasses.dataclass(frozen=True, slots=True)
class MachineDown:
    """A machine crashed (fault injection): in-flight work is evacuated."""

    time: float
    machine: int
    reason: str = "crash"


@dataclasses.dataclass(frozen=True, slots=True)
class MachineUp:
    """A crashed machine finished restarting and is serving again.

    ``warmup`` is the cold-cache warmup charged on top of the restart —
    the machine was down for it; this event marks the end of the outage.
    """

    time: float
    machine: int
    warmup: float = 0.0


@dataclasses.dataclass(frozen=True, slots=True)
class MachineHealth:
    """A machine's health state changed (change-point sample).

    ``state`` is one of ``"ok"``, ``"slow"`` (straggling — ``slowdown``
    carries the cost multiplier), ``"degraded"`` (running with fewer
    DIMMs or a derated link after renegotiation), ``"partitioned"``
    (unreachable from the router but still draining residents), or
    ``"down"``.
    """

    time: float
    machine: int
    state: str
    slowdown: float = 1.0


@dataclasses.dataclass(frozen=True, slots=True)
class MachineDegraded:
    """A machine renegotiated after a partial-degradation fault.

    The machine keeps serving on ``surviving_dimm_fraction`` of its
    original DIMM pool with its PCIe link derated to
    ``bandwidth_factor`` of nominal.  ``evicted`` counts residents whose
    KV no longer fit on the surviving pool and were requeued for a
    fresh prefill.  Fractions are cumulative relative to the pristine
    machine, not to the previous degrade.
    """

    time: float
    machine: int
    surviving_dimm_fraction: float
    bandwidth_factor: float
    evicted: int = 0


@dataclasses.dataclass(frozen=True, slots=True)
class RequestMigrated:
    """A request was evacuated off a crashed or degraded machine.

    Generated tokens survive (they were already streamed to the client);
    the KV cache does not, so the destination re-runs prefill over
    ``prompt_len + generated``.  ``to_machine`` is ``-1`` when the run
    uses one shared queue (any machine may pick the request up).  A
    degrade-driven KV eviction keeps ``to_machine == from_machine`` in
    routed mode: the machine renegotiated, it did not die.
    """

    time: float
    req_id: int
    from_machine: int
    to_machine: int = -1
    generated: int = 0


@dataclasses.dataclass(frozen=True, slots=True)
class RunEnded:
    """Last event of every traced run."""

    time: float
    makespan: float


Event = typing.Union[
    RunStarted,
    RequestAdmitted,
    RequestRouted,
    QueueDepth,
    PrefillStarted,
    PrefillEnded,
    RequestResumed,
    DecodeStep,
    RequestPreempted,
    RequestCompleted,
    MachineDown,
    MachineUp,
    MachineHealth,
    MachineDegraded,
    RequestMigrated,
    RunEnded,
]
