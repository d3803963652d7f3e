"""Priority classes, SLO targets, and preemptive admission.

A :class:`PriorityClass` names a tenant tier (``interactive``, ``batch``,
...) with an integer priority — higher admits first — and optional SLO
deadlines: ``ttft_slo`` bounds time-to-first-token, ``tbt_slo`` bounds
every inter-token gap.  An :class:`SLOPolicy` is the cluster's class
table plus the preemption knobs; requests reference it through their
``class_name`` tag.

Preemptive admission (:class:`DeadlinePreemptor`) is how a loaded machine
protects high-priority TTFT: when the highest-priority queued request
would miss its deadline waiting for a batch slot, the newest resident
request of a strictly lower class is evicted back to the queue.  Its KV
state stays resident, so re-admission is free — the cost it pays is the
decode gap, which shows up honestly in its TBT tail and in
``RequestRecord.preemptions``.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from ..serving import ActiveEntry, BatchingPolicy, MachineExecutor, Request


@dataclasses.dataclass(frozen=True)
class PriorityClass:
    """One tenant tier: admission priority plus optional SLO deadlines."""

    name: str
    #: higher values admit first; preemption only ever crosses classes
    priority: int = 0
    #: time-to-first-token deadline in seconds (None = no TTFT SLO)
    ttft_slo: float | None = None
    #: per-token decode-gap deadline in seconds (None = no TBT SLO)
    tbt_slo: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("class name must be non-empty")
        if self.ttft_slo is not None and self.ttft_slo <= 0:
            raise ValueError("ttft_slo must be positive")
        if self.tbt_slo is not None and self.tbt_slo <= 0:
            raise ValueError("tbt_slo must be positive")


#: the implicit class of untagged requests: priority 0, no SLOs
DEFAULT_CLASS = PriorityClass(name="default")


@dataclasses.dataclass(frozen=True)
class SLOPolicy:
    """The cluster's class table plus preemption behaviour."""

    classes: tuple[PriorityClass, ...] = (DEFAULT_CLASS,)
    #: evict lower-priority residents for deadline-threatened prefills
    preemptive: bool = False
    #: fraction of the TTFT SLO treated as the urgency window: preemption
    #: triggers once remaining slack falls below ``headroom * ttft_slo``
    #: (1.0 = preempt as soon as a higher class waits, 0.0 = never early)
    headroom: float = 0.5

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("SLOPolicy needs at least one class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        if not 0.0 <= self.headroom <= 1.0:
            raise ValueError("headroom must lie in [0, 1]")

    @functools.cached_property
    def _table(self) -> dict[str, PriorityClass]:
        return {c.name: c for c in self.classes}

    def class_of(self, request: Request) -> PriorityClass:
        """Resolve a request's tag against the class table."""
        try:
            return self._table[request.class_name]
        except KeyError:
            known = ", ".join(sorted(self._table))
            raise KeyError(
                f"request {request.req_id} names unknown class "
                f"{request.class_name!r}; declared classes: {known}"
            ) from None

    def priority_of(self, request: Request) -> int:
        return self.class_of(request).priority


class PriorityOrderedPolicy(BatchingPolicy):
    """Admission wrapper: higher-priority classes first, base order within.

    The stable sort preserves the base policy's relative order inside each
    class, so with a single class this is *exactly* the base policy — the
    property tests rely on that to equate a 1-machine cluster with the
    plain :class:`~repro.serving.ServingSimulator`.
    """

    def __init__(self, base: BatchingPolicy, slo: SLOPolicy) -> None:
        self.base = base
        self.slo = slo
        self.name = f"{base.name}+priority"
        #: keys are immutable per request, and the admission scan
        #: evaluates them for the whole queue on every select — memoise
        #: by the unique req_id (one policy instance serves one run)
        self._key_cache: dict[int, tuple] = {}

    def key(self, request: Request):
        key = self._key_cache.get(request.req_id)
        if key is None:
            # negated priority first, then the base policy's total order
            # — exactly the (stable) sort of base order by descending
            # priority
            key = (-self.slo.priority_of(request), self.base.key(request))
            self._key_cache[request.req_id] = key
        return key

    def batch_limit(self, executor: MachineExecutor, max_batch: int) -> int:
        return self.base.batch_limit(executor, max_batch)


class DeadlinePreemptor:
    """Evicts a low-priority resident when a prefill would miss its SLO.

    Each scheduling round on a full machine, the simulator asks for a
    victim given the current queue and resident batch.  One is returned
    only when every condition holds:

    * the highest-priority queued request has a TTFT SLO,
    * its remaining slack (deadline minus now minus its prefill cost) is
      below ``headroom * ttft_slo``,
    * some resident request belongs to a strictly lower class.

    The victim is the lowest-priority resident, newest admission first
    (ties by highest ``req_id``) — deterministic, and it unwinds the most
    recent low-priority admission rather than one deep into its decode.

    ``health`` (optional) makes the preemptor failure-aware: a callable
    ``(executor, now) -> state`` reporting the hosting machine's health
    (the :meth:`~repro.serving.FaultSchedule.health_state` vocabulary).
    A victim's free re-admission lands back on the *same* machine, so
    evicting one on a machine that is straggling, degraded, or about to
    die trades a healthy resident's progress for a prefill that machine
    can no longer serve on time — when the machine is anything but
    ``"ok"`` no victim is returned.  A pure schedule lookup: the verdict
    depends only on the fault timeline, never on how the loop reached
    ``now``.
    """

    def __init__(
        self,
        policy: BatchingPolicy,
        slo: SLOPolicy,
        health: typing.Callable[[MachineExecutor, float], str] | None = None,
    ) -> None:
        self.policy = policy
        self.slo = slo
        self.health = health

    def victim(
        self,
        now: float,
        queue: list[Request],
        active: list[ActiveEntry],
        executor: MachineExecutor,
    ) -> ActiveEntry | None:
        if self.health is not None and self.health(executor, now) != "ok":
            return None
        head = queue[self.policy.select(queue)]
        cls = self.slo.class_of(head)
        if cls.ttft_slo is None:
            return None
        candidates = []
        for entry in active:
            if self.slo.priority_of(entry.request) < cls.priority:
                candidates.append(entry)
        if not candidates:
            return None
        deadline = head.arrival + cls.ttft_slo
        slack = deadline - now - executor.prefill_seconds(head.prompt_len)
        if slack > self.slo.headroom * cls.ttft_slo:
            return None
        return min(
            candidates,
            key=lambda a: (
                self.slo.priority_of(a.request),
                -a.admitted_at,
                -a.request.req_id,
            ),
        )

    def next_trigger(
        self,
        now: float,
        queue: list[Request],
        active: list[ActiveEntry],
        executor: MachineExecutor,
    ) -> float | None:
        """Earliest time :meth:`victim` could stop returning ``None``.

        Valid while ``queue`` and ``active`` are unchanged — exactly the
        span a ``fidelity: fast`` machine holds its batch fixed for.
        ``None`` means *never* under the current state (queue head has
        no TTFT SLO, or no lower-class resident exists).  The returned
        time is a conservative lower bound: :meth:`victim`'s slack test
        subtracts ``now`` *inside* the comparison while this solves for
        it algebraically, so a tiny guard band absorbs the float
        re-rounding — boundaries inside the band simply fall back to
        the exact per-boundary check, which remains the source of truth.
        """
        head = queue[self.policy.select(queue)]
        cls = self.slo.class_of(head)
        if cls.ttft_slo is None:
            return None
        if not any(
            self.slo.priority_of(a.request) < cls.priority for a in active
        ):
            return None
        trigger = (
            head.arrival
            + cls.ttft_slo
            - executor.prefill_seconds(head.prompt_len)
            - self.slo.headroom * cls.ttft_slo
        )
        return trigger - 1e-9 * max(1.0, abs(trigger))
