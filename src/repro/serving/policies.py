"""Pluggable continuous-batching admission policies.

A policy decides two things each scheduling round: the *order* in which
queued requests are considered for admission, and the *effective batch
cap* for the machine.  The simulator admits requests in policy order while
the running batch stays under ``min(max_batch, policy.batch_limit(...))``.

Shipped policies:

* ``fcfs`` — first-come-first-served continuous batching;
* ``fcfs-nobatch`` — FCFS with batching disabled (batch cap 1), the
  request-at-a-time baseline continuous batching is measured against;
* ``sjf`` — shortest-output-first (SJF on the decode phase), which trades
  fairness for lower mean latency under load;
* ``hermes-union`` — Hermes-aware batching: caps the batch so the
  activation-union inflation of batched sparse GEMV
  (:func:`repro.core.batch_union_factor`) stays under ``union_cap``.
  Batching amortises weight traffic, but every extra sequence unions more
  neuron groups into the active set; past the cap the per-step latency
  (hence every resident request's TBT) degrades faster than throughput
  improves.
"""

from __future__ import annotations

import typing

from .workload import Request

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .backends import ServingBackend


class BatchingPolicy:
    """Base policy: FCFS order, no extra batch cap.

    Contract: admission priority is a *deterministic total order* defined
    by :meth:`key` (ties broken down to ``req_id``, which is unique).
    ``order`` sorts a whole queue by it and must accept an empty queue;
    ``select`` returns the index of the single next request to admit in
    one O(n) pass — the hot-path form the simulator uses, since admitting
    one request at a time never needs the full sort.  A subclass that
    overrides ``order`` directly (instead of ``key``) must keep ``select``
    consistent with ``order(queue)[0]``.  ``batch_limit`` must return at
    least 1 — the simulator additionally clamps it so a buggy policy
    cannot wedge a machine at batch 0 — and is treated as fixed while the
    running batch's composition is unchanged (true for every shipped
    policy, whose caps depend only on immutable trace statistics); a
    ``fidelity: fast`` span re-evaluates it only at span boundaries.
    """

    name = "fcfs"

    def key(self, request: Request):
        """Sort key of one request — lowest key admits first."""
        return (request.arrival, request.req_id)

    def order(self, queue: list[Request]) -> list[Request]:
        """Queued requests in admission-priority order (highest first)."""
        return sorted(queue, key=self.key)

    def select(self, queue: list[Request]) -> int:
        """Index of the next request to admit (== ``order(queue)[0]``).

        Single pass, no sort and no scan-based removal: the simulator
        pops the returned index directly.
        """
        key = self.key
        return min(range(len(queue)), key=lambda i: key(queue[i]))

    def batch_limit(self, executor: "ServingBackend", max_batch: int) -> int:
        """Largest batch this policy lets the machine run (>= 1)."""
        return max_batch

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"


class FCFSPolicy(BatchingPolicy):
    """First-come-first-served continuous batching."""

    name = "fcfs"


class NoBatchPolicy(BatchingPolicy):
    """FCFS without batching: one request occupies the machine at a time."""

    name = "fcfs-nobatch"

    def batch_limit(self, executor: "ServingBackend", max_batch: int) -> int:
        return 1


class ShortestOutputFirstPolicy(BatchingPolicy):
    """Admit the request with the fewest output tokens first."""

    name = "sjf"

    def key(self, request: Request):
        # equal output lengths fall back to FCFS order, then the unique
        # req_id, so admission is a deterministic total order
        return (request.output_len, request.arrival, request.req_id)


class HermesUnionPolicy(BatchingPolicy):
    """FCFS order with a batch cap derived from the union factor.

    Admits up to the largest batch whose mean per-layer
    ``batch_union_factor`` stays below ``union_cap`` — i.e. the batched
    sparse GEMV may move at most ``union_cap`` times the weight bytes of a
    single sequence, bounding the step-latency inflation batching imposes
    on every resident request.
    """

    name = "hermes-union"

    def __init__(self, union_cap: float = 1.8) -> None:
        if union_cap < 1.0:
            raise ValueError("union_cap must be >= 1")
        self.union_cap = union_cap

    def batch_limit(self, executor: "ServingBackend", max_batch: int) -> int:
        # a cap at (or numerically below) the single-request union factor
        # of exactly 1.0 still admits batch 1: max_union_batch's floor, so
        # the machine always makes progress
        return executor.max_union_batch(self.union_cap, max_batch)


POLICIES: dict[str, typing.Callable[[], BatchingPolicy]] = {
    "fcfs": FCFSPolicy,
    "fcfs-nobatch": NoBatchPolicy,
    "sjf": ShortestOutputFirstPolicy,
    "hermes-union": HermesUnionPolicy,
}


def get_policy(name: str | BatchingPolicy) -> BatchingPolicy:
    """Resolve a policy by name (or pass an instance through)."""
    if isinstance(name, BatchingPolicy):
        return name
    try:
        return POLICIES[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise KeyError(
            f"unknown policy {name!r}; known policies: {known}") from None
