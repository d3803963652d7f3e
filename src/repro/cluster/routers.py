"""Pluggable request routers for the cluster front door.

The front door calls a router once per request, at the request's
arrival instant, with a live per-machine *load* sequence (queued +
resident requests).  Reading one machine's load costs O(1), so a router
pays only for what it reads: round-robin and session-affinity never
look, power-of-two reads two entries, and the least-loaded variants
scan once.  All routers are deterministic given their construction
arguments — power-of-two-choices draws its probes from a seeded
generator, so a (scenario, seed) pair replays exactly.

Shipped routers:

* ``round-robin`` — cycle through machines in arrival order;
* ``least-loaded`` — send to the machine with the smallest load, ties to
  the lowest index;
* ``session-affinity`` — hash the request's tenant to a fixed machine,
  keeping a tenant's KV-cache locality (and hot-set stability) on one
  box;
* ``power-of-two`` — sample two distinct machines and pick the less
  loaded: near-least-loaded balance with O(1) state, the classic
  load-balancing result;
* ``throughput-least-loaded`` — least-loaded with each machine's load
  normalized by its backend's estimated tokens/sec: the right notion of
  "least loaded" on a heterogeneous fleet, where equal queue depths
  mean very different drain times.

Any of them can be wrapped in :class:`HealthAwareRouter` (the cluster
config's ``health_aware`` flag), which overrides choices that land on a
down, partitioned, or straggling machine — stragglers are detected
observationally by the :class:`HealthMonitor` EWMA over served decode
latency, never by peeking at the fault schedule.
"""

from __future__ import annotations

import typing
import zlib

import numpy as np

from ..serving import Request


class Router:
    """Base router: route every request to machine 0."""

    name = "single"
    #: routers that normalize load by machine speed set this; the
    #: cluster simulator then calls :meth:`bind_fleet` before the run
    needs_throughputs = False

    def route(self, request: Request, loads: typing.Sequence[float]) -> int:
        """Machine index for ``request`` given per-machine loads."""
        return 0

    def bind_fleet(self, tokens_per_second: typing.Sequence[float]) -> None:
        """Receive per-machine throughput estimates (no-op by default).

        Called once per run by the cluster simulator, before any
        routing decision, with one estimate per machine index.
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"


class RoundRobinRouter(Router):
    """Cycle through machines in arrival order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def route(self, request: Request, loads: typing.Sequence[float]) -> int:
        target = self._next % len(loads)
        self._next += 1
        return target


class LeastLoadedRouter(Router):
    """Send each request to the machine with the shortest queue."""

    name = "least-loaded"

    def route(self, request: Request, loads: typing.Sequence[float]) -> int:
        best = 0
        best_load = float("inf")
        for m, load in enumerate(loads):
            if load < best_load:
                best = m
                best_load = load
        return best


class SessionAffinityRouter(Router):
    """Pin each tenant to one machine via a stable hash.

    Uses CRC-32 (not Python's randomised ``hash``) so the mapping is
    identical across processes and runs.
    """

    name = "session-affinity"

    def route(self, request: Request, loads: typing.Sequence[float]) -> int:
        return zlib.crc32(request.tenant.encode()) % len(loads)


class PowerOfTwoRouter(Router):
    """Sample two distinct machines, pick the less loaded one."""

    name = "power-of-two"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def route(self, request: Request, loads: typing.Sequence[float]) -> int:
        n = len(loads)
        if n == 1:
            return 0
        a, b = self._rng.choice(n, size=2, replace=False)
        a, b = int(a), int(b)
        if loads[a] < loads[b]:
            return a
        if loads[b] < loads[a]:
            return b
        return min(a, b)


class ThroughputLeastLoadedRouter(Router):
    """Least *drain time* routing: load normalized by machine speed.

    Uniform least-loaded routing is wrong the moment machines differ —
    three requests queued on a machine that decodes 5x faster drain
    sooner than two on a slow one.  This router divides each machine's
    (queued + resident) load by its backend's estimated tokens/sec
    (bound once per run via :meth:`bind_fleet`) and picks the smallest
    quotient, ties to the lowest index.  On a homogeneous fleet every
    weight is equal and it degenerates to ``least-loaded`` exactly.
    """

    name = "throughput-least-loaded"
    needs_throughputs = True

    def __init__(self) -> None:
        self._weights: list[float] | None = None

    def bind_fleet(self, tokens_per_second: typing.Sequence[float]) -> None:
        if any(t <= 0 for t in tokens_per_second):
            raise ValueError("throughput estimates must be positive")
        self._weights = [float(t) for t in tokens_per_second]

    def route(self, request: Request, loads: typing.Sequence[float]) -> int:
        weights = self._weights
        if weights is None:
            # unbound (e.g. used directly on a ServingSimulator):
            # uniform speeds — plain least-loaded
            weights = [1.0] * len(loads)
        if len(weights) != len(loads):
            raise ValueError(
                f"router bound to {len(weights)} machines but asked to "
                f"route over {len(loads)}")
        best = 0
        best_cost = float("inf")
        for m, (load, weight) in enumerate(zip(loads, weights)):
            cost = load / weight
            if cost < best_cost:
                best = m
                best_cost = cost
        return best


class HealthMonitor:
    """EWMA straggler detector over observed per-token decode latency.

    The router-side half of failure awareness: routers *know* about
    crashes and partitions (the front door sees connections die), but a
    straggling machine still answers — it is just slow.  The monitor
    watches what the front door can actually observe, normalized decode
    latency (seconds per token at the served batch), smooths it with an
    EWMA per machine, and demotes a machine while its smoothed latency
    exceeds ``threshold`` times the *best latency that same machine has
    ever demonstrated*.  Comparing each machine against its own baseline
    (rather than the fleet best) keeps the detector honest on
    heterogeneous fleets: a backend that is natively 5x slower than its
    neighbours is not a straggler, it is just a slower machine — the
    throughput-aware routers handle that.  A straggler is a machine that
    got slower *than itself*.

    Purely observational — it never changes simulated costs — and fully
    deterministic, so runs replay bit-exactly.
    """

    def __init__(self, alpha: float = 0.25, threshold: float = 3.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if threshold <= 1.0:
            raise ValueError("threshold must exceed 1")
        self.alpha = alpha
        self.threshold = threshold
        self._ewma: dict[int, float] = {}
        self._best: dict[int, float] = {}

    def observe(self, machine: int, seconds: float, batch: int) -> None:
        """Fold one decode step (``seconds`` over ``batch`` tokens) in."""
        if batch < 1 or seconds < 0.0:
            return
        per_token = seconds / batch
        prev = self._ewma.get(machine)
        if prev is None:
            ewma = per_token
        else:
            ewma = self.alpha * per_token + (1.0 - self.alpha) * prev
        self._ewma[machine] = ewma
        if per_token < self._best.get(machine, float("inf")):
            self._best[machine] = per_token

    def rebaseline(self, machine: int) -> None:
        """Forget a machine's latency history (post-renegotiation).

        After a partial-degradation fault the machine is *legitimately*
        slower — fewer DIMMs, a derated link — and judging its new
        steady state against the pristine machine's best would demote it
        forever.  Dropping both the EWMA and the best-ever baseline lets
        the monitor relearn what "normal" means for the renegotiated
        hardware, exactly as it did at run start.
        """
        self._ewma.pop(machine, None)
        self._best.pop(machine, None)

    def demoted(self, machine: int) -> bool:
        """True while ``machine`` looks like a straggler."""
        ewma = self._ewma.get(machine)
        best = self._best.get(machine)
        if ewma is None or best is None:
            return False
        return ewma > self.threshold * best

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"HealthMonitor(alpha={self.alpha}, "
                f"threshold={self.threshold}, tracked={len(self._ewma)})")


class HealthAwareRouter(Router):
    """Wrap any router with health-based fallback.

    Delegates every decision to the inner router; when the choice lands
    on an unhealthy machine (down, partitioned, or demoted by the
    :class:`HealthMonitor`), re-routes to the least-loaded healthy
    machine instead (ties to the lowest index).  With every machine
    unhealthy the inner choice stands — requests must land *somewhere*,
    and the queue drains when the fleet recovers.

    ``unhealthy(machine) -> bool`` is supplied by the cluster simulator,
    which combines schedule facts (crashes, partitions) with the
    monitor's straggler verdicts at routing time.
    """

    def __init__(
        self,
        inner: Router,
        unhealthy: typing.Callable[[int], bool],
    ) -> None:
        self.inner = inner
        self.unhealthy = unhealthy
        self.name = f"health-aware({inner.name})"

    @property
    def needs_throughputs(self) -> bool:  # type: ignore[override]
        return self.inner.needs_throughputs

    def bind_fleet(self, tokens_per_second: typing.Sequence[float]) -> None:
        self.inner.bind_fleet(tokens_per_second)

    def route(self, request: Request, loads: typing.Sequence[float]) -> int:
        choice = self.inner.route(request, loads)
        if not self.unhealthy(choice):
            return choice
        healthy = [m for m in range(len(loads)) if not self.unhealthy(m)]
        if not healthy:
            return choice
        return min(healthy, key=lambda m: (loads[m], m))


ROUTERS: dict[str, typing.Callable[..., Router]] = {
    "round-robin": RoundRobinRouter,
    "least-loaded": LeastLoadedRouter,
    "session-affinity": SessionAffinityRouter,
    "power-of-two": PowerOfTwoRouter,
    "throughput-least-loaded": ThroughputLeastLoadedRouter,
}


def get_router(name: str | Router, *, seed: int = 0) -> Router:
    """A *fresh* router instance by name (or pass an instance through).

    Routers are stateful (round-robin cursor, power-of-two RNG), so every
    simulation run must start from a new instance for reproducibility;
    ``seed`` feeds the routers that randomise.
    """
    if isinstance(name, Router):
        return name
    try:
        factory = ROUTERS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(ROUTERS))
        raise KeyError(
            f"unknown router {name!r}; known routers: {known}"
        ) from None
    if factory is PowerOfTwoRouter:
        return factory(seed=seed)
    return factory()
