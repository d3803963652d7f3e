"""A compact discrete-event simulation engine.

The system models are mostly analytic, but anything involving *overlap* —
FlexGen's weight prefetch pipeline, Hermes hiding migrations behind the
projection window — is easiest to get right with a real event calendar.
Processes are Python generators that yield simulation primitives:

* ``Timeout(dt)`` — advance this process by ``dt`` seconds;
* ``WaitUntil(t)`` — advance this process to the *absolute* time ``t``
  (no-op when already past).  The serving loop uses this to land on a
  precomputed instant — a crash, the next arrival, the end of a
  closed-form decode span — exactly: ``now + (t - now)`` re-rounds in
  floating point, an absolute target does not;
* ``Acquire(resource)`` / ``Release(resource)`` — serialise on a device;
* ``WaitSignal(signal, until)`` — interruptible wait: sleep until another
  process fires the :class:`Signal` (``sim.fire``) or the optional
  absolute deadline passes, whichever comes first.  The serving layer
  uses this so the front door (or a crashed peer) wakes exactly the
  machine it hands work to, and so an arrival can cut a fast decode
  span short, instead of polling;
* another process handle — join (wait for completion).

The engine is deterministic: simultaneous events fire in scheduling order.
"""

from __future__ import annotations

import dataclasses
import heapq
import typing


@dataclasses.dataclass(frozen=True)
class Timeout:
    """Advance the yielding process by ``delay`` seconds."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("delay must be non-negative")


@dataclasses.dataclass(frozen=True)
class WaitUntil:
    """Advance the yielding process to absolute time ``time``.

    Fires immediately when ``time`` is not in the future.  Unlike
    ``Timeout(time - now)``, the wake-up lands on exactly ``time`` —
    no float re-rounding — so the instant a process wakes at does not
    depend on how many intermediate wake-ups it made on the way.
    """

    time: float


class Resource:
    """A serially-shared device (a link, a GPU, one NDP core)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._holder: "Process | None" = None
        self._waiters: list["Process"] = []

    @property
    def busy(self) -> bool:
        return self._holder is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Resource({self.name!r}, busy={self.busy})"


class Signal:
    """A broadcast wake-up channel for interruptible waits.

    Processes block on it by yielding :class:`WaitSignal`;
    :meth:`Simulator.fire` wakes every current waiter at the present
    simulation time.  A fired wait's pending deadline entry becomes a
    no-op, and a deadline expiry removes the waiter from the channel —
    each wait wakes exactly once.
    """

    def __init__(self, name: str = "signal") -> None:
        self.name = name
        self._waiters: list["_SignalWait"] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class _SignalWait:
    """Internal one-shot token tying a waiting process to a Signal."""

    __slots__ = ("signal", "proc", "woken")

    def __init__(self, signal: Signal, proc: "Process") -> None:
        self.signal = signal
        self.proc = proc
        self.woken = False


@dataclasses.dataclass(frozen=True)
class WaitSignal:
    """Sleep until ``signal`` fires or absolute time ``until`` passes.

    With ``until=None`` the wait is unbounded — only a fire wakes it.
    Like :class:`WaitUntil`, a deadline not in the future fires
    immediately; the waker cannot be distinguished from the yield value
    (processes receive nothing), so wakers inspect ``sim.now`` or shared
    state to learn why they woke.
    """

    signal: Signal
    until: float | None = None


@dataclasses.dataclass(frozen=True)
class Acquire:
    resource: Resource


@dataclasses.dataclass(frozen=True)
class Release:
    resource: Resource


class Process:
    """Handle to a running generator process."""

    def __init__(
        self, sim: "Simulator", generator: typing.Generator, name: str = "proc"
    ) -> None:
        self.sim = sim
        self.generator = generator
        self.name = name
        self.finished = False
        self.end_time: float | None = None
        self._joiners: list["Process"] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Process({self.name!r}, finished={self.finished})"


class Simulator:
    """Event calendar + process scheduler."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, "Process | _SignalWait"]] = []
        self._seq = 0

    # ------------------------------------------------------------------
    def process(self, generator: typing.Generator, name: str = "proc",
                delay: float = 0.0) -> Process:
        """Register a generator as a process starting after ``delay``."""
        proc = Process(self, generator, name)
        self._push(self.now + delay, proc)
        return proc

    def _push(self, time: float, proc: "Process | _SignalWait") -> None:
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, proc))

    def fire(self, signal: Signal) -> None:
        """Wake every process currently blocked on ``signal`` now."""
        waiters = signal._waiters
        signal._waiters = []
        for token in waiters:
            if not token.woken:
                token.woken = True
                self._push(self.now, token.proc)

    # ------------------------------------------------------------------
    def _step(self, proc: Process) -> None:
        try:
            item = next(proc.generator)
        except StopIteration:
            self._finish(proc)
            return
        self._dispatch(proc, item)

    def _dispatch(self, proc: Process, item) -> None:
        if isinstance(item, Timeout):
            self._push(self.now + item.delay, proc)
        elif isinstance(item, WaitUntil):
            self._push(item.time if item.time > self.now else self.now, proc)
        elif isinstance(item, WaitSignal):
            token = _SignalWait(item.signal, proc)
            item.signal._waiters.append(token)
            if item.until is not None:
                self._push(
                    item.until if item.until > self.now else self.now, token
                )
        elif isinstance(item, Acquire):
            resource = item.resource
            if resource._holder is None:
                resource._holder = proc
                self._push(self.now, proc)
            else:
                resource._waiters.append(proc)
        elif isinstance(item, Release):
            resource = item.resource
            if resource._holder is not proc:
                raise RuntimeError(
                    f"{proc.name} released {resource.name} it does not hold"
                )
            resource._holder = None
            if resource._waiters:
                waiter = resource._waiters.pop(0)
                resource._holder = waiter
                self._push(self.now, waiter)
            self._push(self.now, proc)
        elif isinstance(item, Process):
            if item.finished:
                self._push(self.now, proc)
            else:
                item._joiners.append(proc)
        else:
            raise TypeError(f"process {proc.name} yielded {item!r}")

    def _finish(self, proc: Process) -> None:
        proc.finished = True
        proc.end_time = self.now
        for joiner in proc._joiners:
            self._push(self.now, joiner)
        proc._joiners.clear()

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Run to quiescence (or to ``until``); returns the final time.

        A bounded run is *resumable*: events at exactly ``until`` fire,
        the first event past it is pushed back intact (same sequence
        number, so tie-breaks replay identically), and a later ``run``
        call continues from where this one stopped — a calendar can be
        driven window by window.
        """
        while self._queue:
            time, seq, entry = heapq.heappop(self._queue)
            if until is not None and time > until:
                heapq.heappush(self._queue, (time, seq, entry))
                self.now = until
                return self.now
            if isinstance(entry, _SignalWait):
                # deadline expiry of an interruptible wait; a no-op when
                # the signal already fired (the wait woke exactly once)
                if entry.woken:
                    continue
                entry.woken = True
                entry.signal._waiters.remove(entry)
                self.now = time
                self._step(entry.proc)
                continue
            self.now = time
            self._step(entry)
        return self.now
