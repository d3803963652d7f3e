"""In-memory spans and counts at the simulator's layer boundaries.

The traced run patches the public entry points of each layer for the
length of one pass (:func:`traced`) and restores them afterwards; the
metric runs never patch anything.  Every call through a patched entry
point opens a span — layer, parent span, start and end — and bumps an
exact counter.  Spans live in four flat arrays while the pass runs and
are written out once it ends.

A layer's *self time* is the time of its spans minus the time of their
direct children (:func:`self_times`); each child is subtracted from its
own parent only, so a grandchild is never subtracted twice.
"""

from __future__ import annotations

import array
import contextlib
import time

import numpy as np

from repro.cluster import DeadlinePreemptor, PriorityOrderedPolicy
from repro.cluster import routers as _routers
from repro.serving import BACKENDS
from repro.serving.faults import FaultSchedule
from repro.sim import Acquire, Release, Simulator

#: layer names, indexed by the ids stored in the span arrays.  The root
#: ``pass`` span is the benchmark itself; shares are taken against it.
LAYERS = (
    "pass",
    "cluster.build",
    "serving.simulator",
    "sim",
    "core",
    "cluster.routers",
    "cluster.slo",
    "serving.faults",
    "cluster.report",
)
LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

#: the backend entry points the serving loop calls (``ServingBackend``)
BACKEND_METHODS = ("prefill_cost", "decode_step", "decode_span",
                   "span_estimate")

#: exact counters, indexed like ``Recorder.counts``
COUNTERS = (
    "core.prefill_cost",
    "core.decode_step",
    "core.decode_span",
    "core.span_estimate",
    "router.route",
    "slo.select",
    "slo.batch_limit",
    "slo.victim",
    "slo.victim_hits",
    "slo.next_trigger",
    "faults.queries",
    "sim.events",
    "sim.resource_events",
    "sim.idle_wakeups",
)
COUNTER_ID = {name: i for i, name in enumerate(COUNTERS)}

_clock = time.perf_counter_ns


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.layer = array.array("b")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counts = [0] * len(COUNTERS)
        #: calls into the backend layer so far; the process proxy
        #: compares it across a wait to tell an idle wake-up from one
        #: that did engine work
        self.backend_calls = 0
        self._stack = [-1]

    def open(self, layer: int) -> int:
        index = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str):
        index = self.open(LAYER_ID[layer])
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str) -> int:
        return self.counts[COUNTER_ID[name]]

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int8).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus its direct children's."""
    duration = (end - start).astype(np.float64)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=len(duration))
    return duration - children


def layer_self_times(spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Self time per layer name, in the span clock's units."""
    per_span = self_times(spans["parent"], spans["start"], spans["end"])
    totals = np.bincount(spans["layer"].astype(np.int64), weights=per_span,
                         minlength=len(LAYERS))
    return {name: float(totals[i]) for i, name in enumerate(LAYERS)}


# ----------------------------------------------------------------------
def _wrap(fn, rec: Recorder, layer: str, counter: str | None = None,
          backend: bool = False):
    layer_id = LAYER_ID[layer]
    counts = rec.counts

    if counter is None:
        def wrapper(*args, **kwargs):
            index = rec.open(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(index)
        return wrapper
    counter_id = COUNTER_ID[counter]
    if backend:
        layer_of = rec.layer
        stack = rec._stack

        def wrapper(*args, **kwargs):
            # count only calls into the layer, not a backend method
            # calling another (a fused span stepping, a probe)
            if layer_of[stack[-1]] != layer_id:
                counts[counter_id] += 1
                rec.backend_calls += 1
            index = rec.open(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(index)
    else:
        def wrapper(*args, **kwargs):
            counts[counter_id] += 1
            index = rec.open(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(index)
    return wrapper


def _wrap_victim(fn, rec: Recorder):
    layer_id = LAYER_ID["cluster.slo"]
    calls, hits = COUNTER_ID["slo.victim"], COUNTER_ID["slo.victim_hits"]
    counts = rec.counts

    def victim(*args, **kwargs):
        counts[calls] += 1
        index = rec.open(layer_id)
        try:
            chosen = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if chosen is not None:
            counts[hits] += 1
        return chosen
    return victim


def _proxy(generator, rec: Recorder):
    """Forward a machine process's yields, timing each resumption.

    Every yielded value is one calendar event.  Acquire/Release are
    counted apart; any other value is a wait, and a wait reached with no
    backend call since the previous wait ended is an idle wake-up.
    """
    layer_id = LAYER_ID["serving.simulator"]
    counts = rec.counts
    events = COUNTER_ID["sim.events"]
    resource = COUNTER_ID["sim.resource_events"]
    idle = COUNTER_ID["sim.idle_wakeups"]
    woke_at = rec.backend_calls
    while True:
        index = rec.open(layer_id)
        try:
            item = next(generator)
        except StopIteration:
            return
        finally:
            rec.close(index)
        counts[events] += 1
        if type(item) is Acquire or type(item) is Release:
            counts[resource] += 1
            yield item
            continue
        if rec.backend_calls == woke_at:
            counts[idle] += 1
        yield item
        woke_at = rec.backend_calls


def _router_classes() -> set[type]:
    classes = {_routers.Router, _routers.HealthAwareRouter}
    classes.update(c for c in _routers.ROUTERS.values() if isinstance(c, type))
    return classes


@contextlib.contextmanager
def traced(rec: Recorder):
    """Patch every layer entry point to record into ``rec``; restore on
    exit."""
    patches: list[tuple[type, str, object]] = []

    def patch(owner: type, name: str, replacement) -> None:
        patches.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, replacement)

    try:
        backend_classes = {k for cls in BACKENDS.values() for k in cls.__mro__}
        for cls in backend_classes:
            for name in BACKEND_METHODS:
                if name in cls.__dict__:
                    patch(cls, name, _wrap(cls.__dict__[name], rec, "core",
                                           f"core.{name}", backend=True))
        for cls in _router_classes():
            if "route" in cls.__dict__:
                patch(cls, "route", _wrap(cls.__dict__["route"], rec,
                                          "cluster.routers", "router.route"))
        patch(PriorityOrderedPolicy, "select",
              _wrap(PriorityOrderedPolicy.select, rec, "cluster.slo",
                    "slo.select"))
        patch(PriorityOrderedPolicy, "batch_limit",
              _wrap(PriorityOrderedPolicy.batch_limit, rec, "cluster.slo",
                    "slo.batch_limit"))
        patch(DeadlinePreemptor, "victim",
              _wrap_victim(DeadlinePreemptor.victim, rec))
        patch(DeadlinePreemptor, "next_trigger",
              _wrap(DeadlinePreemptor.next_trigger, rec, "cluster.slo",
                    "slo.next_trigger"))
        for name, value in list(FaultSchedule.__dict__.items()):
            if not name.startswith("_") and callable(value) \
                    and not isinstance(value, type):
                patch(FaultSchedule, name, _wrap(value, rec, "serving.faults",
                                                 "faults.queries"))
        patch(Simulator, "run", _wrap(Simulator.run, rec, "sim"))
        process = Simulator.process

        def traced_process(self, generator, name="proc", delay=0.0):
            return process(self, _proxy(generator, rec), name, delay)

        patch(Simulator, "process", traced_process)
        yield rec
    finally:
        for owner, name, original in reversed(patches):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
