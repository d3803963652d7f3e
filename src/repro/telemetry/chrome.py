"""Export a recorded event stream as Chrome/Perfetto trace-event JSON.

Open the result at https://ui.perfetto.dev (or ``chrome://tracing``).
The layout gives every machine its own lane (thread) inside one
"serving" process, with a "front door" lane for routing decisions:

* prefill and decode iterations are duration (``X``) slices on the
  machine that ran them;
* each request is a **flow**: arrows follow it from its routing
  decision through prefill, across preemption/resume hops (possibly to
  another machine), to its completion anchor;
* total queued requests is a counter (``C``) track;
* preemptions additionally show as instant (``i``) markers;
* under fault injection, crashes and health transitions are instant
  markers, each outage renders as a ``down`` slice on the machine's
  lane (closed at restart, or at run end when the machine never comes
  back), and migrations are front-door hops in the request's flow.

The exporter is strict-JSON (``allow_nan=False``) and every event
carries the ``name``/``ph``/``ts``/``pid``/``tid`` fields the trace
viewers require; CI parses an exported trace and checks exactly that.
"""

from __future__ import annotations

import json
import typing

from . import events as ev

PID = 1
#: tid of the routing / run-scope lane; machines are ``tid = machine+1``
FRONT_TID = 0


def _us(t: float) -> float:
    return t * 1e6


class _Exporter:
    def __init__(self) -> None:
        self.out: list[dict] = []
        self._flow_started: set[int] = set()
        #: machine -> crash instant of the outage currently open; the
        #: "down" slice is emitted when the machine comes back (or at
        #: run end, for machines that never restart)
        self._down_since: dict[int, float] = {}

    # -- helpers -------------------------------------------------------
    def _slice(
        self,
        name: str,
        start: float,
        dur: float,
        tid: int,
        args: dict | None = None,
    ) -> None:
        event = {
            "name": name,
            "ph": "X",
            "ts": _us(start),
            "dur": _us(dur),
            "pid": PID,
            "tid": tid,
            "cat": "serving",
        }
        if args:
            event["args"] = args
        self.out.append(event)

    def _flow(
        self, req_id: int, t: float, tid: int, end: bool = False
    ) -> None:
        """One hop of request ``req_id``'s flow arrow at ``(t, tid)``."""
        if end:
            ph = "f"
        elif req_id in self._flow_started:
            ph = "t"
        else:
            ph = "s"
            self._flow_started.add(req_id)
        event = {
            "name": f"req {req_id}",
            "ph": ph,
            "id": req_id,
            "ts": _us(t),
            "pid": PID,
            "tid": tid,
            "cat": "request",
        }
        if end:
            event["bp"] = "e"
        self.out.append(event)

    def _meta(self, name: str, tid: int, args: dict) -> None:
        self.out.append({
            "name": name,
            "ph": "M",
            "ts": 0,
            "pid": PID,
            "tid": tid,
            "args": args,
        })

    # -- event handlers ------------------------------------------------
    def _on_run_started(self, event: ev.RunStarted) -> None:
        self._meta("process_name", FRONT_TID, {"name": "serving"})
        self._meta("thread_name", FRONT_TID, {"name": "front door"})
        self._meta("thread_sort_index", FRONT_TID, {"sort_index": -1})
        for m in range(event.num_machines):
            self._meta(
                "thread_name",
                m + 1,
                {"name": f"machine {m} ({event.backends[m]})"},
            )
            self._meta("thread_sort_index", m + 1, {"sort_index": m})

    def _on_admitted(self, event: ev.RequestAdmitted) -> None:
        self._slice(
            f"admit req {event.req_id}",
            event.time,
            0.0,
            FRONT_TID,
            args={
                "tenant": event.tenant,
                "class": event.class_name,
                "prompt_len": event.prompt_len,
                "output_len": event.output_len,
            },
        )

    def _on_routed(self, event: ev.RequestRouted) -> None:
        self._slice(
            f"route req {event.req_id} -> m{event.machine}",
            event.time,
            0.0,
            FRONT_TID,
            args={"machine": event.machine},
        )
        self._flow(event.req_id, event.time, FRONT_TID)

    def _on_queue_depth(self, event: ev.QueueDepth) -> None:
        self.out.append({
            "name": "queue depth",
            "ph": "C",
            "ts": _us(event.time),
            "pid": PID,
            "tid": FRONT_TID,
            "args": {"queued": event.depth},
        })

    def _on_prefill_ended(self, event: ev.PrefillEnded) -> None:
        dur = event.compute + event.transfer
        tid = event.machine + 1
        self._slice(
            f"prefill req {event.req_id}",
            event.time - dur,
            dur,
            tid,
            args={
                "req_id": event.req_id,
                "compute": event.compute,
                "transfer": event.transfer,
            },
        )
        self._flow(event.req_id, event.time - dur, tid)

    def _on_resumed(self, event: ev.RequestResumed) -> None:
        tid = event.machine + 1
        self._slice(f"resume req {event.req_id}", event.time, 0.0, tid)
        self._flow(event.req_id, event.time, tid)

    def _on_decode_step(self, event: ev.DecodeStep) -> None:
        self._slice(
            f"decode x{event.batch}",
            event.time - event.seconds,
            event.seconds,
            event.machine + 1,
            args={
                "batch": event.batch,
                "steps": event.steps,
                "gpu_busy": event.gpu_busy,
                "dimm_busy": event.dimm_busy,
                "swap_bytes": event.swap_bytes,
                "resident_bytes": event.resident_bytes,
            },
        )

    def _on_preempted(self, event: ev.RequestPreempted) -> None:
        tid = event.machine + 1
        self._slice(f"preempt req {event.req_id}", event.time, 0.0, tid)
        self._flow(event.req_id, event.time, tid)
        self.out.append({
            "name": "preemption",
            "ph": "i",
            "s": "t",
            "ts": _us(event.time),
            "pid": PID,
            "tid": tid,
            "cat": "serving",
            "args": {"req_id": event.req_id},
        })

    def _on_completed(self, event: ev.RequestCompleted) -> None:
        tid = event.machine + 1
        self._slice(
            f"finish req {event.req_id}",
            event.time,
            0.0,
            tid,
            args={"tokens": event.tokens},
        )
        self._flow(event.req_id, event.time, tid, end=True)

    def _on_machine_down(self, event: ev.MachineDown) -> None:
        tid = event.machine + 1
        self._down_since[event.machine] = event.time
        self.out.append({
            "name": "crash",
            "ph": "i",
            "s": "t",
            "ts": _us(event.time),
            "pid": PID,
            "tid": tid,
            "cat": "fault",
            "args": {"reason": event.reason},
        })

    def _on_machine_up(self, event: ev.MachineUp) -> None:
        start = self._down_since.pop(event.machine, None)
        if start is not None:
            self._slice(
                "down",
                start,
                event.time - start,
                event.machine + 1,
                args={"warmup": event.warmup},
            )

    def _on_migrated(self, event: ev.RequestMigrated) -> None:
        to = ("shared queue" if event.to_machine < 0
              else f"m{event.to_machine}")
        self._slice(
            f"migrate req {event.req_id} -> {to}",
            event.time,
            0.0,
            FRONT_TID,
            args={
                "from_machine": event.from_machine,
                "to_machine": event.to_machine,
                "generated": event.generated,
            },
        )
        self._flow(event.req_id, event.time, FRONT_TID)

    def _on_degraded(self, event: ev.MachineDegraded) -> None:
        self.out.append({
            "name": "degrade",
            "ph": "i",
            "s": "t",
            "ts": _us(event.time),
            "pid": PID,
            "tid": event.machine + 1,
            "cat": "fault",
            "args": {
                "surviving_dimm_fraction": event.surviving_dimm_fraction,
                "bandwidth_factor": event.bandwidth_factor,
                "evicted": event.evicted,
            },
        })

    def _on_health(self, event: ev.MachineHealth) -> None:
        self.out.append({
            "name": f"health: {event.state}",
            "ph": "i",
            "s": "t",
            "ts": _us(event.time),
            "pid": PID,
            "tid": event.machine + 1,
            "cat": "fault",
            "args": {"state": event.state, "slowdown": event.slowdown},
        })

    def _on_run_ended(self, event: ev.RunEnded) -> None:
        # close outages that never recovered so the lane shows the
        # machine as down through the end of the run
        for machine, start in sorted(self._down_since.items()):
            self._slice(
                "down (no restart)",
                start,
                max(0.0, event.makespan - start),
                machine + 1,
            )
        self._down_since.clear()

    _handlers: dict[type, typing.Callable] = {
        ev.RunStarted: _on_run_started,
        ev.RequestAdmitted: _on_admitted,
        ev.RequestRouted: _on_routed,
        ev.QueueDepth: _on_queue_depth,
        ev.PrefillEnded: _on_prefill_ended,
        ev.RequestResumed: _on_resumed,
        ev.DecodeStep: _on_decode_step,
        ev.RequestPreempted: _on_preempted,
        ev.RequestCompleted: _on_completed,
        ev.MachineDown: _on_machine_down,
        ev.MachineUp: _on_machine_up,
        ev.MachineDegraded: _on_degraded,
        ev.MachineHealth: _on_health,
        ev.RequestMigrated: _on_migrated,
        ev.RunEnded: _on_run_ended,
    }

    def feed(self, event: ev.Event) -> None:
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(self, event)


def chrome_trace(events: typing.Iterable[ev.Event]) -> dict:
    """Build the trace-event document for a recorded event stream."""
    exporter = _Exporter()
    for event in events:
        exporter.feed(event)
    return {"traceEvents": exporter.out, "displayTimeUnit": "ms"}


def export_chrome_trace(
    events: typing.Iterable[ev.Event], path: str
) -> None:
    """Write ``events`` as strict trace-event JSON to ``path``."""
    document = chrome_trace(events)
    with open(path, "w") as fh:
        json.dump(document, fh, allow_nan=False)
        fh.write("\n")
