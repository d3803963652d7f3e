"""Self-describing JSONL metric topics: the live serving surface.

The stream is a sequence of JSON lines in two shapes, modelled on the
MQTT auto-discovery pattern: every topic first emits a **retained
discovery message** describing its fields (name, kind, unit) and static
metadata, then periodic **samples** carry only values::

    {"type": "config", "topic": "class/interactive", "retain": true,
     "fields": [{"name": "completed", "kind": "counter", ...}, ...],
     "meta": {"group": "class", "label": "interactive", ...}}
    {"type": "sample", "topic": "class/interactive", "time": 0.02,
     "values": {"completed": 12, "slo_joint": 1.0, ...}}

A consumer (``python -m repro.experiments watch``) therefore needs *no*
knowledge of the scenario: it subscribes to whatever topics announce
themselves.  Lines are strict JSON — ``nan`` values are serialised as
``null``.

:class:`MetricStreamTracer` turns the lifecycle event stream into these
topics live, flushing one sample per topic every ``sample_interval``
simulated seconds plus a final sample at run end.  Attainment gauges use
exactly the report's comparisons, so the last sample of a stream agrees
with the post-hoc :class:`~repro.cluster.ClusterReport`.
"""

from __future__ import annotations

import json
import math
import typing

from . import events as ev
from .registry import MetricsRegistry

MIB = 2.0**20


def jsonable(value):
    """``value`` with every non-finite float replaced by ``None``."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


class TopicStream:
    """JSONL writer enforcing the announce-before-publish discipline."""

    def __init__(self, out: typing.TextIO) -> None:
        self._out = out
        self._announced: set[str] = set()

    def announce(
        self, topic: str, fields: list[dict], meta: dict | None = None
    ) -> None:
        """Emit ``topic``'s retained discovery/config message."""
        self._write({
            "type": "config",
            "topic": topic,
            "retain": True,
            "fields": fields,
            "meta": meta or {},
        })
        self._announced.add(topic)

    def publish(
        self, topic: str, time: float, values: dict[str, float]
    ) -> None:
        if topic not in self._announced:
            raise RuntimeError(
                f"topic {topic!r} published before its discovery message"
            )
        self._write({
            "type": "sample",
            "topic": topic,
            "time": time,
            "values": values,
        })

    def end(self, time: float) -> None:
        """Mark the stream complete (lets followers stop tailing)."""
        self._write({"type": "end", "time": time})

    def _write(self, message: dict) -> None:
        self._out.write(
            json.dumps(
                jsonable(message),
                separators=(",", ":"),
                allow_nan=False,
            )
            + "\n"
        )

    def flush(self) -> None:
        self._out.flush()


class _RequestState:
    """Per-in-flight-request tracking for live SLO attainment."""

    __slots__ = ("class_name", "arrival", "first", "last", "tbt_ok",
                 "resident")

    def __init__(self, class_name: str, arrival: float) -> None:
        self.class_name = class_name
        self.arrival = arrival
        self.first: float | None = None
        self.last: float | None = None
        self.tbt_ok = True
        #: currently in some machine's running batch — migration off a
        #: crashed machine returns it to queued, not active
        self.resident = False


class _ClassState:
    """Cumulative attainment tallies for one declared class."""

    __slots__ = ("info", "completed", "ttft_ok", "tbt_ok", "joint_ok")

    def __init__(self, info: ev.ClassInfo) -> None:
        self.info = info
        self.completed = 0
        self.ttft_ok = 0
        self.tbt_ok = 0
        self.joint_ok = 0


class MetricStreamTracer:
    """Render the lifecycle event stream as live JSONL metric topics.

    Topics: ``cluster`` (queue depth, in-flight batch, throughput,
    completions, preemptions, crash migrations, machines up),
    ``machine/<i>`` (windowed GPU/DIMM busy fractions, batch, engine
    swap rate and residency, plus a string-valued ``health`` state under
    fault injection), and ``class/<name>`` (completions, cumulative
    TTFT/TBT/joint SLO attainment, windowed latency percentiles) per
    declared class.  A ``DecodeStep`` counts ``batch * steps`` tokens,
    evenly spaced over its ``seconds`` per request, so the counters and
    attainment agree with the report at either fidelity.
    """

    enabled = True

    def __init__(
        self,
        out: typing.TextIO,
        *,
        sample_interval: float = 0.01,
        source: str = "",
    ) -> None:
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self._stream = TopicStream(out)
        self._interval = float(sample_interval)
        self._source = source
        self._started = False

    # ------------------------------------------------------------------
    def emit(self, event: ev.Event) -> None:
        if isinstance(event, ev.RunStarted):
            self._start(event)
            return
        if not self._started:
            raise RuntimeError(
                "metric stream needs a RunStarted event first"
            )
        if isinstance(event, ev.RunEnded):
            self._flush(event.time)
            self._stream.end(event.time)
            self._stream.flush()
            return
        self._maybe_flush(event.time)
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(self, event)

    # ------------------------------------------------------------------
    def _start(self, event: ev.RunStarted) -> None:
        self._registries: dict[str, MetricsRegistry] = {}
        self._window_start = event.time
        self._next_flush = event.time + self._interval
        self._requests: dict[int, _RequestState] = {}
        self._classes: dict[str, _ClassState] = {
            c.name: _ClassState(c) for c in event.classes
        }
        self._active = 0
        self._cluster_tokens = 0
        num = event.num_machines
        self._m_gpu = [0.0] * num
        self._m_dimm = [0.0] * num
        self._m_swap = [0] * num
        self._m_resident = [math.nan] * num
        self._m_batch = [0.0] * num
        #: fault-injection health labels; stays "ok" everywhere on
        #: fault-free runs (no MachineHealth events are emitted)
        self._m_health = ["ok"] * num
        self._machines_up = num
        #: machine -> failure-domain name; the per-machine topics only
        #: grow the extra "domain" column when the run declared domains,
        #: so domain-free runs keep their exact pre-domain schema
        self._m_domain: dict[int, str] = {
            m: name for name, members in event.domains for m in members
        }
        self._has_domains = bool(event.domains)

        cluster = MetricsRegistry()
        cluster.gauge("queue_depth", help="requests waiting for admission")
        cluster.gauge("active", help="requests resident in running batches")
        cluster.gauge("tokens_per_sec", unit="tok/s",
                      help="decode throughput over the sample window")
        cluster.gauge("machines_up", help="machines currently serving "
                      "(fleet size minus crashed machines)")
        cluster.counter("completed", help="requests finished")
        cluster.counter("preempted", help="preemptive evictions")
        cluster.counter("migrations", help="KV-losing evacuations "
                        "(crashes and degrade evictions)")
        self._registries["cluster"] = cluster
        self._stream.announce("cluster", cluster.describe(), meta={
            "group": "cluster",
            "source": self._source,
            "model": event.model,
            "policy": event.policy,
            "router": event.router,
            "num_machines": event.num_machines,
            "preemptive": event.preemptive,
            "sample_interval": self._interval,
        })

        for m in range(num):
            registry = MetricsRegistry()
            registry.gauge("gpu_util", help="GPU busy fraction (window)")
            registry.gauge("dimm_util",
                           help="NDP-DIMM busy fraction (window)")
            registry.gauge("batch", help="resident batch at last boundary")
            registry.gauge("resident_mib", unit="MiB",
                           help="engine GPU-resident hot-set bytes")
            registry.gauge("swap_mib_per_s", unit="MiB/s",
                           help="engine hot/cold swap traffic (window)")
            registry.counter("tokens", help="decode tokens produced")
            topic = f"machine/{m}"
            self._registries[topic] = registry
            # "health" is a string-valued state field, injected outside
            # the (numeric-only) registry at publish time
            fields = registry.describe() + [{
                "name": "health",
                "kind": "state",
                "unit": "",
                "help": "fault-injection health (ok/slow/degraded/"
                        "partitioned/down)",
            }]
            meta = {
                "group": "machine",
                "label": str(m),
                "backend": event.backends[m],
            }
            if self._has_domains:
                fields.append({
                    "name": "domain",
                    "kind": "state",
                    "unit": "",
                    "help": "declared failure domain of this machine",
                })
                meta["domain"] = self._m_domain.get(m, "")
            self._stream.announce(topic, fields, meta=meta)

        for name, state in self._classes.items():
            registry = MetricsRegistry()
            registry.counter("completed", help="class requests finished")
            registry.gauge("slo_ttft",
                           help="cumulative TTFT attainment fraction")
            registry.gauge("slo_tbt",
                           help="cumulative TBT attainment fraction")
            registry.gauge("slo_joint",
                           help="cumulative joint attainment fraction")
            registry.histogram("ttft_ms", unit="ms",
                               help="TTFT of completions in the window")
            registry.histogram("tbt_ms", unit="ms",
                               help="inter-token gaps in the window")
            topic = f"class/{name}"
            self._registries[topic] = registry
            self._stream.announce(topic, registry.describe(), meta={
                "group": "class",
                "label": name,
                "priority": state.info.priority,
                "ttft_slo": state.info.ttft_slo,
                "tbt_slo": state.info.tbt_slo,
            })
        self._started = True

    # ------------------------------------------------------------------
    def _maybe_flush(self, t: float) -> None:
        if t <= self._next_flush:
            return
        # flush once, labelled at the last elapsed boundary — idle gaps
        # produce one catch-up sample, not one per empty window
        steps = math.floor((t - self._next_flush) / self._interval)
        boundary = self._next_flush + steps * self._interval
        self._flush(boundary)
        self._next_flush = boundary + self._interval

    def _flush(self, at_time: float) -> None:
        width = at_time - self._window_start
        rate = (1.0 / width) if width > 0 else math.nan
        cluster = self._registries["cluster"]
        cluster.gauge("active").set(self._active)
        cluster.gauge("tokens_per_sec").set(self._cluster_tokens * rate)
        cluster.gauge("machines_up").set(self._machines_up)
        for m in range(len(self._m_gpu)):
            registry = self._registries[f"machine/{m}"]
            registry.gauge("gpu_util").set(self._m_gpu[m] * rate)
            registry.gauge("dimm_util").set(self._m_dimm[m] * rate)
            registry.gauge("batch").set(self._m_batch[m])
            registry.gauge("resident_mib").set(self._m_resident[m] / MIB)
            registry.gauge("swap_mib_per_s").set(
                self._m_swap[m] / MIB * rate
            )
        for name, state in self._classes.items():
            registry = self._registries[f"class/{name}"]
            done = state.completed
            frac = (1.0 / done) if done else math.nan
            registry.gauge("slo_ttft").set(state.ttft_ok * frac)
            registry.gauge("slo_tbt").set(state.tbt_ok * frac)
            registry.gauge("slo_joint").set(state.joint_ok * frac)
        for topic, registry in self._registries.items():
            values = registry.collect()
            if topic.startswith("machine/"):
                m = int(topic[8:])
                values["health"] = self._m_health[m]
                if self._has_domains:
                    values["domain"] = self._m_domain.get(m, "")
            self._stream.publish(topic, at_time, values)
        # reset the window accumulators (cumulative metrics persist)
        self._cluster_tokens = 0
        self._m_gpu = [0.0] * len(self._m_gpu)
        self._m_dimm = [0.0] * len(self._m_dimm)
        self._m_swap = [0] * len(self._m_swap)
        self._window_start = at_time

    # ------------------------------------------------------------------
    def _on_admitted(self, event: ev.RequestAdmitted) -> None:
        self._requests[event.req_id] = _RequestState(
            event.class_name, event.arrival
        )

    def _on_queue_depth(self, event: ev.QueueDepth) -> None:
        self._registries["cluster"].gauge("queue_depth").set(event.depth)

    def _on_prefill_ended(self, event: ev.PrefillEnded) -> None:
        self._m_gpu[event.machine] += event.compute
        self._active += 1
        request = self._requests.get(event.req_id)
        if request is not None:
            request.resident = True

    def _on_resumed(self, event: ev.RequestResumed) -> None:
        self._active += 1
        request = self._requests.get(event.req_id)
        if request is not None:
            request.resident = True

    def _on_preempted(self, event: ev.RequestPreempted) -> None:
        self._registries["cluster"].counter("preempted").inc()
        self._active -= 1
        request = self._requests.get(event.req_id)
        if request is not None:
            request.resident = False

    def _on_migrated(self, event: ev.RequestMigrated) -> None:
        self._registries["cluster"].counter("migrations").inc()
        request = self._requests.get(event.req_id)
        if request is not None and request.resident:
            # evacuated out of a running batch, back to queued
            request.resident = False
            self._active -= 1

    def _on_machine_down(self, event: ev.MachineDown) -> None:
        self._machines_up -= 1

    def _on_machine_up(self, event: ev.MachineUp) -> None:
        self._machines_up += 1

    def _on_health(self, event: ev.MachineHealth) -> None:
        self._m_health[event.machine] = event.state

    def _on_decode_step(self, event: ev.DecodeStep) -> None:
        m = event.machine
        self._m_gpu[m] += event.gpu_busy
        self._m_dimm[m] += event.dimm_busy
        self._m_swap[m] += event.swap_bytes
        self._m_resident[m] = float(event.resident_bytes)
        self._m_batch[m] = float(event.batch)
        steps = event.steps
        tokens = event.batch * steps
        self._cluster_tokens += tokens
        self._registries[f"machine/{m}"].counter("tokens").inc(tokens)
        # a fast span's tokens are evenly spaced, the last at ``time``
        step = event.seconds / steps
        first = event.time - step * (steps - 1)
        for rid in event.req_ids:
            request = self._requests.get(rid)
            if request is None:
                continue
            gaps = [step] * (steps - 1)
            if request.first is None:
                request.first = first
            else:
                gaps.insert(0, first - request.last)
            cls = self._classes.get(request.class_name)
            if cls is not None and gaps:
                histogram = self._registries[
                    f"class/{request.class_name}"
                ].histogram("tbt_ms")
                slo = cls.info.tbt_slo
                for gap in gaps:
                    histogram.observe(gap * 1e3)
                    if slo is not None and not gap <= slo:
                        request.tbt_ok = False
            request.last = event.time

    def _on_completed(self, event: ev.RequestCompleted) -> None:
        self._active -= 1
        self._registries["cluster"].counter("completed").inc()
        request = self._requests.pop(event.req_id, None)
        if request is None:
            return
        cls = self._classes.get(request.class_name)
        if cls is None:
            return
        registry = self._registries[f"class/{request.class_name}"]
        registry.counter("completed").inc()
        ttft = request.first - request.arrival
        registry.histogram("ttft_ms").observe(ttft * 1e3)
        # exactly the report's attainment comparisons (nan-safe spelling)
        slo = cls.info
        ttft_ok = slo.ttft_slo is None or ttft <= slo.ttft_slo
        tbt_ok = request.tbt_ok
        cls.completed += 1
        cls.ttft_ok += 1 if ttft_ok else 0
        cls.tbt_ok += 1 if tbt_ok else 0
        cls.joint_ok += 1 if (ttft_ok and tbt_ok) else 0

    _handlers: dict[type, typing.Callable] = {
        ev.RequestAdmitted: _on_admitted,
        ev.QueueDepth: _on_queue_depth,
        ev.PrefillEnded: _on_prefill_ended,
        ev.RequestResumed: _on_resumed,
        ev.RequestPreempted: _on_preempted,
        ev.RequestMigrated: _on_migrated,
        ev.MachineDown: _on_machine_down,
        ev.MachineUp: _on_machine_up,
        ev.MachineHealth: _on_health,
        ev.DecodeStep: _on_decode_step,
        ev.RequestCompleted: _on_completed,
    }
