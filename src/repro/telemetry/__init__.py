"""Telemetry: request-level tracing and live metric streams.

The serving simulators emit a typed lifecycle event stream (see
:mod:`repro.telemetry.events`) through a :class:`Tracer`.  The default
:data:`NULL_TRACER` is zero-overhead; enabled tracers can record events
in memory (:class:`RecordingTracer`), render them as a self-describing
JSONL metric stream (:class:`MetricStreamTracer`, watchable live via
``python -m repro.experiments watch``), or — post hoc — export a
Chrome/Perfetto trace (:func:`export_chrome_trace`).

Telemetry observes, it never steers: with any tracer attached the
simulation produces bit-identical results (pinned by the telemetry
tests).
"""

from .chrome import chrome_trace, export_chrome_trace
from .config import TelemetrySpec
from .events import (
    ClassInfo,
    DecodeStep,
    Event,
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
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricSpec,
    MetricsRegistry,
)
from .sinks import SinkSet, scenario_sinks
from .stream import MetricStreamTracer, TopicStream
from .tracer import (
    NULL_TRACER,
    MultiTracer,
    NullTracer,
    RecordingTracer,
    Tracer,
)

__all__ = [
    "ClassInfo",
    "Counter",
    "DecodeStep",
    "Event",
    "Gauge",
    "Histogram",
    "MachineDegraded",
    "MachineDown",
    "MachineHealth",
    "MachineUp",
    "MetricSpec",
    "MetricsRegistry",
    "MetricStreamTracer",
    "MultiTracer",
    "NULL_TRACER",
    "NullTracer",
    "PrefillEnded",
    "PrefillStarted",
    "QueueDepth",
    "RecordingTracer",
    "RequestAdmitted",
    "RequestCompleted",
    "RequestMigrated",
    "RequestPreempted",
    "RequestResumed",
    "RequestRouted",
    "RunEnded",
    "RunStarted",
    "SinkSet",
    "TelemetrySpec",
    "TopicStream",
    "Tracer",
    "chrome_trace",
    "export_chrome_trace",
    "scenario_sinks",
]
