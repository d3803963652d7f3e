"""The :class:`Tracer` protocol and its bundled implementations.

The serving simulators accept any tracer and guard every emission site
with ``tracer.enabled`` — with the default :class:`NullTracer` the whole
telemetry subsystem costs one attribute read per guarded block, which is
what keeps the disabled path inside the serving benchmark gates.

Tracing **observes** a run, it never steers one: a tracer must not
mutate simulator state, and the simulators never read anything back from
it.  The telemetry tests pin that a traced run's report is identical to
an untraced one.
"""

from __future__ import annotations

import typing

from .events import Event


@typing.runtime_checkable
class Tracer(typing.Protocol):
    """Anything that consumes the lifecycle event stream."""

    #: emission sites are skipped entirely when this is ``False``
    enabled: bool

    def emit(self, event: Event) -> None:
        """Consume one event (must not raise on any event type)."""
        ...  # pragma: no cover - protocol


class NullTracer:
    """The zero-overhead default: nothing is ever emitted."""

    enabled = False

    def emit(self, event: Event) -> None:  # pragma: no cover - guarded out
        return None


#: shared default instance (stateless, so one is enough)
NULL_TRACER = NullTracer()


class RecordingTracer:
    """Append every event to an in-memory list (tests, exporters)."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()


class MultiTracer:
    """Fan one event stream out to several sinks."""

    enabled = True

    def __init__(self, *tracers: Tracer) -> None:
        self.tracers = tuple(t for t in tracers if t.enabled)
        if not self.tracers:
            raise ValueError("MultiTracer needs at least one enabled tracer")

    def emit(self, event: Event) -> None:
        for tracer in self.tracers:
            tracer.emit(event)
