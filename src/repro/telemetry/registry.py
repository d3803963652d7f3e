"""A small metrics registry: counters, gauges, windowed histograms.

One registry backs one stream topic: its :meth:`MetricsRegistry.describe`
output becomes the topic's retained discovery message (field names,
kinds, units), and :meth:`MetricsRegistry.collect` produces the flat
``values`` mapping of each sample.  Histograms aggregate over the
*window* between two collects — the stream's configurable sample
interval — reporting windowed percentiles plus a cumulative count;
an empty window reports ``nan`` percentiles (rendered as "—").

Percentiles reuse :func:`repro.serving.metrics.percentile`, so a
streamed latency percentile and the post-hoc report's agree exactly.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from ..serving.metrics import percentile


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """Identity and documentation of one registered metric."""

    name: str
    kind: str
    unit: str = ""
    help: str = ""


class Counter:
    """A monotonically non-decreasing cumulative value."""

    kind = "counter"

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.spec.name!r} cannot decrease "
                f"(inc by {amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    kind = "gauge"

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self.value = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Windowed sample distribution with cumulative count.

    ``observe`` appends to the current window; ``collect`` reports the
    window's percentiles and maximum, then resets it — the registry
    owner's collect cadence *is* the sample interval.
    """

    kind = "histogram"

    def __init__(
        self, spec: MetricSpec, percentiles: tuple[float, ...]
    ) -> None:
        self.spec = spec
        self.percentiles = percentiles
        self.count = 0
        self._window: list[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self._window.append(float(value))

    def field_names(self) -> list[str]:
        names = [f"{self.spec.name}_count"]
        names.extend(
            f"{self.spec.name}_p{p:g}" for p in self.percentiles
        )
        names.append(f"{self.spec.name}_max")
        return names

    def snapshot(self) -> dict[str, float]:
        """The window's values; starts the next window."""
        window = self._window
        values = {f"{self.spec.name}_count": float(self.count)}
        for p in self.percentiles:
            values[f"{self.spec.name}_p{p:g}"] = (
                percentile(window, p) if window else math.nan
            )
        values[f"{self.spec.name}_max"] = (
            max(window) if window else math.nan
        )
        self._window = []
        return values


class MetricsRegistry:
    """Get-or-create registry of one topic's metrics.

    Re-registering a name with the same kind returns the existing
    metric; a kind mismatch raises (one name, one meaning).
    """

    def __init__(
        self, percentiles: typing.Sequence[float] = (50.0, 99.0)
    ) -> None:
        for p in percentiles:
            if not 0.0 <= p <= 100.0:
                raise ValueError("percentiles must lie in [0, 100]")
        self.percentiles = tuple(float(p) for p in percentiles)
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, factory, name: str, unit: str, help: str):
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, factory):
                raise ValueError(
                    f"metric {name!r} is a {metric.kind}, not a "
                    f"{factory.kind}"
                )
            return metric
        spec = MetricSpec(
            name=name, kind=factory.kind, unit=unit, help=help
        )
        if factory is Histogram:
            metric = Histogram(spec, self.percentiles)
        else:
            metric = factory(spec)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, unit: str = "", help: str = "") -> Counter:
        return self._get_or_create(Counter, name, unit, help)

    def gauge(self, name: str, unit: str = "", help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, unit, help)

    def histogram(
        self, name: str, unit: str = "", help: str = ""
    ) -> Histogram:
        return self._get_or_create(Histogram, name, unit, help)

    # ------------------------------------------------------------------
    def describe(self) -> list[dict]:
        """Flat field descriptors — a topic's discovery payload."""
        fields: list[dict] = []
        for metric in self._metrics.values():
            spec = metric.spec
            if isinstance(metric, Histogram):
                for field in metric.field_names():
                    kind = "counter" if field.endswith("_count") else "gauge"
                    fields.append({
                        "name": field,
                        "kind": kind,
                        "unit": "" if field.endswith("_count") else spec.unit,
                        "help": spec.help,
                    })
            else:
                fields.append({
                    "name": spec.name,
                    "kind": spec.kind,
                    "unit": spec.unit,
                    "help": spec.help,
                })
        return fields

    def collect(self) -> dict[str, float]:
        """The flat ``values`` mapping of one sample (resets windows)."""
        values: dict[str, float] = {}
        for metric in self._metrics.values():
            if isinstance(metric, Histogram):
                values.update(metric.snapshot())
            else:
                values[metric.spec.name] = metric.value
        return values
