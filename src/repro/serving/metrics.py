"""Serving metrics: per-request latency records and cluster-level reports.

The serving simulator measures what an SLO owner measures:

* **TTFT** — time to first token: arrival -> completion of the request's
  first decode step (queue wait + prefill + first iteration);
* **TBT** — time between tokens during steady decode;
* **E2E** — arrival -> last token;
* throughput (tokens/s and requests/s over the makespan), time-weighted
  queue depth and batch size, and per-device (GPU / NDP-DIMM pool)
  utilization integrated from the engine's :class:`~repro.core.StepCost`.

Percentiles use linear interpolation (numpy's default convention), kept in
a tiny local function so the arithmetic is hand-checkable in tests.
"""

from __future__ import annotations

import dataclasses
import math

from .workload import Request


def percentile(values: list[float], p: float) -> float:
    """P-th percentile with linear interpolation between order statistics.

    Matches ``numpy.percentile``'s default ("linear") method: rank
    ``(n - 1) * p / 100`` interpolated between the two nearest sorted
    samples.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must lie in [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def percentile_or_nan(values: list[float], p: float) -> float:
    """:func:`percentile`, but an empty sample set yields ``nan``.

    Report aggregates use this so that a run (or a class) with no
    completed requests reads as "no data" (``nan``, rendered as "—")
    instead of crashing the report path.  ``p`` is still validated —
    asking for p150 is a caller bug even over no data.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must lie in [0, 100]")
    if not values:
        return math.nan
    return percentile(values, p)


def time_weighted_mean(
    samples: list[tuple[float, float]], horizon: float
) -> float:
    """Mean of a piecewise-constant signal ``[(time, value), ...]``.

    Each value holds from its timestamp until the next sample (or
    ``horizon``); the signal is 0 before the first sample.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    total = 0.0
    for i, (t, v) in enumerate(samples):
        t_end = samples[i + 1][0] if i + 1 < len(samples) else horizon
        total += v * max(0.0, min(t_end, horizon) - t)
    return total / horizon


@dataclasses.dataclass(slots=True)
class RequestRecord:
    """Lifecycle timestamps of one served request."""

    request: Request
    machine: int = -1
    prefill_start: float | None = None
    token_times: list[float] = dataclasses.field(default_factory=list)
    #: times this request was bumped out of a running batch by preemptive
    #: admission (cluster SLO scheduling); 0 under non-preemptive policies
    preemptions: int = 0
    #: times this request was evacuated off a crashed machine; each
    #: migration forces a re-prefill over prompt + generated tokens
    migrations: int = 0
    #: set while a migration's KV loss is outstanding: the next admission
    #: re-runs prefill even though ``prefill_start`` is already stamped
    needs_prefill: bool = False

    @property
    def finished(self) -> bool:
        return len(self.token_times) >= self.request.output_len

    @property
    def first_token_time(self) -> float:
        """Time of the first decode token (``nan`` if none produced)."""
        return self.token_times[0] if self.token_times else math.nan

    @property
    def finish_time(self) -> float:
        """Time of the last decode token (``nan`` if none produced)."""
        return self.token_times[-1] if self.token_times else math.nan

    @property
    def queue_wait(self) -> float:
        """Arrival -> start of prefill (pure scheduling delay)."""
        if self.prefill_start is None:
            raise ValueError("request never started")
        return self.prefill_start - self.request.arrival

    @property
    def ttft(self) -> float:
        return self.first_token_time - self.request.arrival

    @property
    def e2e_latency(self) -> float:
        return self.finish_time - self.request.arrival

    @property
    def tbts(self) -> list[float]:
        """Inter-token gaps after the first token."""
        return [b - a for a, b in zip(self.token_times, self.token_times[1:])]


@dataclasses.dataclass
class ServingReport:
    """Aggregate outcome of one serving-simulation run."""

    policy: str
    num_machines: int
    records: list[RequestRecord]
    makespan: float
    #: (time, queue depth) change points
    queue_samples: list[tuple[float, float]]
    #: (time, total in-flight batch) change points
    batch_samples: list[tuple[float, float]]
    #: per-machine busy seconds (index = machine id); empty means "not
    #: tracked", in which case the aggregate properties report 0
    machine_gpu_busy: list[float] = dataclasses.field(default_factory=list)
    machine_dimm_busy: list[float] = dataclasses.field(default_factory=list)
    #: machines whose batching policy returned a batch limit < 1 and had
    #: it clamped up to 1 (a warned-about policy bug, not silent repair)
    batch_limit_clamps: int = 0
    #: per-machine seconds spent down within the makespan (crash through
    #: restart + warmup); empty means "no fault schedule"
    machine_downtime: list[float] = dataclasses.field(default_factory=list)
    #: outage durations (crash -> serving again) of every crash that
    #: fully recovered within the run, in crash order
    recoveries: list[float] = dataclasses.field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def preemptions(self) -> int:
        """Total preemptions across requests."""
        return sum(r.preemptions for r in self.records)

    @property
    def migrations(self) -> int:
        """Total crash-driven migrations across requests."""
        return sum(r.migrations for r in self.records)

    @property
    def availability(self) -> float:
        """Fraction of fleet machine-seconds the fleet was serving.

        1.0 with no fault schedule (or no downtime); ``nan`` on a
        zero-length run, matching the percentile conventions.
        """
        if not self.machine_downtime:
            return 1.0
        if self.makespan <= 0:
            return math.nan
        total = self.makespan * self.num_machines
        return 1.0 - math.fsum(self.machine_downtime) / total

    @property
    def mean_time_to_recover(self) -> float:
        """Mean crash->serving-again duration (``nan``: no recoveries)."""
        if not self.recoveries:
            return math.nan
        return math.fsum(self.recoveries) / len(self.recoveries)

    @property
    def unfinished(self) -> list[RequestRecord]:
        """Requests the run never completed (e.g. stranded on a machine
        that never restarted) — reported honestly, never dropped."""
        return [r for r in self.records if not r.finished]

    @property
    def gpu_busy(self) -> float:
        """Total GPU busy seconds summed over machines."""
        return math.fsum(self.machine_gpu_busy)

    @property
    def dimm_busy(self) -> float:
        """Total NDP-DIMM-pool busy seconds summed over machines."""
        return math.fsum(self.machine_dimm_busy)

    @property
    def completed(self) -> list[RequestRecord]:
        return [r for r in self.records if r.finished]

    @property
    def total_tokens(self) -> int:
        return sum(len(r.token_times) for r in self.records)

    @property
    def tokens_per_second(self) -> float:
        return self.total_tokens / self.makespan if self.makespan > 0 else 0.0

    @property
    def requests_per_second(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return len(self.completed) / self.makespan

    # ------------------------------------------------------------------
    # Latency percentiles aggregate over *completed* requests; with none
    # completed (e.g. an aborted or empty run) they report ``nan`` —
    # "no data", not an exception — so report/rendering paths never
    # crash on a degenerate run.
    def _values(self, attr: str) -> list[float]:
        return [getattr(r, attr) for r in self.completed]

    def ttft_percentile(self, p: float) -> float:
        return percentile_or_nan(self._values("ttft"), p)

    def e2e_percentile(self, p: float) -> float:
        return percentile_or_nan(self._values("e2e_latency"), p)

    def queue_wait_percentile(self, p: float) -> float:
        return percentile_or_nan(self._values("queue_wait"), p)

    def tbt_percentile(self, p: float) -> float:
        gaps = [g for r in self.completed for g in r.tbts]
        return percentile_or_nan(gaps, p)

    # ------------------------------------------------------------------
    @property
    def mean_queue_depth(self) -> float:
        return time_weighted_mean(self.queue_samples, self.makespan)

    @property
    def max_queue_depth(self) -> float:
        return max((v for _, v in self.queue_samples), default=0.0)

    @property
    def mean_batch_size(self) -> float:
        return time_weighted_mean(self.batch_samples, self.makespan)

    @property
    def gpu_utilization(self) -> float:
        """GPU busy fraction, averaged over machines and the makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.gpu_busy / (self.makespan * self.num_machines)

    @property
    def dimm_utilization(self) -> float:
        """NDP-DIMM pool busy fraction (critical-path DIMM time)."""
        if self.makespan <= 0:
            return 0.0
        return self.dimm_busy / (self.makespan * self.num_machines)

    @property
    def machine_gpu_utilization(self) -> list[float]:
        """Per-machine GPU busy fraction over the makespan."""
        if self.makespan <= 0:
            return [0.0] * len(self.machine_gpu_busy)
        return [b / self.makespan for b in self.machine_gpu_busy]

    @property
    def machine_dimm_utilization(self) -> list[float]:
        """Per-machine NDP-DIMM pool busy fraction over the makespan."""
        if self.makespan <= 0:
            return [0.0] * len(self.machine_dimm_busy)
        return [b / self.makespan for b in self.machine_dimm_busy]
