"""Host-speed calibration for CPU-time metrics.

Raw CPU time of one identical simulator pass swings by tens of percent
on a shared host: neighbours contend for caches, memory bandwidth and
SMT siblings, and that slows the program without descheduling it.  The
benchmark therefore measures a fixed micro-kernel *inside* every timed
interval and reports the interval's work in kernel units, rescaled to a
fixed reference::

    calibrated_s = (cpu_s - kernel_cpu_s) * REFERENCE_S / kernel_typical_s

``SIGPROF`` fires the kernel every ``PERIOD_S`` of process CPU time; an
untimed call first brings its code and data back into cache, then a
second call is timed.  The kernel touches only its own data, so its
time depends on the host and not on the program it interrupts;
:func:`alone` measures it with no program running, and the ratio of the
two medians is reported beside every result, so a change that slows the
kernel too (and would hide its own slowdown) is visible.

All times use the calling thread's CPU clock.  On some virtualised
kernels ``CLOCK_PROCESS_CPUTIME_ID`` only advances at scheduler ticks,
which makes it useless for a sub-millisecond kernel; the benchmark
process is single-threaded, so the thread clock measures the same work
at full resolution.
"""

from __future__ import annotations

import dataclasses
import signal
import statistics
import time

import numpy as np

#: the clock every interval and kernel sample is read from
clock_ns = time.thread_time_ns

#: kernel time, in seconds, on the reference host.  Calibrated metrics
#: read as CPU seconds on a host where one kernel takes this long.
REFERENCE_S = 1.3e-4
#: CPU time between two kernel samples
PERIOD_S = 0.01
#: identifies the kernel below; bump when the kernel body changes,
#: because calibrated values from different kernels do not compare
KERNEL_VERSION = "py-dict-float-np256-warm-v1"

_ARRAY = np.arange(256, dtype=np.float64)
_TABLE = {i: float(i) for i in range(4096)}
_KEYS = [int(k) for k in np.random.default_rng(12345).integers(0, 4096, 200)]


class _Slots:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 1.0
        self.b = 2.0


_OBJ = _Slots()


def kernel() -> float:
    """~0.15 ms of interpreter work plus small numpy operations.

    The mix mirrors the simulator's own: dict lookups, attribute loads,
    float arithmetic and short numpy calls on a few hundred elements.
    It allocates no objects the cyclic garbage collector tracks, so it
    cannot shift when the program's collections run.
    """
    table = _TABLE
    obj = _OBJ
    acc = 0.0
    for key in _KEYS:
        value = table[key]
        acc += value * obj.a - obj.b
        table[key] = value
    x = 1.0
    for i in range(150):
        x = x * 1.0000001 + (i & 7)
        acc += x % 3.0
    arr = _ARRAY
    for _ in range(12):
        arr = np.sqrt(arr * 1.0001 + 1.0)
    return acc + float(arr[3])


def alone(repeats: int = 200) -> list[int]:
    """Kernel durations (ns) measured back to back, no program running."""
    kernel()
    out = []
    for _ in range(repeats):
        t0 = clock_ns()
        kernel()
        out.append(clock_ns() - t0)
    return out


def typical(samples_ns: list[int]) -> float:
    """Mean of the samples between the 10th and 90th percentiles (ns).

    A sample can land on a page fault or a cold instruction cache; the
    trimmed mean drops those while still averaging the host's speed
    over the interval, which is what the interval's work experienced.
    """
    if not samples_ns:
        raise ValueError("no calibration samples")
    values = np.sort(np.asarray(samples_ns, dtype=np.float64))
    lo, hi = np.percentile(values, [10.0, 90.0])
    kept = values[(values >= lo) & (values <= hi)]
    return float(kept.mean())


def calibrate(work_ns: int, samples_ns: list[int]) -> float:
    """Work (ns of CPU, kernel time already removed) in reference seconds."""
    return work_ns * 1e-9 * REFERENCE_S / (typical(samples_ns) * 1e-9)


@dataclasses.dataclass(frozen=True)
class Interval:
    """A timed stretch of the program: raw CPU time and its samples."""

    cpu_ns: int
    #: timed kernel durations sampled inside the interval
    samples_ns: tuple[int, ...]
    #: CPU time the sampler itself spent inside the interval
    overhead_ns: int

    @property
    def work_ns(self) -> int:
        """CPU time of the program alone: the sampler's own time removed."""
        return self.cpu_ns - self.overhead_ns


class Sampler:
    """Runs :func:`kernel` on ``SIGPROF`` and records its durations.

    Use as a context manager around everything that is timed; mark
    interval boundaries with :meth:`mark` and cut them with
    :meth:`interval`.
    """

    def __init__(self) -> None:
        #: (start clock, timed duration, total duration incl. the
        #: warm-up call) of every kernel sample, in ns
        self.samples: list[tuple[int, int, int]] = []
        self._previous = None
        self._busy = False

    def _handler(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        # the untimed first call brings the kernel's code and data back
        # into cache after the program evicted them, so the timed call
        # measures the host rather than the program's cache footprint
        t0 = clock_ns()
        kernel()
        t1 = clock_ns()
        kernel()
        t2 = clock_ns()
        self.samples.append((t0, t2 - t1, t2 - t0))
        self._busy = False

    def __enter__(self) -> "Sampler":
        kernel()
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[int, int]:
        """An interval boundary: (clock, number of samples so far)."""
        return clock_ns(), len(self.samples)

    def interval(self, start: tuple[int, int],
                 end: tuple[int, int] | None = None) -> Interval:
        """The interval between two marks (``end`` defaults to now)."""
        if end is None:
            end = self.mark()
        inside = self.samples[start[1]:end[1]]
        return Interval(
            cpu_ns=end[0] - start[0],
            samples_ns=tuple(timed for _, timed, _ in inside),
            overhead_ns=sum(total for _, _, total in inside),
        )


def summary(samples_ns: list[int], alone_ns: list[int]) -> dict:
    """Accountability figures for one run's calibration."""
    med = statistics.median(samples_ns)
    q1, _, q3 = statistics.quantiles(samples_ns, n=4)
    alone_med = statistics.median(alone_ns)
    return {
        "kernel": KERNEL_VERSION,
        "reference_s": REFERENCE_S,
        "period_s": PERIOD_S,
        "samples": len(samples_ns),
        "median_s": med * 1e-9,
        "iqr_frac": (q3 - q1) / med,
        "alone_median_s": alone_med * 1e-9,
        "interference_ratio": med / alone_med,
    }
