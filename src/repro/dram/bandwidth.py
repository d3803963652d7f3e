"""Sustained-bandwidth estimates derived from the Table II timing model.

These closed-form estimates are what the higher-level system models consume;
a cycle-level controller in the test suite (``tests/dram_controller.py``)
validates them within a few percent.

Key effect: within one bank group, back-to-back READs are spaced by tCCD_L
(8 cycles) while a burst occupies only tBL (4 cycles), so a single bank-group
lane sustains at most tBL/tCCD_L = 50 % of its peak.  The conventional
channel bus hides this by interleaving bank groups on one shared bus; the
NDP center buffer instead drains all rank x bank-group lanes in parallel,
each at that 50 % duty cycle — which is where the DIMM-internal bandwidth
advantage over the channel interface comes from.
"""

from __future__ import annotations

from .timing import DDR4Timing, DIMMGeometry


def _row_switch_overhead(geometry: DIMMGeometry, timing: DDR4Timing) -> float:
    """Fractional throughput loss from row activations while streaming.

    Streaming interleaves banks, so a row activation in one bank overlaps
    draining another; the residual cost is only the fraction of tRC not
    covered by the drain time of the other banks in the same lane.
    """
    drain = geometry.bursts_per_row * timing.tCCD_L
    covered = drain * (geometry.banks_per_group - 1)
    residual = max(0, timing.tRC - covered)
    return residual / (drain + residual)


def lane_bandwidth(geometry: DIMMGeometry, timing: DDR4Timing) -> float:
    """Sustained bytes/s of one rank x bank-group lane while streaming."""
    peak = geometry.peak_bandwidth(timing)
    duty = timing.tBL / timing.tCCD_L
    return peak * duty * (1.0 - _row_switch_overhead(geometry, timing))


def internal_stream_bandwidth(
    geometry: DIMMGeometry, timing: DDR4Timing
) -> float:
    """Sustained DIMM-internal bandwidth seen by the NDP center buffer.

    All rank x bank-group lanes stream in parallel.  For the Table II
    configuration this is 4 ranks x 2 bank groups x 12.8 GB/s ~ 102 GB/s per
    DIMM, i.e. ~0.8 TB/s across 8 DIMMs — the "~1 TB/s-class" internal
    bandwidth the paper's Figure 1 sketches.
    """
    return lane_bandwidth(geometry, timing) * geometry.internal_paths


def channel_stream_bandwidth(
    geometry: DIMMGeometry, timing: DDR4Timing
) -> float:
    """Sustained bandwidth of the conventional channel interface.

    The shared external bus can interleave bank groups, so consecutive
    bursts are spaced by tCCD_S = tBL and the bus runs at full duty minus
    the row-switch residue: ~25 GB/s for DDR4-3200.
    """
    peak = geometry.peak_bandwidth(timing)
    duty = timing.tBL / max(timing.tBL, timing.tCCD_S)
    return peak * duty * (1.0 - _row_switch_overhead(geometry, timing))


def scattered_access_efficiency(
    geometry: DIMMGeometry, timing: DDR4Timing, run_bytes: float
) -> float:
    """Throughput retained when contiguous runs are only ``run_bytes`` long.

    Neuron weights are multi-KB contiguous runs (a 70B-class MLP neuron is
    ~32-48 KB), so scattered *neuron* access still streams well; truly short
    runs pay a full row activation (tRCD + residual tRC) per run.
    """
    if run_bytes <= 0:
        raise ValueError("run_bytes must be positive")
    bursts_per_run = max(1.0, run_bytes / geometry.burst_bytes)
    drain = bursts_per_run * timing.tCCD_L
    # one uncovered activation per run (the first row of the run)
    overhead = timing.tRCD + timing.tRP
    return drain / (drain + overhead)
