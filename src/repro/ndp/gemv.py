"""GEMV unit of the NDP core (paper §IV-A1, Table II).

Each NDP-DIMM carries one NDP core whose GEMV unit contains 256 multipliers
clocked at 1 GHz.  Each multiplier handles a 128-bit word (eight FP16
values) in a *bit-serial* manner, followed by a reduction-tree accumulator
and a 256 KB intermediate buffer.  Bit-serial FP16 multiplication takes on
the order of the mantissa width in cycles; with 16 cycles per 8-value word
the unit sustains 256 x 8 / 16 = 128 GMAC/s = 256 GFLOP/s — squarely in the
"hundreds of GFLOPS" envelope the paper attributes to NDP-DIMMs (§I).

The paper's Figure 16 sweeps the multiplier count from 32 to 512; the
``multipliers`` field exposes exactly that design space.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class GEMVUnit:
    """Timing model of one bit-serial GEMV unit."""

    multipliers: int = 256
    values_per_multiplier: int = 8  # FP16 lanes per 128-bit word
    bit_serial_cycles: int = 16     # cycles to consume one 128-bit word
    frequency: float = 1e9          # Hz
    buffer_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        if self.multipliers <= 0 or self.values_per_multiplier <= 0:
            raise ValueError("GEMV unit lane counts must be positive")
        if self.bit_serial_cycles <= 0 or self.frequency <= 0:
            raise ValueError("GEMV unit timing must be positive")
        if self.buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")

    @property
    def macs_per_second(self) -> float:
        """Sustained FP16 multiply-accumulates per second."""
        per_cycle = self.multipliers * self.values_per_multiplier
        return per_cycle / self.bit_serial_cycles * self.frequency

    @property
    def flops(self) -> float:
        return 2.0 * self.macs_per_second

    def compute_time(self, weight_bytes: float, batch: int = 1) -> float:
        """Pure-compute time for a GEMV over ``weight_bytes`` of FP16
        weights, reused across ``batch`` activation vectors."""
        if weight_bytes < 0:
            raise ValueError("weight_bytes must be non-negative")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        macs = weight_bytes / 2 * batch  # one MAC per FP16 weight per batch
        return macs / self.macs_per_second

    def compute_time_batch(
        self, weight_bytes: np.ndarray, batch: int = 1
    ) -> np.ndarray:
        """Vectorized :meth:`compute_time` over a float64 array of byte
        counts.

        Element-for-element identical to the scalar path (same operation
        order), so callers may mix the two freely.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return weight_bytes / 2 * batch / self.macs_per_second

    def scaled(self, multipliers: int) -> "GEMVUnit":
        """The same unit with a different multiplier count (Fig. 16 DSE)."""
        return dataclasses.replace(self, multipliers=multipliers)
