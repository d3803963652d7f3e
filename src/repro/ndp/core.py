"""The NDP core: one GEMV unit + one activation unit per DIMM (Table II).

The core reads weights from the DRAM cells through the center buffer; a GEMV
is therefore bounded by the slower of the DIMM-internal stream bandwidth and
the bit-serial MAC throughput.  At batch 1 the Table II configuration is
memory-bound (102 GB/s stream vs 256 GFLOP/s); batching multiplies MACs but
not weight traffic, so the core turns compute-bound around batch 2-3 —
matching the paper's observation that Hermes-base handles batch 2 gracefully
but saturates beyond it (§V-B2).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .activation import ActivationUnit
from .gemv import GEMVUnit


@dataclasses.dataclass(frozen=True)
class NDPCore:
    """Timing model of the per-DIMM NDP core."""

    gemv: GEMVUnit = dataclasses.field(default_factory=GEMVUnit)
    activation: ActivationUnit = dataclasses.field(
        default_factory=ActivationUnit
    )
    area_mm2: float = 1.23  # Table II, TSMC 7 nm synthesis
    frequency: float = 1e9

    def __post_init__(self) -> None:
        if self.area_mm2 <= 0 or self.frequency <= 0:
            raise ValueError("NDP core spec must be positive")

    def gemv_time(
        self, weight_bytes: float, stream_bandwidth: float, batch: int = 1
    ) -> float:
        """GEMV over ``weight_bytes``: max(stream time, MAC time).

        Weight streaming and bit-serial accumulation are pipelined, so the
        slower of the two paths determines latency.
        """
        if stream_bandwidth <= 0:
            raise ValueError("stream_bandwidth must be positive")
        if weight_bytes < 0:
            raise ValueError("weight_bytes must be non-negative")
        if weight_bytes == 0:
            return 0.0
        t_stream = weight_bytes / stream_bandwidth
        t_compute = self.gemv.compute_time(weight_bytes, batch)
        return max(t_stream, t_compute)

    def gemv_time_batch(
        self,
        weight_bytes: np.ndarray,
        stream_bandwidth: float,
        batch: int = 1,
    ) -> np.ndarray:
        """Vectorized :meth:`gemv_time` over a float64 array of byte
        counts.

        One elementwise max over the whole array replaces a Python-level
        loop of scalar calls; each element is bit-identical to what the
        scalar path returns (zero bytes yields exactly 0.0 either way).
        The loads are not scanned for negative values: the decode step's
        are non-negative by construction.
        """
        if stream_bandwidth <= 0:
            raise ValueError("stream_bandwidth must be positive")
        t_stream = weight_bytes / stream_bandwidth
        t_compute = self.gemv.compute_time_batch(weight_bytes, batch)
        return np.maximum(t_stream, t_compute)

    def attention_time(
        self,
        kv_bytes: float,
        stream_bandwidth: float,
        context_len: int,
        num_heads: int,
        batch: int = 1,
    ) -> float:
        """Decode attention over the KV-cache shard held by this DIMM.

        Score and value GEMVs stream the KV cache once; softmax runs on the
        activation unit and is pipelined behind the score pass, so only the
        non-overlapped tail is charged.
        """
        if kv_bytes < 0:
            raise ValueError("kv_bytes must be non-negative")
        if kv_bytes == 0:
            return 0.0
        t_stream = self.gemv_time(kv_bytes, stream_bandwidth, batch)
        t_softmax = self.activation.attention_softmax_time(
            context_len, num_heads, batch
        )
        return t_stream + 0.1 * t_softmax

    def merge_time(self, n_values: int, batch: int = 1) -> float:
        """Merge kernel gathering GPU and DIMM partial results (§IV-A2)."""
        if n_values < 0:
            raise ValueError("n_values must be non-negative")
        return self.activation.relu_time(n_values * batch)

    def with_multipliers(self, multipliers: int) -> "NDPCore":
        """Core variant for the Fig. 16 design-space exploration."""
        return dataclasses.replace(self, gemv=self.gemv.scaled(multipliers))
