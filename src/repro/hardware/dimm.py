"""NDP-DIMM device: DDR4 DIMM + NDP core + DIMM-link endpoint.

Composes the DRAM timing substrate (:mod:`repro.dram`) with the NDP core
model (:mod:`repro.ndp`) into the per-DIMM device the system simulations
schedule work onto.  The default configuration is exactly Table II:
32 GB DDR4-3200, 4 ranks x 2 bank groups x 4 banks, one NDP core with a
256-multiplier GEMV unit, and a 25 GB/s DIMM-link.
"""

from __future__ import annotations

import dataclasses
import functools

from ..dram import (
    DDR4Timing,
    DIMMGeometry,
    channel_stream_bandwidth,
    internal_stream_bandwidth,
    scattered_access_efficiency,
)
from ..ndp import NDPCore
from .links import Link, dimm_link


@dataclasses.dataclass(frozen=True)
class NDPDIMM:
    """One NDP-enhanced DIMM module."""

    geometry: DIMMGeometry = dataclasses.field(default_factory=DIMMGeometry)
    timing: DDR4Timing = dataclasses.field(default_factory=DDR4Timing)
    core: NDPCore = dataclasses.field(default_factory=NDPCore)
    link: Link = dataclasses.field(default_factory=dimm_link)

    @property
    def capacity_bytes(self) -> int:
        return self.geometry.capacity_bytes

    @functools.cached_property
    def internal_bandwidth(self) -> float:
        """Sustained bandwidth the NDP core sees (all lanes in parallel).

        Cached: the geometry/timing fields are frozen, and the decode hot
        path queries this once per GEMV.
        """
        return internal_stream_bandwidth(self.geometry, self.timing)

    @functools.cached_property
    def channel_bandwidth(self) -> float:
        """Sustained bandwidth of the external channel interface."""
        return channel_stream_bandwidth(self.geometry, self.timing)

    # ------------------------------------------------------------------
    def effective_stream_bandwidth(self, run_bytes: float) -> float:
        """Internal bandwidth adjusted for contiguous-run length.

        Cold neurons are scattered, but each neuron's weights are a multi-KB
        contiguous run, so the derating is mild; see
        :func:`repro.dram.scattered_access_efficiency`.
        """
        eff = scattered_access_efficiency(
            self.geometry, self.timing, run_bytes
        )
        return self.internal_bandwidth * eff

    def gemv_time(
        self,
        weight_bytes: float,
        batch: int = 1,
        *,
        run_bytes: float | None = None,
    ) -> float:
        """Sparse GEMV over ``weight_bytes`` of resident cold neurons."""
        bandwidth = (self.internal_bandwidth if run_bytes is None
                     else self.effective_stream_bandwidth(run_bytes))
        return self.core.gemv_time(weight_bytes, bandwidth, batch)

    def attention_time(
        self, kv_bytes: float, context_len: int, num_heads: int, batch: int = 1
    ) -> float:
        """Decode attention over this DIMM's KV shard."""
        return self.core.attention_time(
            kv_bytes, self.internal_bandwidth, context_len, num_heads, batch
        )

    def migration_time(self, num_bytes: float) -> float:
        """Cold-neuron remap to a neighbouring DIMM over the DIMM-link."""
        return self.link.transfer_time(num_bytes)

    def with_multipliers(self, multipliers: int) -> "NDPDIMM":
        """DIMM variant for the Fig. 16 design-space exploration."""
        return dataclasses.replace(
            self, core=self.core.with_multipliers(multipliers)
        )


def default_dimm() -> NDPDIMM:
    """The Table II NDP-DIMM."""
    return NDPDIMM()
