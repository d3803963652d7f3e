"""Interconnect models: PCIe, DIMM-link, and the host memory bus.

Every byte that moves between devices in any of the simulated systems goes
through one of these three links, so their fidelity determines the headline
comparisons.  Each link is modelled as latency + size/effective-bandwidth,
with an efficiency factor covering protocol and driver overheads:

* **PCIe 4.0 x16** (GPU <-> host): 64 GB/s raw.  Sustained host-to-device
  copies of pinned memory reach ~80 % of raw; pageable copies (what naive
  offloading frameworks issue) reach ~40 % because of the staging memcpy.
* **DIMM-link** (DIMM <-> DIMM): 25 GB/s bidirectional point-to-point links
  (Table II), used for cold-neuron remapping.  The paper reports >62x faster
  inter-DIMM movement than bouncing through the host.
* **Host memory bus** (CPU <-> DIMMs): 89.6 GB/s on the i9-13900K reference
  host (§V-A2), shared by CPU-side compute in Hermes-host.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Link:
    """A point-to-point transfer channel."""

    name: str
    bandwidth: float  # bytes/s, raw
    latency: float  # seconds per transfer
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")
        if self.latency < 0:
            raise ValueError(f"{self.name}: latency must be non-negative")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"{self.name}: efficiency must lie in (0, 1]")

    @property
    def effective_bandwidth(self) -> float:
        return self.bandwidth * self.efficiency

    def transfer_time(self, num_bytes: float) -> float:
        """Time to move ``num_bytes`` over this link (0 bytes is free)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.latency + num_bytes / self.effective_bandwidth


def pcie4_x16(*, pinned: bool = True) -> Link:
    """PCIe 4.0 x16 between GPU and host memory.

    ``pinned`` selects the DMA-from-pinned-memory efficiency used by tuned
    runtimes (FlexGen, Deja Vu, Hermes) versus the pageable-copy efficiency
    of framework-default offloading (HuggingFace Accelerate).
    """
    return Link(
        name="PCIe 4.0 x16" + ("" if pinned else " (pageable)"),
        bandwidth=64e9,
        latency=10e-6,
        efficiency=0.80 if pinned else 0.40,
    )


def dimm_link() -> Link:
    """Inter-DIMM point-to-point link (Table II: 25 GB/s per link)."""
    return Link(
        name="DIMM-link", bandwidth=25e9, latency=1e-6, efficiency=0.90
    )


def host_memory_bus(bandwidth: float = 89.6e9) -> Link:
    """CPU load/store path to commodity DIMMs (i9-13900K: 89.6 GB/s)."""
    return Link(
        name="host memory bus",
        bandwidth=bandwidth,
        latency=0.2e-6,
        efficiency=0.85,
    )


@dataclasses.dataclass(frozen=True)
class HostCPU:
    """Host processor used for scheduling and (in Hermes-host) cold compute.

    The CPU GEMV is bandwidth-bound: its effective FP16 throughput is far
    above what the memory bus can feed, so cold-neuron compute time on the
    CPU is ``bytes / memory_bus.effective_bandwidth`` — which is precisely
    why the paper replaces the host CPU with NDP-DIMMs.
    """

    name: str = "Intel i9-13900K"
    memory_bus: Link = dataclasses.field(default_factory=host_memory_bus)
    fp16_gflops: float = 1100.0  # AVX-512/AMX-class peak, effectively unused
    #: achieved fraction of the memory bus on *scattered* sparse GEMV —
    #: gathering non-contiguous neuron rows defeats the prefetchers;
    #: PowerInfer-class CPU kernels measure ~1/3 of STREAM bandwidth.
    scatter_efficiency: float = 0.35

    def gemv_time(
        self, weight_bytes: float, batch: int = 1, *, scattered: bool = True
    ) -> float:
        """Sparse GEMV over ``weight_bytes`` of cold neurons, on the CPU."""
        if weight_bytes < 0:
            raise ValueError("weight_bytes must be non-negative")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if weight_bytes == 0:
            return 0.0
        bandwidth = self.memory_bus.effective_bandwidth
        if scattered:
            bandwidth *= self.scatter_efficiency
        t_memory = weight_bytes / bandwidth
        t_compute = weight_bytes * batch / (self.fp16_gflops * 1e9)
        return max(t_memory, t_compute)
