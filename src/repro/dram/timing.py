"""DDR4 timing and geometry parameters (paper Table II).

The paper evaluates NDP-DIMM efficiency with a modified Ramulator 2.0; this
package substitutes closed-form bandwidths built from the same timing
parameters, validated in the test suite against a cycle-level controller.
Values are in memory-controller clock cycles of a DDR4-3200 part
(tCK = 0.625 ns), exactly as listed in Table II.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class DDR4Timing:
    """DDR4 timing constraints, in controller clock cycles."""

    name: str = "DDR4-3200"
    data_rate: float = 3200e6  # transfers/s on the data bus
    tRC: int = 76    # row cycle: ACT -> ACT, same bank
    tRCD: int = 24   # ACT -> READ
    tCL: int = 24    # READ -> first data
    tRP: int = 24    # PRE -> ACT
    tBL: int = 4     # burst length on the bus (BL8 at DDR)
    tCCD_S: int = 4  # READ -> READ, different bank group
    tCCD_L: int = 8  # READ -> READ, same bank group
    tRRD_S: int = 4  # ACT -> ACT, different bank group
    tRRD_L: int = 6  # ACT -> ACT, same bank group
    tFAW: int = 26   # four-activate window

    def __post_init__(self) -> None:
        fields = dataclasses.asdict(self)
        for key, value in fields.items():
            if key in ("name",):
                continue
            if value <= 0:
                raise ValueError(f"{self.name}: {key} must be positive")
        if self.tCCD_L < self.tCCD_S:
            raise ValueError(f"{self.name}: tCCD_L must be >= tCCD_S")
        if self.tRRD_L < self.tRRD_S:
            raise ValueError(f"{self.name}: tRRD_L must be >= tRRD_S")
        if self.tRC < self.tRCD:
            raise ValueError(f"{self.name}: tRC must cover tRCD")

    @property
    def clock_hz(self) -> float:
        """Controller clock (half the data rate for DDR)."""
        return self.data_rate / 2

    @property
    def tCK(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.clock_hz

    def cycles_to_seconds(self, cycles: float) -> float:
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        return cycles * self.tCK


@dataclasses.dataclass(frozen=True)
class DIMMGeometry:
    """Physical organisation of one DIMM (Table II: 32 GB, 4 ranks,
    2 bank groups/rank, 4 banks/bank-group)."""

    capacity_bytes: int = 32 * 2**30
    ranks: int = 4
    bank_groups_per_rank: int = 2
    banks_per_group: int = 4
    row_bytes: int = 8192  # 8 KB row buffer per bank
    bus_bytes: int = 8     # 64-bit data bus
    burst_length: int = 8  # BL8

    def __post_init__(self) -> None:
        for key in (
            "capacity_bytes",
            "ranks",
            "bank_groups_per_rank",
            "banks_per_group",
            "row_bytes",
            "bus_bytes",
            "burst_length",
        ):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")

    @property
    def banks_per_rank(self) -> int:
        return self.bank_groups_per_rank * self.banks_per_group

    @property
    def total_banks(self) -> int:
        return self.banks_per_rank * self.ranks

    @property
    def burst_bytes(self) -> int:
        """Bytes delivered per READ burst (BL8 x 8 bytes = 64 B)."""
        return self.bus_bytes * self.burst_length

    @property
    def bursts_per_row(self) -> int:
        return self.row_bytes // self.burst_bytes

    def peak_bandwidth(self, timing: DDR4Timing) -> float:
        """Peak data-bus bandwidth of one rank interface (bytes/s)."""
        return timing.data_rate * self.bus_bytes

    @property
    def internal_paths(self) -> int:
        """Independent datapaths the center buffer can drain in parallel.

        Center-buffer NDP designs (TensorDIMM/RecNMP-style, cited by the
        paper §IV-A1) route each rank x bank-group through its own lane on
        the buffer chip, so internal parallelism is ranks x bank-groups.
        """
        return self.ranks * self.bank_groups_per_rank
