"""DDR4 timing and closed-form bandwidth of the NDP-DIMM pool (Table II).

The cycle-level controller that validates these closed forms is a test
oracle and lives beside its tests (``tests/dram_controller.py``).
"""

from .timing import DDR4Timing, DIMMGeometry
from .bandwidth import (
    channel_stream_bandwidth,
    internal_stream_bandwidth,
    lane_bandwidth,
    scattered_access_efficiency,
)

__all__ = [
    "DDR4Timing",
    "DIMMGeometry",
    "channel_stream_bandwidth",
    "internal_stream_bandwidth",
    "lane_bandwidth",
    "scattered_access_efficiency",
]
