"""Run results shared by Hermes and every baseline system.

The paper reports end-to-end generation speed in tokens/s (batch x decoded
tokens over wall time, §V-A4) and latency breakdowns by operator class
(Fig. 12: FC, attention, predictor, prefill, communication, others).  Every
simulated system returns a :class:`RunResult` with those exact categories so
the experiment harness can print paper-shaped rows.
"""

from __future__ import annotations

import dataclasses
import math

#: breakdown categories used in Fig. 12
BREAKDOWN_KEYS = (
    "fc", "attention", "projection", "predictor", "prefill",
    "communication", "others",
)


@dataclasses.dataclass
class RunResult:
    """Timing outcome of one simulated inference run."""

    system: str
    model: str
    batch: int
    prefill_time: float
    decode_time: float
    n_decode_tokens: int
    breakdown: dict[str, float] = dataclasses.field(default_factory=dict)
    metadata: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.n_decode_tokens < 1:
            raise ValueError("n_decode_tokens must be >= 1")
        if self.prefill_time < 0 or self.decode_time <= 0:
            raise ValueError("times must be positive")
        for key in self.breakdown:
            if key not in BREAKDOWN_KEYS:
                raise ValueError(f"unknown breakdown key {key!r}")

    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        return self.prefill_time + self.decode_time

    @property
    def tokens_per_second(self) -> float:
        """End-to-end generation speed (the paper's headline metric)."""
        return self.batch * self.n_decode_tokens / self.total_time

    @property
    def decode_tokens_per_second(self) -> float:
        """Token-generation-stage speed, excluding prefill."""
        return self.batch * self.n_decode_tokens / self.decode_time

    @property
    def decode_latency_per_token(self) -> float:
        """Mean per-step decode latency in seconds."""
        return self.decode_time / self.n_decode_tokens

    # ------------------------------------------------------------------
    def add(self, key: str, seconds: float) -> None:
        """Accumulate ``seconds`` into a breakdown category."""
        if key not in BREAKDOWN_KEYS:
            raise ValueError(f"unknown breakdown key {key!r}")
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self.breakdown[key] = self.breakdown.get(key, 0.0) + seconds

    def breakdown_fractions(self) -> dict[str, float]:
        """Each category as a fraction of total accounted time."""
        total = math.fsum(self.breakdown.values())
        if total <= 0:
            raise ValueError("no breakdown recorded")
        return {k: v / total for k, v in self.breakdown.items()}

    def speedup_over(self, other: "RunResult") -> float:
        """Throughput ratio of self over ``other`` (same workload)."""
        if (other.model != self.model or other.batch != self.batch
                or other.n_decode_tokens != self.n_decode_tokens):
            raise ValueError("speedup requires identical workloads")
        return self.tokens_per_second / other.tokens_per_second
