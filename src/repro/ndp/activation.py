"""Activation unit of the NDP core (paper §IV-A1).

Supports the non-linear operators LLM inference needs on the DIMM side:
ReLU on FC outputs and softmax inside attention.  The unit comprises 256
FP16 exponentiation units, 256 adders and 256 multipliers plus a comparator
tree, an adder tree and a divider.  Softmax over ``n`` logits is therefore a
four-pass streaming operation (max, exp, sum, divide) at 256 lanes/cycle,
with log-depth tree reductions folded into the passes.
"""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class ActivationUnit:
    """Timing model of the non-linear function unit."""

    lanes: int = 256
    frequency: float = 1e9  # Hz
    #: pipeline passes for softmax: max-scan, exp, sum-scan, divide
    softmax_passes: int = 4

    def __post_init__(self) -> None:
        if self.lanes <= 0 or self.frequency <= 0:
            raise ValueError("activation unit spec must be positive")
        if self.softmax_passes <= 0:
            raise ValueError("softmax_passes must be positive")

    def relu_time(self, n_values: int) -> float:
        """Elementwise ReLU over ``n_values`` FP16 values."""
        if n_values < 0:
            raise ValueError("n_values must be non-negative")
        cycles = math.ceil(n_values / self.lanes)
        return cycles / self.frequency

    def softmax_time(self, n_values: int) -> float:
        """Numerically-stable softmax over ``n_values`` logits."""
        if n_values < 0:
            raise ValueError("n_values must be non-negative")
        if n_values == 0:
            return 0.0
        stream_cycles = math.ceil(n_values / self.lanes) * self.softmax_passes
        tree_cycles = 2 * max(1, math.ceil(math.log2(max(2, self.lanes))))
        return (stream_cycles + tree_cycles) / self.frequency

    def attention_softmax_time(
        self, context_len: int, num_heads: int, batch: int = 1
    ) -> float:
        """Softmax cost of one decode attention step on this DIMM."""
        if context_len < 0 or num_heads <= 0 or batch < 1:
            raise ValueError("invalid attention softmax arguments")
        return self.softmax_time(context_len) * num_heads * batch
