"""TensorRT-LLM reference: 5x A100 tensor parallelism (paper §V-F).

The high-performance (and high-budget: ~$50 000 vs Hermes' ~$2 500)
comparison point.  Weights are sharded tensor-parallel across ``num_gpus``
A100-40GB-SXM4 GPUs connected by NVLink; each decode step reads the local
weight shard at HBM bandwidth and pays two all-reduces per layer.
"""

from __future__ import annotations

import dataclasses

from ..core.result import RunResult
from ..hardware import A100_40GB, GPUSpec
from ..models import ModelSpec
from ..sparsity import ActivationTrace

#: NVLink3 all-reduce effective bandwidth per GPU pair direction
NVLINK_BANDWIDTH = 300e9
#: collective launch latency per all-reduce
ALLREDUCE_LATENCY = 12e-6


@dataclasses.dataclass(frozen=True)
class TensorRTLLM:
    """Tensor-parallel dense serving on server GPUs."""

    model: ModelSpec
    num_gpus: int = 5
    gpu: GPUSpec = A100_40GB

    name = "TensorRT-LLM"

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        need = self.model.total_weight_bytes
        have = self.num_gpus * self.gpu.memory_bytes
        if need > have:
            raise ValueError(
                f"{self.model.name} needs {need / 2**30:.0f} GiB but "
                f"{self.num_gpus}x {self.gpu.name} provide "
                f"{have / 2**30:.0f} GiB")

    def _allreduce_time(self, batch: int) -> float:
        """Ring all-reduce of one hidden-sized activation tensor."""
        payload = self.model.hidden_size * 2 * batch
        ring_factor = 2.0 * (self.num_gpus - 1) / self.num_gpus
        return ALLREDUCE_LATENCY + payload * ring_factor / NVLINK_BANDWIDTH

    def layer_costs(
        self, context: int, batch: int
    ) -> tuple[float, float, float]:
        """One decode layer's ``(fc, communication, attention)`` costs.

        The steppable core: each GPU reads its local weight shard at HBM
        bandwidth, pays two all-reduces, and attends over its slice of
        the KV cache.  Pure function of (context, batch); the offline
        ``run()`` loop charges exactly this (no serving backend does).
        """
        model = self.model
        shard = model.layer_bytes / self.num_gpus
        t_fc = self.gpu.matmul_time(shard, batch)
        t_comm = 2 * self._allreduce_time(batch)
        kv_bytes = 2 * model.kv_dim * 2 * context * batch
        t_attn = self.gpu.attention_time(kv_bytes / self.num_gpus)
        return t_fc, t_comm, t_attn

    def run(self, trace: ActivationTrace, batch: int = 1) -> RunResult:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        model = self.model
        result = RunResult(
            system=self.name,
            model=model.name,
            batch=batch,
            prefill_time=1e-12,
            decode_time=1e-12,
            n_decode_tokens=max(1, trace.n_decode_tokens),
        )

        # prefill: compute-bound dense GEMM across all GPUs
        shard = model.layer_bytes / self.num_gpus
        prefill = 0.0
        for _ in range(model.num_layers):
            prefill += self.gpu.prefill_time(shard, trace.prompt_len, batch)
            prefill += 2 * self._allreduce_time(batch) * trace.prompt_len
        result.prefill_time = prefill
        result.add("prefill", prefill)

        decode = 0.0
        for step in range(trace.n_decode_tokens):
            context = trace.prompt_len + step + 1
            token = 0.0
            for _ in range(model.num_layers):
                t_fc, t_comm, t_attn = self.layer_costs(context, batch)
                token += t_fc + t_comm + t_attn
                result.add("fc", t_fc)
                result.add("communication", t_comm)
                result.add("attention", t_attn)
            decode += token
        result.decode_time = decode
        return result
