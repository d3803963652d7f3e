"""Analytic GPU timing model.

The paper measures GPU kernels on real hardware with Nsight Compute; here we
substitute a roofline model parameterised by the public spec-sheet numbers
the paper itself quotes (§V-A1, §V-E2).  Token generation is dominated by
GEMV/skinny-GEMM kernels, which are memory-bandwidth bound until the batch
size pushes arithmetic intensity past the machine balance point — exactly the
regime structure the roofline captures.

Two efficiency knobs keep the model honest:

* ``bandwidth_efficiency`` — achievable fraction of peak DRAM bandwidth for
  streaming kernels (~80 % is typical of tuned GEMV kernels).
* ``gather_efficiency`` — additional derating when the kernel gathers
  *scattered* hot-neuron rows rather than a contiguous matrix.  Hot rows are
  copied into a packed buffer on migration, so the penalty is mild.
"""

from __future__ import annotations

import dataclasses

import numpy as np

GIB = 2**30


@dataclasses.dataclass(frozen=True)
class GPUSpec:
    """A consumer- or server-grade GPU, as characterised in the paper."""

    name: str
    memory_bytes: int
    memory_bandwidth: float  # bytes/s
    fp16_tflops: float  # shader FP16 TFLOPS
    tensor_tops: float  # tensor-core FP16 TOPS
    kernel_launch_overhead: float = 5e-6  # seconds per kernel
    bandwidth_efficiency: float = 0.80
    gather_efficiency: float = 0.85
    compute_efficiency: float = 0.55  # achieved fraction of peak tensor TOPS

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0 or self.memory_bandwidth <= 0:
            raise ValueError(f"{self.name}: memory spec must be positive")
        if self.fp16_tflops <= 0 or self.tensor_tops <= 0:
            raise ValueError(f"{self.name}: compute spec must be positive")
        for field in (
            "bandwidth_efficiency", "gather_efficiency", "compute_efficiency"
        ):
            value = getattr(self, field)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{self.name}: {field} must lie in (0, 1]")

    # ------------------------------------------------------------------
    @property
    def effective_bandwidth(self) -> float:
        return self.memory_bandwidth * self.bandwidth_efficiency

    @property
    def effective_flops(self) -> float:
        return self.tensor_tops * 1e12 * self.compute_efficiency

    # ------------------------------------------------------------------
    def matmul_time(self, weight_bytes: float, batch: int = 1, *,
                    scattered: bool = False) -> float:
        """Time for a weight-stationary (GEMV / skinny-GEMM) kernel.

        ``weight_bytes`` is the FP16 weight traffic; activations are tiny in
        decode and are ignored.  ``batch`` scales FLOPs but not weight bytes
        (weights are reused across the batch), which is what makes batched
        decode progressively compute-bound.
        """
        if weight_bytes < 0:
            raise ValueError("weight_bytes must be non-negative")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if weight_bytes == 0:
            return 0.0
        bandwidth = self.effective_bandwidth
        if scattered:
            bandwidth *= self.gather_efficiency
        flops = weight_bytes * batch  # 2 FLOPs per 2-byte FP16 weight
        t_memory = weight_bytes / bandwidth
        t_compute = flops / self.effective_flops
        return max(t_memory, t_compute) + self.kernel_launch_overhead

    def matmul_time_batch(
        self,
        weight_bytes: np.ndarray,
        batch: int = 1,
        *,
        scattered: bool = False,
    ) -> np.ndarray:
        """Vectorized :meth:`matmul_time` over a float64 array of byte
        counts.

        Scalar-preserving: each element matches the scalar path bit-for-bit
        (including the exactly-zero fast path, which skips the kernel-launch
        overhead).  The loads are not scanned for negative values: the
        decode step calls this every token with loads that are
        non-negative by construction.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        bandwidth = self.effective_bandwidth
        if scattered:
            bandwidth *= self.gather_efficiency
        t_memory = weight_bytes / bandwidth
        t_compute = weight_bytes * batch / self.effective_flops
        times = np.maximum(t_memory, t_compute) + self.kernel_launch_overhead
        # exactly-zero loads cost exactly 0.0, as in the scalar path
        times *= weight_bytes != 0
        return times

    def attention_time(self, kv_bytes: float) -> float:
        """Decode attention over a resident KV cache (bandwidth bound)."""
        if kv_bytes < 0:
            raise ValueError("kv_bytes must be non-negative")
        if kv_bytes == 0:
            return 0.0
        return (
            kv_bytes / self.effective_bandwidth + self.kernel_launch_overhead
        )

    def prefill_time(
        self, weight_bytes: float, prompt_len: int, batch: int = 1
    ) -> float:
        """Prefill one full forward pass over ``prompt_len`` tokens.

        Prefill is compute-bound GEMM; weights are read once.
        """
        if prompt_len < 1:
            raise ValueError("prompt_len must be >= 1")
        flops = weight_bytes * prompt_len * batch
        t_compute = flops / self.effective_flops
        t_memory = weight_bytes / self.effective_bandwidth
        return max(t_compute, t_memory)


def _gpu(
    name: str, mem_gib: float, bw_gbs: float, fp16: float, tops: float
) -> GPUSpec:
    return GPUSpec(
        name=name,
        memory_bytes=int(mem_gib * GIB),
        memory_bandwidth=bw_gbs * 1e9,
        fp16_tflops=fp16,
        tensor_tops=tops,
    )


#: Consumer GPU used by the main Hermes configuration (§V-A1).
RTX_4090 = _gpu("RTX 4090", 24, 936, 82.6, 330)
#: Sensitivity-study GPUs (§V-E2).
RTX_3090 = _gpu("RTX 3090", 24, 936, 35.6, 142)
TESLA_T4 = _gpu("Tesla T4", 16, 320, 65.0, 65)
#: Server GPU backing the TensorRT-LLM comparison (§V-F).
A100_40GB = _gpu("A100-40GB-SXM4", 40, 1555, 78.0, 312)

GPU_REGISTRY: dict[str, GPUSpec] = {
    gpu.name.lower(): gpu for gpu in (RTX_4090, RTX_3090, TESLA_T4, A100_40GB)
}


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU by (case-insensitive) name."""
    try:
        return GPU_REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(GPU_REGISTRY))
        raise KeyError(f"unknown GPU {name!r}; known GPUs: {known}") from None
