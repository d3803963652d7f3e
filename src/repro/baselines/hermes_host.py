"""Hermes-host: hot/cold partition with CPU-side cold compute (§V-A2).

The PowerInfer-style ablation of the NDP design: identical hot/cold neuron
partition, predictor and online adjustment as Hermes, but cold neurons are
*computed by the host CPU* out of commodity DIMMs instead of by NDP units
inside them.  The cold path is therefore bounded by the host memory bus
(89.6 GB/s on the reference i9-13900K) rather than by the DIMM-internal
aggregate (~0.8 TB/s for 8 DIMMs) — the gap that motivates NDP-DIMMs.

The KV cache stays on the GPU and attention runs there (PowerInfer's
configuration [53], which the paper follows for this baseline).
"""

from __future__ import annotations

from ..core.engine import (
    GPU_RESERVE_BYTES,
    HermesConfig,
    batch_union_factor,
    hermes_gpu_hot_budget,
)
from ..core.mapper import NeuronMapper
from ..core.partition import PartitionCosts, solve_partition
from ..core.predictor import ActivationPredictor, PredictorConfig
from ..core.result import RunResult
from ..sparsity import ActivationTrace
from .base import OffloadingSystem


class HermesHost(OffloadingSystem):
    """Hot neurons on the GPU, cold neurons on the host CPU."""

    name = "Hermes-host"
    #: CPU<->GPU coordination cost per hybrid FC block: kernel handoff,
    #: activation staging and completion polling (PowerInfer-class hybrid
    #: executors measure a few hundred microseconds per layer block).
    hybrid_sync = 250e-6

    def __init__(
        self, machine, model, config: HermesConfig | None = None
    ) -> None:
        super().__init__(machine, model)
        self.config = config or HermesConfig()

    # ------------------------------------------------------------------
    @property
    def gpu_hot_budget(self) -> int:
        """GPU bytes for hot neurons after dense weights, embeddings and a
        KV/workspace reserve (the KV cache lives on the GPU here): Hermes'
        budget less a second :data:`GPU_RESERVE_BYTES`."""
        budget = (hermes_gpu_hot_budget(self.machine, self.model)
                  - GPU_RESERVE_BYTES)
        if budget <= 0:
            raise ValueError(
                f"{self.machine.gpu.name} cannot hold the dense weights of "
                f"{self.model.name}")
        return budget

    def run(self, trace: ActivationTrace, batch: int = 1) -> RunResult:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        cfg = self.config
        model = self.model
        machine = self.machine
        layout = trace.layout
        result = self.make_result(batch, trace)

        freqs = trace.prefill_frequencies()
        costs = PartitionCosts(
            gpu_seconds_per_byte=1.0 / machine.gpu.effective_bandwidth,
            dimm_seconds_per_byte=1.0 / machine.host_bandwidth,
            sync_seconds=machine.sync_latency,
            num_dimms=1,  # the host CPU is a single cold executor
            gpu_budget_bytes=self.gpu_hot_budget,
            dimm_capacity_bytes=machine.dimm_capacity_total,
        )
        partition = solve_partition(
            freqs,
            layout,
            costs,
            strategy=cfg.partition_strategy,
            seed=trace.seed,
        )
        mapper = NeuronMapper(layout, costs.gpu_budget_bytes)
        mapper.initialize(partition)
        predictor = ActivationPredictor(layout, PredictorConfig(
            use_token_prediction=cfg.token_prediction,
            use_layer_prediction=cfg.layer_prediction))
        predictor.initialize(trace)
        union = batch_union_factor(freqs, batch)[:, None]

        prefill = self.gpu_prefill_time(
            trace.prompt_len, batch, self.resident_fraction()
        )
        hot_load = machine.pcie.transfer_time(partition.gpu_bytes(layout))
        result.prefill_time = prefill + hot_load
        result.add("prefill", prefill)
        result.add("communication", hot_load)

        block_bytes = layout.block_bytes()
        t_proj = machine.gpu.matmul_time(model.dense_bytes_per_layer, batch)
        t_pred = predictor.predictor_overhead_seconds()
        decode = 0.0
        for step, t in enumerate(trace.decode_tokens()):
            context = trace.prompt_len + step + 1
            actuals = trace.active_matrix(t)
            predicted = predictor.predict_all(actuals)
            on_gpu = predicted & mapper.resident
            # predicted-but-cold groups, and the false negatives the CPU
            # computes late: (pred & ~res) | (act & ~pred)
            on_cpu = (predicted | actuals) ^ on_gpu
            gpu_bytes = ((on_gpu @ block_bytes) * union).tolist()
            cpu_bytes = ((on_cpu @ block_bytes) * union).tolist()
            kv_bytes = 2 * model.kv_dim * 2 * context * batch
            t_attn = machine.gpu.attention_time(kv_bytes)
            token = 0.0
            for gpu_b, cpu_b in zip(gpu_bytes, cpu_bytes):
                fc_time = 0.0
                for g, c in zip(gpu_b, cpu_b):
                    t_gpu = machine.gpu.matmul_time(g, batch, scattered=True)
                    t_cpu = machine.host.gemv_time(c, batch)
                    # GPU and CPU halves run concurrently; merge on GPU
                    fc_time += max(t_gpu, t_cpu) + self.hybrid_sync
                result.add("fc", fc_time)
                result.add("attention", t_attn)
                result.add("projection", t_proj)
                result.add("predictor", t_pred)
                token += fc_time + t_attn + t_proj + t_pred
            if cfg.online_adjustment:
                # the projection window caps each layer's swap bytes, so
                # the swaps add nothing to the token's time
                mapper.swap_token(predictor.states, cfg.hot_threshold,
                                  t_proj, machine.pcie.effective_bandwidth)
            predictor.observe_all(actuals, predicted)
            decode += token
        result.decode_time = decode
        result.metadata["predictor_accuracy"] = (
            predictor.stats.accuracy if predictor.stats.total else None
        )
        return result
