"""Hermes-base: the NDP-DIMM machine *without* activation sparsity (§V-B1).

A straightforward NDP-extended system: whole layers whose weights fit in
GPU memory compute on the GPU; the remaining layers compute densely on the
NDP-DIMMs where their weights live (sharded across the pool); all attention
runs on the NDP-DIMMs.  No predictor, no hot/cold partition, no migration.
Weight traffic never crosses PCIe during decode — only activations do —
which is why even this naive design beats PCIe-bound offloading, and why
the gap between it and full Hermes isolates the value of sparsity.
"""

from __future__ import annotations

from ..core.engine import GPU_RESERVE_BYTES
from ..core.result import RunResult
from ..sparsity import ActivationTrace
from .base import OffloadingSystem


class HermesBase(OffloadingSystem):
    """NDP-DIMM offloading without sparsity.

    Without Hermes' neuron mapper, layer weights are placed by the host's
    page-granular channel interleaving, which stripes a layer across the
    memory *channels* (4 on the reference platform) rather than across all
    DIMMs — so a dense NDP layer engages ``stripe_dimms`` NDP cores, not
    the whole pool.  Attention shards by KV head across every DIMM, which
    needs no fine-grained placement.
    """

    name = "Hermes-base"
    stripe_dimms = 4

    def gpu_resident_layers(self) -> int:
        """Number of leading layers whose full weights fit on the GPU."""
        model = self.model
        usable = (self.machine.gpu.memory_bytes - model.embedding_bytes
                  - GPU_RESERVE_BYTES)
        if usable <= 0:
            return 0
        return min(model.num_layers, int(usable // model.layer_bytes))

    def run(self, trace: ActivationTrace, batch: int = 1) -> RunResult:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        model = self.model
        machine = self.machine
        result = self.make_result(batch, trace)
        n_gpu_layers = self.gpu_resident_layers()
        n_dimms = machine.num_dimms
        heads_per_dimm = -(-model.num_heads // n_dimms)

        prefill = self.gpu_prefill_time(
            trace.prompt_len,
            batch,
            resident_fraction=n_gpu_layers / model.num_layers,
        )
        kv_prompt = model.kv_bytes_total(trace.prompt_len, batch)
        kv_push = machine.pcie.transfer_time(kv_prompt)
        result.prefill_time = prefill + kv_push
        result.add("prefill", prefill)
        result.add("communication", kv_push)

        decode = 0.0
        for step in range(trace.n_decode_tokens):
            context = trace.prompt_len + step + 1
            token = 0.0
            for l in range(model.num_layers):
                if l < n_gpu_layers:
                    # dense FC blocks (QKV + projection + MLP) on the GPU
                    t_fc = machine.gpu.matmul_time(
                        model.sparse_bytes_per_layer, batch)
                    t_proj = machine.gpu.matmul_time(
                        model.dense_bytes_per_layer, batch
                    )
                    result.add("fc", t_fc)
                    result.add("projection", t_proj)
                    token += t_fc + t_proj + 2 * machine.sync_latency
                    result.add("others", 2 * machine.sync_latency)
                else:
                    # dense FC blocks striped across one channel group
                    stripe = min(self.stripe_dimms, n_dimms)
                    shard = (model.sparse_bytes_per_layer
                             + model.dense_bytes_per_layer) / stripe
                    t_fc = machine.dimm.gemv_time(shard, batch)
                    result.add("fc", t_fc)
                    token += t_fc
                kv_bytes = 2 * model.kv_dim * 2 * context * batch
                t_attn = machine.dimm.attention_time(
                    kv_bytes / n_dimms, context, heads_per_dimm, batch
                )
                result.add("attention", t_attn)
                token += t_attn
            decode += token
        result.decode_time = decode
        result.metadata["gpu_resident_layers"] = n_gpu_layers
        return result
