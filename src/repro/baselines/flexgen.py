"""FlexGen-style zig-zag offloading baseline (§II-C, §V-A2).

FlexGen pins host weight buffers and overlaps the PCIe stream of layer
``i+1`` with the compute of layer ``i`` (the zig-zag block schedule).  That
schedule shines when a large token block amortises each weight fetch, but
local deployment uses small batches (§II-C): with a handful of tokens per
block, decode is transfer-bound and the pipeline degenerates to the PCIe
stream time of the non-resident weights.

Calibration notes: FlexGen's decode-time transfers move many medium-sized
tensors per layer and reach roughly ``DECODE_LINK_UTILISATION`` of the
pinned-link bandwidth (the FlexGen paper's own profiling shows decode
utilisation well below the prefill stream); the KV cache is offloaded to
host memory and attention runs on the CPU, paying the host-memory-bus scan.
"""

from __future__ import annotations

from ..core.result import RunResult
from ..sparsity import ActivationTrace
from .base import OffloadingSystem, streamed_dense_token_cost

#: achieved fraction of pinned PCIe bandwidth during decode
DECODE_LINK_UTILISATION = 0.45
#: per-layer scheduling overhead of the block pipeline
SCHEDULE_OVERHEAD = 0.5e-3


class FlexGen(OffloadingSystem):
    """Zig-zag overlapped offloading with CPU-resident KV cache."""

    name = "FlexGen"

    # FlexGen's local-deployment policy places the weight pool in host
    # memory wholesale (w_gpu_percent=0): GPU memory is reserved for
    # the block's activations and the compute double-buffers, which is
    # what lets the same policy file serve every model size.
    resident = 0.0

    def token_cost(
        self, context: int, batch: int
    ) -> tuple[float, float, float]:
        """One decode token's ``(pipeline, transfer_only, attention)``.

        The steppable core: per layer, transfer(next layer) overlaps
        compute(this layer); attention scans the host-resident KV cache
        on the CPU.  Pure function of (context, batch) — ``run()``
        composes it into the offline pass.  No FlexGen serving backend
        is registered, so nothing else charges it.
        """
        machine = self.machine
        model = self.model
        pipeline, transfer_only = streamed_dense_token_cost(
            machine,
            model,
            batch,
            resident_fraction=self.resident,
            link_utilisation=DECODE_LINK_UTILISATION,
            per_layer_overhead=SCHEDULE_OVERHEAD,
        )
        kv_bytes = (2 * model.kv_dim * 2 * context * batch * model.num_layers)
        attn = machine.host.gemv_time(kv_bytes, 1, scattered=False)
        return pipeline, transfer_only, attn

    def run(self, trace: ActivationTrace, batch: int = 1) -> RunResult:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        result = self.make_result(batch, trace)

        # prefill: the zig-zag schedule at its best (large block)
        prefill = self.gpu_prefill_time(trace.prompt_len, batch,
                                        self.resident)
        result.prefill_time = prefill
        result.add("prefill", prefill)

        decode = 0.0
        for step in range(trace.n_decode_tokens):
            context = trace.prompt_len + step + 1
            pipeline, transfer_only, attn = self.token_cost(context, batch)
            decode += pipeline + attn
            result.add("communication", min(pipeline, transfer_only))
            result.add("fc", max(0.0, pipeline - transfer_only))
            result.add("attention", attn)
        result.decode_time = decode
        return result
