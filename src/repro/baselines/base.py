"""Shared scaffolding for the offloading-based baseline systems (§V-A2).

Every baseline runs on the same :class:`~repro.hardware.system.Machine` and
consumes the same :class:`~repro.sparsity.trace.ActivationTrace` as Hermes;
what differs is each system's *data-movement schedule* — which bytes cross
PCIe, which stay on the GPU, and what overlaps with what.  The paper's
comparisons are dominated by exactly those schedules, so the baselines model
them faithfully and share the byte-accounting helpers defined here.

The byte accounting is exposed twice:

* as **module-level per-token cost kernels** (``weights_resident_fraction``,
  ``zigzag_prefill_time``, ``streamed_dense_token_cost``,
  ``gpu_kv_attention_time``, ``gather_stream_bandwidth``) — pure functions
  of (machine, model, token state) that the *steppable* serving backends
  (:mod:`repro.serving.backends`) charge one decode iteration at a time;
* as :class:`OffloadingSystem` methods delegating to those kernels, which
  each offline ``run()`` composes into a whole prefill+decode pass.

Both layers share one spelling of every formula, so the offline figures
(fig09) and the online serving backends cannot drift apart.  Every
kernel streams over the machine's own pinned PCIe link; the one system
that copies from pageable memory (HuggingFace Accelerate) builds that
slower link itself.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from ..core.engine import batch_union_factor
from ..core.result import RunResult
from ..hardware import Machine
from ..models import ModelSpec
from ..sim import overlap_two_stage
from ..sparsity import ActivationTrace

GIB = 2**30


# ----------------------------------------------------------------------
# per-token cost kernels (pure functions; steppable backends call these)
# ----------------------------------------------------------------------
def weights_resident_fraction(machine: Machine, model: ModelSpec, *,
                              reserve_bytes: int = 1 * GIB) -> float:
    """Fraction of the layer weights that fits in GPU memory.

    Embeddings and the KV cache claim GPU space first (these systems
    keep the KV cache on the GPU); layer weights fill the rest.
    """
    usable = machine.gpu.memory_bytes - reserve_bytes
    usable -= model.embedding_bytes
    layer_pool = model.layer_bytes * model.num_layers
    if usable <= 0:
        return 0.0
    return min(1.0, usable / layer_pool)


def zigzag_prefill_time(
    machine: Machine,
    model: ModelSpec,
    prompt_len: int,
    batch: int,
    resident_fraction: float,
) -> float:
    """Prefill with layer-by-layer weight streaming over PCIe."""
    transfer, compute = [], []
    for _ in range(model.num_layers):
        stream = model.layer_bytes * (1.0 - resident_fraction)
        transfer.append(machine.pcie.transfer_time(stream))
        compute.append(
            machine.gpu.prefill_time(model.layer_bytes, prompt_len, batch)
        )
    return overlap_two_stage(transfer, compute)


def streamed_dense_token_cost(
    machine: Machine,
    model: ModelSpec,
    batch: int,
    *,
    resident_fraction: float = 0.0,
    link_utilisation: float = 1.0,
    per_layer_overhead: float = 0.0,
) -> tuple[float, float]:
    """One dense decode token with zig-zag weight streaming.

    Per layer, the PCIe stream of the next layer's non-resident weights
    overlaps this layer's GPU compute (FlexGen's block schedule at batch
    size 1..16 — transfer-bound for over-sized models).  Returns
    ``(pipeline_seconds, transfer_only_seconds)`` so callers can split
    the communication/compute breakdown the way the figures do.
    """
    stream_bytes = model.layer_bytes * (1.0 - resident_fraction)
    link_bw = machine.pcie.effective_bandwidth * link_utilisation
    transfers, computes = [], []
    for _ in range(model.num_layers):
        transfers.append(machine.pcie.latency + stream_bytes / link_bw)
        computes.append(machine.gpu.matmul_time(model.layer_bytes, batch)
                        + per_layer_overhead)
    pipeline = overlap_two_stage(transfers, computes)
    return pipeline, math.fsum(transfers)


def resident_dense_token_cost(
    machine: Machine, model: ModelSpec, batch: int
) -> float:
    """One dense decode token with *all* weights GPU-resident.

    The TensorRT-style regime: every layer's FC weights are read at HBM
    bandwidth, no PCIe traffic at all (attention is charged separately).
    """
    token = 0.0
    for _ in range(model.num_layers):
        token += machine.gpu.matmul_time(model.layer_bytes, batch)
    return token


def gpu_kv_attention_time(
    machine: Machine, model: ModelSpec, context: int, batch: int
) -> float:
    """Decode attention over a GPU-resident KV cache."""
    kv_bytes = 2 * model.kv_dim * 2 * context * batch
    return machine.gpu.attention_time(kv_bytes * model.num_layers)


def hermes_gpu_hot_budget(
    machine: Machine, model: ModelSpec, *, reserve_bytes: int = 1 * GIB
) -> int:
    """GPU bytes left for Hermes' hot-neuron region (may be <= 0).

    Mirrors :attr:`repro.core.HermesSystem.gpu_hot_budget` — dense
    projection weights and embeddings pin GPU memory first, then the
    workspace reserve — as a pure kernel the capacity planner can
    evaluate without constructing an engine.
    """
    static = (
        model.dense_bytes_per_layer * model.num_layers
        + model.embedding_bytes
    )
    return machine.gpu.memory_bytes - static - reserve_bytes


def hermes_memory_feasible(
    machine: Machine, model: ModelSpec, *, reserve_bytes: int = 1 * GIB
) -> tuple[bool, str]:
    """(fits, reason) — can a Hermes machine even host ``model``?

    The exact pair of capacity checks that make
    :class:`repro.core.HermesSystem` construction (DIMM pool) and
    session setup (GPU hot budget) raise, spelled as a pure kernel so
    the planner can discard a candidate fleet analytically instead of
    catching engine exceptions.
    """
    required = model.total_weight_bytes - model.embedding_bytes
    if not machine.fits_on_dimms(required):
        return False, (
            f"needs {required / GIB:.0f} GiB of DIMM capacity; the pool "
            f"has {machine.dimm_capacity_total / GIB:.0f} GiB"
        )
    if hermes_gpu_hot_budget(machine, model,
                             reserve_bytes=reserve_bytes) <= 0:
        return False, (
            f"{machine.gpu.name} cannot hold the dense weights of "
            f"{model.name}"
        )
    return True, ""


def streamed_token_transfer_floor(
    machine: Machine, model: ModelSpec, resident_fraction: float
) -> float:
    """Hard PCIe lower bound on one streamed dense decode token.

    The transfer legs of :func:`streamed_dense_token_cost` alone — no
    pipeline can finish a token before its non-resident weights have
    crossed the link, so ``batch / floor`` is a *sound* upper bound on
    a streamed backend's tokens/sec at any batch size.
    """
    stream_bytes = model.layer_bytes * (1.0 - resident_fraction)
    per_layer = (
        machine.pcie.latency
        + stream_bytes / machine.pcie.effective_bandwidth
    )
    return per_layer * model.num_layers


def gather_stream_bandwidth(machine: Machine) -> float:
    """Effective PCIe stream rate of scattered host-memory neuron rows.

    The CPU gathers non-contiguous rows (scattered reads at
    ``scatter_efficiency``) into a pinned staging buffer (a second write
    pass) before the DMA, so the gather pipeline — not PCIe — usually
    bounds the stream.
    """
    bus = machine.host.memory_bus.effective_bandwidth
    gather_bw = bus * machine.host.scatter_efficiency / 2
    return min(machine.pcie.effective_bandwidth, gather_bw)


def trace_union_factors(trace: ActivationTrace, batch: int) -> np.ndarray:
    """Per-layer batch-union inflation of the activated set."""
    return np.array([
        batch_union_factor(trace.prefill_frequencies(l), batch)
        for l in range(trace.num_layers)
    ])


class OffloadingSystem(abc.ABC):
    """Base class: a model deployed on a machine with host-memory backing."""

    name = "offloading"

    def __init__(self, machine: Machine, model: ModelSpec) -> None:
        self.machine = machine
        self.model = model

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def run(self, trace: ActivationTrace, batch: int = 1) -> RunResult:
        """Simulate one prefill + decode pass."""

    # ------------------------------------------------------------------
    def resident_fraction(self, *, reserve_bytes: int = 1 * GIB) -> float:
        """Fraction of the weights that fits in GPU memory."""
        return weights_resident_fraction(
            self.machine, self.model, reserve_bytes=reserve_bytes
        )

    def gpu_prefill_time(
        self, prompt_len: int, batch: int, resident_fraction: float
    ) -> float:
        """Prefill with layer-by-layer weight streaming over PCIe."""
        return zigzag_prefill_time(
            self.machine, self.model, prompt_len, batch, resident_fraction
        )

    def gpu_attention_time(self, context: int, batch: int) -> float:
        """Decode attention over a GPU-resident KV cache."""
        return gpu_kv_attention_time(self.machine, self.model, context, batch)

    # ------------------------------------------------------------------
    def union_factors(self, trace: ActivationTrace,
                      batch: int) -> np.ndarray:
        """Per-layer batch-union inflation of the activated set."""
        return trace_union_factors(trace, batch)

    def make_result(self, batch: int, trace: ActivationTrace) -> RunResult:
        return RunResult(
            system=self.name,
            model=self.model.name,
            batch=batch,
            prefill_time=1e-12,
            decode_time=1e-12,
            n_decode_tokens=max(1, trace.n_decode_tokens),
        )
