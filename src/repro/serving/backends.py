"""Pluggable per-machine serving backends.

The serving/cluster simulators drive every machine through one small
steppable surface — the :class:`ServingBackend` base class — so a fleet
can mix Hermes boxes with the paper's baseline systems (§V-A2) and serve
*identical* traffic through each:

* ``hermes`` — :class:`MachineExecutor`, the NDP-DIMM engine with its
  online control plane (the original and still the default);
* ``dense`` — :class:`DenseGPUBackend`, a TensorRT-like dense-GPU
  machine: when the whole model fits in GPU memory every layer is read
  at HBM bandwidth, otherwise the non-resident fraction streams over
  PCIe per layer (the FlexGen zig-zag pipeline);
* ``dejavu`` — :class:`DejaVuBackend`, Deja-Vu-style contextual
  sparsity with per-step host-memory streaming of the predicted neuron
  rows (PCIe stays the bottleneck, but sparsity shrinks the bytes).

The baseline backends charge the *same per-token cost kernels* their
offline ``run()`` passes are built from (:mod:`repro.baselines.base`),
so online TTFT/TBT numbers and the offline figures cannot drift apart.

Steppable contract (what the simulators actually consume):

``prefill_cost(prompt_len)`` -> (GPU compute, PCIe transfer) seconds
for one joining request; ``decode_step(batch, context)`` -> one
continuous-batching iteration's :class:`~repro.core.StepCost` (the
exact serving loop calls it once per token);
``span_estimate(batch, start_context, steps)`` -> closed-form totals of
a whole decode span (``fidelity: fast`` only);
``mean_union``/``max_union_batch`` -> batch-union batching caps;
``estimated_tokens_per_second()`` -> a pure, deterministic throughput
estimate for load-normalizing routers; ``reset``/``degrade``/
``kv_capacity_tokens`` -> the fault model's restart, renegotiation and
eviction hooks.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from ..baselines.base import (
    gpu_kv_attention_time,
    resident_dense_token_cost,
    streamed_dense_token_cost,
    weights_resident_fraction,
    zigzag_prefill_time,
)
from ..baselines.dejavu import DejaVu
from ..core import HermesSystem, OfflinePartition, StepCost
from ..hardware import Machine
from ..models import ModelSpec
from ..sparsity import ActivationTrace
from .executor import default_serving_trace

#: context length used by the pure throughput probes — long enough to be
#: decode-representative, short enough to stay attention-light
REFERENCE_CONTEXT = 128


class ServingBackend:
    """The steppable per-machine surface the serving simulators consume.

    Subclasses set their registry ``name`` and implement
    ``_step_cost(batch, context)`` (may advance internal cursors),
    ``_prefill_pair(prompt_len)``, and either
    ``_pure_step_seconds(batch, context)`` (must not advance anything)
    or their own :meth:`estimated_step_seconds`; everything else — span
    estimates, prefill memoisation, union batching caps, throughput
    probes, degrade derating — is provided here.
    """

    def __init__(
        self, machine: Machine, model: ModelSpec, *, nominal_batch: int = 8
    ) -> None:
        if nominal_batch < 1:
            raise ValueError("nominal_batch must be >= 1")
        self.machine = machine
        #: pristine hardware — degrades always derate from this
        self._base_machine = machine
        self.model = model
        self.nominal_batch = nominal_batch
        self._prefill_cache: dict[int, tuple[float, float]] = {}
        self._union_batch_cache: dict[tuple[float, int], int] = {}
        self._estimated_step: float | None = None

    # ---- steppable core ----------------------------------------------
    def _step_cost(self, batch: int, context: int) -> StepCost:
        raise NotImplementedError  # pragma: no cover - abstract

    def _pure_step_seconds(self, batch: int, context: int) -> float:
        raise NotImplementedError  # pragma: no cover - abstract

    def _prefill_pair(self, prompt_len: int) -> tuple[float, float]:
        raise NotImplementedError  # pragma: no cover - abstract

    # ---- the serving surface -----------------------------------------
    def decode_step(self, batch: int, context: int) -> StepCost:
        """One continuous-batching decode iteration over ``batch`` seqs."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if context < 1:
            raise ValueError("context must be >= 1")
        return self._step_cost(batch, context)

    def _span_probe(
        self, batch: int, context: int
    ) -> tuple[float, float, float]:
        """One ``(seconds, gpu_busy, dimm_busy)`` probe of
        :meth:`span_estimate` — a plain ``decode_step``."""
        cost = self.decode_step(batch, context)
        return cost.seconds, cost.gpu_busy, cost.dimm_busy

    def span_estimate(
        self, batch: int, start_context: float, steps: int
    ) -> tuple[float, float, float]:
        """Aggregate ``(seconds, gpu_busy, dimm_busy)`` of a decode span.

        The ``fidelity: fast`` cost kernel: ``steps`` consecutive
        iterations at ``batch`` over the arithmetic context ramp
        starting at ``start_context`` (growing by one per step),
        collapsed to closed-form totals — no per-step arrays, no
        per-step events.  Estimates may differ (slightly) from summing
        ``decode_step``; the tolerance tests pin how much.

        Per-step cost is monotone and near-affine in the context for
        every bundled backend, so ``steps * mean(first, last)`` is a
        tight trapezoid total from just two :meth:`_span_probe` calls
        at the ramp's ends (which advance any internal cursor by two,
        not ``steps`` — that cursor drift is part of what makes fast
        fidelity approximate).  Backends with exactly-affine kernels
        override this with the exact closed form.
        """
        first = self._span_probe(batch, max(1, round(start_context)))
        if steps == 1:
            return first
        last = self._span_probe(
            batch, max(1, round(start_context + steps - 1))
        )
        half = steps / 2.0
        return (
            (first[0] + last[0]) * half,
            (first[1] + last[1]) * half,
            (first[2] + last[2]) * half,
        )

    def prefill_cost(self, prompt_len: int) -> tuple[float, float]:
        """(GPU compute, PCIe transfer) seconds to prefill one request,
        memoised: admission and deadline checks hit the same prompt
        lengths over and over."""
        if prompt_len < 1:
            raise ValueError("prompt_len must be >= 1")
        cost = self._prefill_cache.get(prompt_len)
        if cost is None:
            cost = self._prefill_pair(prompt_len)
            self._prefill_cache[prompt_len] = cost
        return cost

    def prefill_seconds(self, prompt_len: int) -> float:
        """Total latency of prefilling one joining request."""
        compute, transfer = self.prefill_cost(prompt_len)
        return compute + transfer

    def mean_union(self, batch: int) -> float:
        """Mean per-layer batch-union inflation at ``batch`` sequences
        (dense weights: batching inflates no byte traffic)."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return 1.0

    def max_union_batch(self, union_cap: float, limit: int) -> int:
        """Largest batch whose mean union stays under ``union_cap``.

        The union factor is monotone in the batch size and depends only
        on immutable trace frequencies, so the answer is memoised per
        (cap, limit); at least batch 1 is always admitted.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        key = (union_cap, limit)
        best = self._union_batch_cache.get(key)
        if best is None:
            best = 1
            for b in range(2, limit + 1):
                if self.mean_union(b) > union_cap:
                    break
                best = b
            self._union_batch_cache[key] = best
        return best

    def estimated_step_seconds(self) -> float:
        """One decode iteration at the nominal batch (pure, memoised)."""
        if self._estimated_step is None:
            self._estimated_step = self._pure_step_seconds(
                self.nominal_batch, REFERENCE_CONTEXT
            )
        return self._estimated_step

    def estimated_tokens_per_second(self) -> float:
        """Pure, deterministic decode-throughput estimate."""
        return self.nominal_batch / self.estimated_step_seconds()

    def reset(self) -> None:
        """Restart cold after a crash.

        Pure-kernel backends keep no evolving engine state — every memo
        here is deterministic in its key — so the base reset does
        nothing.  Backends with a real cursor override this.
        """

    def degrade(
        self, surviving_dimm_fraction: float, bandwidth_factor: float
    ) -> None:
        """Renegotiate this machine over partially failed hardware.

        ``surviving_dimm_fraction`` of the *pristine* DIMM pool remains
        (at least one DIMM always survives — total loss is a crash, not
        a degrade) and the PCIe link is derated to ``bandwidth_factor``
        of nominal, so ``degrade(1.0, 1.0)`` restores the pristine
        machine.  Cost memos are invalidated, :meth:`_renegotiate`
        rebuilds machine-derived state, and the engine restarts (cursor
        rewind for dejavu) exactly like a crash reset, so a renegotiated
        machine's costs depend only on its new hardware, never on how
        far it had decoded before the degrade.  The streamed backends do
        not touch the NDP-DIMM pool, so a DIMM loss only re-labels the
        machine; a ``bandwidth_factor`` derate is the one that bites —
        every streamed weight byte crosses the slower link from the next
        quoted cost onwards.
        """
        base = self._base_machine
        dimms = max(1, int(base.num_dimms * surviving_dimm_fraction))
        pcie = dataclasses.replace(
            base.pcie, bandwidth=base.pcie.bandwidth * bandwidth_factor
        )
        machine = dataclasses.replace(base, num_dimms=dimms, pcie=pcie)
        if machine == self.machine:
            return
        self.machine = machine
        self._prefill_cache.clear()
        self._union_batch_cache.clear()
        self._estimated_step = None
        self._renegotiate()
        self.reset()

    def _renegotiate(self) -> None:
        """Hook: rebuild machine-derived state after a degrade."""

    def kv_capacity_tokens(self) -> float:
        """The streamed backends keep their KV cache in GPU (dense,
        dejavu) memory, which DIMM/link degrades never shrink — so
        degrade eviction has nothing to evict (``inf``)."""
        return math.inf

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.model.name!r}, "
            f"nominal_batch={self.nominal_batch})"
        )


def _clone_partition(partition: OfflinePartition) -> OfflinePartition:
    """A private mutable copy of a solved partition.

    Window scheduling remaps ``dimm_of`` in place, so the cache keeps a
    pristine clone and every later session gets a clone of it.
    """
    return OfflinePartition(
        hot_masks=partition.hot_masks.copy(),
        dimm_of=partition.dimm_of.copy(),
        strategy=partition.strategy,
    )


def _partition_cache(trace: ActivationTrace) -> dict:
    """Per-trace memo of solved offline partitions.

    Stored on the trace object itself so the cache's lifetime — and the
    identity component of the key — is exactly the trace.  The partition
    is otherwise deterministic in (machine, model, batch), which forms
    the key.
    """
    cache = getattr(trace, "_partition_cache", None)
    if cache is None:
        cache = {}
        trace._partition_cache = cache
    return cache


class MachineExecutor(ServingBackend):
    """One Hermes machine serving a stream of requests.

    Owns one :class:`~repro.core.HermesSystem` and a long-lived
    :class:`~repro.core.HermesSession` opened with ``wrap=True``, so the
    serving simulator can charge *per-request prefill* and *per-token
    decode* costs with a batch size that changes whenever a request
    joins or leaves — the engine's control-plane state (predictor table,
    hot/cold residency, window scheduler) evolves continuously across
    requests, exactly as it would on a machine that never goes idle
    between users.
    """

    name = "hermes"

    def __init__(
        self,
        machine: Machine,
        model: ModelSpec,
        *,
        trace: ActivationTrace | None = None,
        nominal_batch: int = 8,
        granularity: int = 64,
        seed: int = 7,
        probe_store: dict | None = None,
    ) -> None:
        super().__init__(machine, model, nominal_batch=nominal_batch)
        self.system = HermesSystem(machine, model)
        if trace is None:
            trace = default_serving_trace(
                model, granularity=granularity, seed=seed
            )
        self.trace = trace
        #: fast-fidelity probe memo shared by identical machines; the
        #: serving simulator passes one per run (see :meth:`_span_probe`)
        self._probe_store = {} if probe_store is None else probe_store
        self.reset()

    def _step_cost(self, batch: int, context: int) -> StepCost:
        return self.session.decode_step(batch=batch, context=context)

    def _prefill_pair(self, prompt_len: int) -> tuple[float, float]:
        # the hot set stays GPU-resident between requests on a serving
        # machine: prompt compute plus the KV-cache push only
        return self.session.prefill_cost(prompt_len, 1, reload_hot=False)

    def _renegotiate(self) -> None:
        # a new engine over the surviving DIMMs (raises when they can no
        # longer hold the sparse weights); reset re-plans the partition
        self.system = HermesSystem(self.machine, self.model)

    def reset(self) -> None:
        """Restart the machine cold: fresh session, pristine engine state.

        Fault injection calls this when a crashed machine comes back up.
        The predictor table, hot/cold residency, window-scheduler remaps
        and trace cursor all return to their just-booted values.  The
        offline partition is solved once per (trace, machine, model,
        batch) — every machine and every restart gets a clone from the
        per-trace cache, and a degraded machine is a different key, so
        its first degrade solves once.  The prefill memo survives (it is
        pure in the prompt length) and the span probes are bound to this
        hardware's shared dict in the probe store.
        """
        key = (self.machine, self.model.name, self.nominal_batch)
        cache = _partition_cache(self.trace)
        pristine = cache.get(key)
        self.session = self.system.session(
            self.trace, self.nominal_batch, wrap=True,
            partition=None if pristine is None else _clone_partition(pristine),
        )
        if pristine is None:
            cache[key] = _clone_partition(self.session.partition)
        self._span_probes = self._probe_store.setdefault(key, {})

    def _span_probe(
        self, batch: int, context: int
    ) -> tuple[float, float, float]:
        """One memoised ``decode_step`` cost probe for ``span_estimate``.

        The live engine's step cost at a (batch, context) point drifts
        slightly as predictor/window state evolves; fast fidelity
        freezes each point at its first probe so a megafleet run pays
        the ~half-millisecond engine step once per distinct point
        instead of twice per span.  The frozen value is shared through
        the probe store by every machine with identical (machine, model,
        nominal_batch), so a 1000-machine homogeneous fleet probes each
        point once.  The serving simulator hands its executors one store
        per run, so a run's values depend only on that run.  Part of
        fast mode's documented approximation; a degraded machine reads
        its own dict because it quotes genuinely different costs.
        """
        key = (batch, context)
        hit = self._span_probes.get(key)
        if hit is None:
            hit = super()._span_probe(batch, context)
            self._span_probes[key] = hit
        return hit

    def estimated_step_seconds(self) -> float:
        """One decode iteration at the nominal batch, without mutating
        this executor's live engine state.

        Probes a *throwaway* sibling session (same trace and machine —
        its partition comes from the per-trace cache, so the solver
        never reruns) at the trace's first decode context and memoises
        the result.  Deterministic, so throughput-normalizing routers
        stay replayable.
        """
        if self._estimated_step is None:
            probe = MachineExecutor(
                self.machine,
                self.model,
                trace=self.trace,
                nominal_batch=self.nominal_batch,
            )
            self._estimated_step = probe.session.decode_step(
                self.nominal_batch).seconds
        return self._estimated_step

    def kv_capacity_tokens(self) -> float:
        """Resident KV tokens the DIMM pool can hold beside the sparse
        weights.

        Hermes stripes the KV cache across the NDP-DIMM pool (attention
        runs near-memory), so capacity is whatever the pool has left
        after the sparse weights — the quantity a DIMM degrade shrinks.
        The serving loop uses this to decide which residents must be
        evicted (re-queued with a re-prefill) after a degrade.
        """
        weights = self.model.total_weight_bytes - self.model.embedding_bytes
        free = self.machine.dimm_capacity_total - weights
        return max(0.0, free / self.model.kv_bytes_total(1, 1))

    def mean_union(self, batch: int) -> float:
        """Mean per-layer batch-union inflation at ``batch`` sequences.

        Batched sparse GEMV moves the *union* of the batch's
        activations, so the union-capped policy meaningfully bounds the
        step latency.  One reduction over the session's cached
        per-layer union column.
        """
        return float(self.session.union_factors(batch).mean())


class DenseGPUBackend(ServingBackend):
    """TensorRT-like dense serving on the machine's GPU.

    Full weights resident when they fit (every layer read at HBM
    bandwidth, zero decode PCIe traffic); otherwise the non-resident
    fraction streams over PCIe per layer behind the zig-zag overlap.
    The KV cache is always GPU-resident, so attention runs on the GPU
    and preempted requests re-admit for free.
    """

    name = "dense"

    def __init__(
        self, machine: Machine, model: ModelSpec, *, nominal_batch: int = 8
    ) -> None:
        super().__init__(machine, model, nominal_batch=nominal_batch)
        self.resident_fraction = weights_resident_fraction(machine, model)
        #: the per-token FC cost depends only on the batch size
        self._fc_cache: dict[int, tuple[float, float]] = {}

    def _renegotiate(self) -> None:
        self.resident_fraction = weights_resident_fraction(
            self.machine, self.model
        )
        self._fc_cache.clear()

    def _fc_cost(self, batch: int) -> tuple[float, float]:
        """(seconds, gpu_busy) of one token's FC work at ``batch``."""
        cost = self._fc_cache.get(batch)
        if cost is None:
            if self.resident_fraction >= 1.0:
                fc = resident_dense_token_cost(self.machine, self.model, batch)
                cost = (fc, fc)
            else:
                pipeline, transfer_only = streamed_dense_token_cost(
                    self.machine,
                    self.model,
                    batch,
                    resident_fraction=self.resident_fraction,
                )
                cost = (pipeline, max(0.0, pipeline - transfer_only))
            self._fc_cache[batch] = cost
        return cost

    def _step_cost(self, batch: int, context: int) -> StepCost:
        fc_seconds, fc_gpu = self._fc_cost(batch)
        attn = gpu_kv_attention_time(self.machine, self.model, context, batch)
        return StepCost(
            seconds=fc_seconds + attn, gpu_busy=fc_gpu + attn, dimm_busy=0.0
        )

    def _pure_step_seconds(self, batch: int, context: int) -> float:
        return self._step_cost(batch, context).seconds

    def span_estimate(
        self, batch: int, start_context: float, steps: int
    ) -> tuple[float, float, float]:
        """Exact closed form: FC is context-free and attention is
        affine in the context (``gpu_kv_attention_time`` is a linear
        byte count through an affine transfer-time model), so the span
        total equals ``steps`` times the cost at the ramp's mean
        context — no probes, no rounding of the ramp."""
        fc_seconds, fc_gpu = self._fc_cost(batch)
        mean_context = start_context + (steps - 1) / 2.0
        attn = gpu_kv_attention_time(
            self.machine, self.model, mean_context, batch
        )
        return (
            (fc_seconds + attn) * steps,
            (fc_gpu + attn) * steps,
            0.0,
        )

    def _prefill_pair(self, prompt_len: int) -> tuple[float, float]:
        # the prompt KV lands directly in GPU memory: no PCIe push
        return (zigzag_prefill_time(self.machine, self.model, prompt_len,
                                    1, self.resident_fraction), 0.0)


class DejaVuBackend(ServingBackend):
    """Deja-Vu-style sparse host-offload serving.

    Each decode iteration charges the offline baseline's per-token cost
    kernel (:meth:`repro.baselines.dejavu.DejaVu.token_cost`) at the
    trace's next ground-truth activation row, cycling over the decode
    region exactly like the Hermes executor's wrapped session; the
    batch-union inflation of the streamed neuron set makes union-capped
    batching meaningful here, unlike the dense backend.
    """

    name = "dejavu"

    def __init__(
        self,
        machine: Machine,
        model: ModelSpec,
        *,
        trace: ActivationTrace | None = None,
        nominal_batch: int = 8,
        granularity: int = 64,
        seed: int = 7,
    ) -> None:
        super().__init__(machine, model, nominal_batch=nominal_batch)
        if trace is None:
            trace = default_serving_trace(
                model, granularity=granularity, seed=seed
            )
        if trace.layout.model.name != model.name:
            raise ValueError(
                f"trace was generated for {trace.layout.model.name!r}, "
                f"not {model.name!r}")
        self.trace = trace
        self.core = DejaVu(machine, model)
        #: cursor over the trace's decode-token rows (wraps)
        self._cursor = 0
        self._decode_rows = list(trace.decode_tokens())
        if not self._decode_rows:
            raise ValueError("trace has no decode region")
        self._union_cache: dict[int, np.ndarray] = {}
        #: (token row, batch) -> (body seconds, body gpu_busy) — the
        #: context-independent part of one token's cost
        self._body_cache: dict[tuple[int, int], tuple[float, float]] = {}

    def _renegotiate(self) -> None:
        self.core = DejaVu(self.machine, self.model)
        self._union_cache.clear()
        self._body_cache.clear()

    def _union(self, batch: int) -> np.ndarray:
        union = self._union_cache.get(batch)
        if union is None:
            union = self.core.union_factors(self.trace, batch)
            self._union_cache[batch] = union
        return union

    def _token_body(self, t: int, batch: int) -> tuple[float, float]:
        """Everything except attention, accumulated in kernel order."""
        key = (t, batch)
        body = self._body_cache.get(key)
        if body is None:
            cost = self.core.token_cost(
                self.trace, t, 1, batch, self._union(batch)
            )
            seconds = 0.0
            gpu = 0.0
            for l in range(self.model.num_layers):
                seconds += (cost.transfers[l] + cost.computes[l]
                            + cost.predictors[l] + cost.projections[l])
                gpu += (
                    cost.computes[l] + cost.predictors[l] + cost.projections[l]
                )
            body = (seconds, gpu)
            self._body_cache[key] = body
        return body

    def _step_cost(self, batch: int, context: int) -> StepCost:
        t = self._decode_rows[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._decode_rows)
        return self._cost_at(t, batch, context)

    def _cost_at(self, t: int, batch: int, context: int) -> StepCost:
        body_seconds, body_gpu = self._token_body(t, batch)
        attn = gpu_kv_attention_time(self.machine, self.model, context, batch)
        return StepCost(
            seconds=body_seconds + attn,
            gpu_busy=body_gpu + attn,
            dimm_busy=0.0,
        )

    def _pure_step_seconds(self, batch: int, context: int) -> float:
        return self._cost_at(self._decode_rows[0], batch, context).seconds

    def _prefill_pair(self, prompt_len: int) -> tuple[float, float]:
        # dense streamed prefill (per-token predictions do not exist for
        # the whole prompt at once); the prompt KV stays on the GPU
        return (zigzag_prefill_time(
            self.machine, self.model, prompt_len, 1,
            self.core.resident_fraction()), 0.0)

    def mean_union(self, batch: int) -> float:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return float(self._union(batch).mean())

    def reset(self) -> None:
        """Restart cold: the trace cursor returns to the first decode
        row, exactly where a freshly booted machine starts."""
        super().reset()
        self._cursor = 0


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
BACKENDS: dict[str, type[ServingBackend]] = {
    "hermes": MachineExecutor,
    "dense": DenseGPUBackend,
    "dejavu": DejaVuBackend,
}


def make_backend(
    name: str,
    machine: Machine,
    model: ModelSpec,
    *,
    trace: ActivationTrace | None = None,
    nominal_batch: int = 8,
    granularity: int = 64,
    seed: int = 7,
    probe_store: dict | None = None,
) -> ServingBackend:
    """Instantiate a registered backend on ``machine`` for ``model``.

    ``trace`` feeds the backends that consume ground-truth activations
    (hermes, dejavu) and is ignored by the dense backend;
    ``probe_store`` is the hermes backend's shared fast-fidelity probe
    memo (see :meth:`MachineExecutor._span_probe`).
    """
    try:
        factory = BACKENDS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise KeyError(
            f"unknown backend {name!r}; known backends: {known}") from None
    if factory is MachineExecutor:
        return MachineExecutor(
            machine,
            model,
            trace=trace,
            nominal_batch=nominal_batch,
            granularity=granularity,
            seed=seed,
            probe_store=probe_store,
        )
    if factory is DejaVuBackend:
        return DejaVuBackend(
            machine,
            model,
            trace=trace,
            nominal_batch=nominal_batch,
            granularity=granularity,
            seed=seed,
        )
    return DenseGPUBackend(machine, model, nominal_batch=nominal_batch)


@functools.lru_cache(maxsize=128)
def probe_tokens_per_second(
    name: str,
    machine: Machine,
    model: ModelSpec,
    *,
    nominal_batch: int = 8,
    granularity: int = 64,
    seed: int = 7,
) -> float:
    """One backend's pure decode-throughput estimate, memoised.

    Builds a throwaway backend (same construction path the fleet uses)
    and asks it for ``estimated_tokens_per_second()`` — deterministic in
    every argument, so the capacity planner's analytic pruning pass and
    its ``--jobs N`` workers all see identical numbers.  Raises exactly
    where fleet construction would (e.g. a Hermes machine whose DIMM
    pool cannot hold the model), so callers should establish memory
    feasibility first.
    """
    backend = make_backend(
        name,
        machine,
        model,
        nominal_batch=nominal_batch,
        granularity=granularity,
        seed=seed,
    )
    return backend.estimated_tokens_per_second()


@dataclasses.dataclass(frozen=True)
class MachineGroup:
    """``count`` identical machines running one backend.

    The unit of fleet description: a heterogeneous fleet is a sequence
    of groups, each pinning its backend and optionally overriding the
    simulator-level machine spec, model, or nominal batch.  ``None``
    overrides inherit the simulator's defaults, so
    ``[MachineGroup(count=n)]`` is exactly the old homogeneous
    ``num_machines=n`` fleet.
    """

    count: int = 1
    backend: str = "hermes"
    #: hardware override; ``None`` inherits the simulator's machine
    machine: Machine | None = None
    #: model-registry name override; ``None`` inherits the simulator's
    model: str | None = None
    #: offline-partition/probe batch; ``None`` derives from ``max_batch``
    nominal_batch: int | None = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("a machine group needs count >= 1")
        if self.backend.lower() not in BACKENDS:
            known = ", ".join(sorted(BACKENDS))
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"known backends: {known}")
        if self.nominal_batch is not None and self.nominal_batch < 1:
            raise ValueError("nominal_batch must be >= 1")
