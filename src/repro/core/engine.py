"""The Hermes end-to-end inference engine (paper §IV).

Simulates token generation on the heterogeneous GPU + NDP-DIMM machine by
actually *executing* the Hermes control plane against an activation trace:
the offline partitioner places neurons, the lightweight predictor forecasts
each layer's activations, the neuron mapper swaps hot/cold residency over
PCIe, and the window scheduler rebalances cold neurons over the DIMM-links.
Per-(token, layer) latencies come from the hardware models; nothing about
the schedule is assumed in closed form, which is what lets the Fig. 13
ablations fall out of flipping config switches.

Workflow per transformer layer (paper Fig. 6a):

1. **QKV generation** — sparse, split between GPU (resident predicted
   groups) and NDP-DIMMs (the rest); GPU results ship to the DIMMs
   (2 x Tsync, Eq. 3) where a merge kernel combines them.
2. **Attention** — on the NDP-DIMMs over the sharded KV cache.
3. **Projection** — dense, GPU-only; the idle-DIMM window hides hot/cold
   swaps (PCIe) and cold remaps (DIMM-links); overflow is charged.
4. **MLP** — sparse, split like QKV.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..hardware import Machine
from ..models import ModelSpec
from ..sim import overlap_two_stage
from ..sparsity import ActivationTrace
from .mapper import NeuronMapper
from .partition import OfflinePartition, PartitionCosts, solve_partition
from .predictor import ActivationPredictor, PredictorConfig
from .result import RunResult
from .scheduling import WindowScheduler

GIB = 2**30


@dataclasses.dataclass(frozen=True)
class HermesConfig:
    """Feature switches and tunables; defaults are full Hermes."""

    partition_strategy: str = "greedy"  # 'greedy' | 'ilp' | 'random'
    online_adjustment: bool = True
    token_prediction: bool = True
    layer_prediction: bool = True
    window_scheduling: bool = True
    window: int = 5
    hot_threshold: int = 10
    #: GPU memory reserved for activations/workspace
    gpu_reserve_bytes: int = 1 * GIB
    #: oracle mode: ground-truth prediction + decode-profiled partition
    oracle: bool = False

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.gpu_reserve_bytes < 0:
            raise ValueError("gpu_reserve_bytes must be non-negative")


def batch_union_factor(freq: np.ndarray, batch: int) -> float:
    """Inflation of the activated set when a batch's activations union.

    Each batch element activates its own neuron subset; the weight traffic
    of a batched sparse GEMV covers the union.  For per-group frequency
    ``p`` the union probability is ``1 - (1-p)^batch``.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if batch == 1:
        return 1.0
    p = np.clip(freq, 0.0, 1.0)
    base = p.sum()
    if base <= 0:
        return 1.0
    return float((1.0 - (1.0 - p) ** batch).sum() / base)


@dataclasses.dataclass(frozen=True)
class StepCost:
    """Cost of one decode step, split by the device that was busy.

    ``seconds`` is the critical-path latency of the step; ``gpu_busy`` and
    ``dimm_busy`` are the per-device busy times inside it (they overlap, so
    they do not sum to ``seconds``).  The serving layer integrates these
    into utilization metrics.

    ``swap_bytes`` and ``resident_bytes`` expose the online residency
    control plane to telemetry: the hot/cold bytes pulled onto the GPU
    during this step and the GPU-resident sparse-weight bytes at its
    end.  Backends without an online residency control plane (dense,
    dejavu) leave both at 0.
    """

    seconds: float
    gpu_busy: float
    dimm_busy: float
    swap_bytes: int = 0
    resident_bytes: int = 0


class HermesSystem:
    """Hermes on one machine for one model."""

    name = "Hermes"

    def __init__(
        self,
        machine: Machine,
        model: ModelSpec,
        config: HermesConfig | None = None,
    ) -> None:
        self.machine = machine
        self.model = model
        self.config = config or HermesConfig()
        required = model.total_weight_bytes - model.embedding_bytes
        if not machine.fits_on_dimms(required):
            raise ValueError(
                f"{model.name} needs {required / GIB:.0f} GiB of DIMM "
                "capacity; the pool has "
                f"{machine.dimm_capacity_total / GIB:.0f} GiB")

    # ------------------------------------------------------------------
    @property
    def gpu_static_bytes(self) -> int:
        """GPU memory pinned by dense weights: projections + embeddings."""
        return (self.model.dense_bytes_per_layer * self.model.num_layers
                + self.model.embedding_bytes)

    @property
    def gpu_hot_budget(self) -> int:
        """GPU bytes available for the hot-neuron region."""
        budget = (self.machine.gpu.memory_bytes - self.gpu_static_bytes
                  - self.config.gpu_reserve_bytes)
        if budget <= 0:
            raise ValueError(
                f"{self.machine.gpu.name} cannot hold the dense weights of "
                f"{self.model.name}")
        return budget

    def partition_costs(self, batch: int = 1) -> PartitionCosts:
        """Per-byte execution rates (Eq. 4-5), batch-aware.

        Batching multiplies MACs but not weight traffic, so each side's
        rate is the slower of its stream path and its compute path; the
        NDP cores go compute-bound around batch 2-3, which shifts the
        optimal partition toward the GPU.
        """
        machine = self.machine
        gpu = machine.gpu
        gpu_rate = max(
            1.0 / gpu.effective_bandwidth, batch / gpu.effective_flops
        )
        core = machine.dimm.core
        dimm_rate = max(
            1.0 / machine.dimm.internal_bandwidth,
            batch / (2.0 * core.gemv.macs_per_second),
        )
        return PartitionCosts(
            gpu_seconds_per_byte=gpu_rate,
            dimm_seconds_per_byte=dimm_rate,
            sync_seconds=machine.sync_latency,
            num_dimms=machine.num_dimms,
            gpu_budget_bytes=self.gpu_hot_budget,
            dimm_capacity_bytes=machine.dimm.capacity_bytes,
        )

    # ------------------------------------------------------------------
    def _profiled_frequencies(self, trace: ActivationTrace
                              ) -> list[np.ndarray]:
        """Frequencies driving the offline partition.

        Hermes profiles offline (C4/Pile); the prefill window plays that
        role here.  Oracle mode peeks at the decode window instead — the
        theoretically-optimal partition of §III-B.
        """
        if self.config.oracle:
            window = slice(trace.prompt_len, trace.n_tokens)
            return [trace.frequencies(l, tokens=window)
                    for l in range(trace.num_layers)]
        return [trace.prefill_frequencies(l) for l in range(trace.num_layers)]

    def _prefill_time(self, prompt_len: int, batch: int) -> float:
        """Prompting stage: GPU with zig-zag weight streaming (§IV-A2).

        Layer weights stream over PCIe while the previous layer computes —
        the FlexGen-style overlap the paper adopts for prefill.
        """
        model = self.model
        gpu = self.machine.gpu
        transfer = []
        compute = []
        resident_fraction = min(
            1.0, self.machine.gpu.memory_bytes / model.total_weight_bytes
        )
        for _ in range(model.num_layers):
            layer_bytes = model.layer_bytes
            stream_bytes = layer_bytes * (1.0 - resident_fraction)
            transfer.append(self.machine.pcie.transfer_time(stream_bytes))
            compute.append(gpu.prefill_time(layer_bytes, prompt_len, batch))
        return overlap_two_stage(transfer, compute)

    # ------------------------------------------------------------------
    def session(self, trace: ActivationTrace, batch: int = 1, *,
                wrap: bool = False,
                partition: OfflinePartition | None = None
                ) -> "HermesSession":
        """Open a resumable stepped-execution session over ``trace``.

        The session runs the offline stage eagerly and then exposes
        :meth:`HermesSession.prefill` and :meth:`HermesSession.decode_step`
        so callers — notably :mod:`repro.serving` — can interleave token
        generation with other simulated work and vary the batch per step.
        ``wrap`` lets the token cursor cycle over the decode region so a
        session can serve more steps than the trace records.  ``partition``
        reuses an already-solved offline partition (it is deterministic in
        (trace, batch, config), so sessions over the same inputs — e.g.
        the machines of a serving cluster — need not re-solve it).  The
        session owns it: window scheduling remaps its ``dimm_of`` in
        place, so each session needs its own copy.
        """
        return HermesSession(
            self, trace, batch, wrap=wrap, partition=partition
        )

    def run(self, trace: ActivationTrace, batch: int = 1) -> RunResult:
        """Simulate one full prefill + decode pass over ``trace``."""
        session = self.session(trace, batch)
        session.prefill()
        for _ in range(trace.n_decode_tokens):
            session.decode_step()
        return session.finish()


class HermesSession:
    """Resumable per-token execution of Hermes over one trace.

    Owns the online control-plane state (mapper residency, predictor state
    table, window scheduler) between steps, which is exactly what a serving
    layer needs: requests join and leave a running batch, so each decode
    step may carry a different effective batch size and context length while
    the hot/cold placement keeps evolving underneath.
    """

    def __init__(
        self,
        system: HermesSystem,
        trace: ActivationTrace,
        batch: int = 1,
        *,
        wrap: bool = False,
        partition: OfflinePartition | None = None,
    ) -> None:
        if trace.layout.model.name != system.model.name:
            raise ValueError("trace was generated for a different model")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.system = system
        self.trace = trace
        self.batch = batch
        self.wrap = wrap
        cfg = system.config
        self.layout = trace.layout
        machine = system.machine

        self.result = RunResult(
            system=system.name,
            model=system.model.name,
            batch=batch,
            prefill_time=1e-12,
            decode_time=1e-12,
            n_decode_tokens=max(1, trace.n_decode_tokens),
        )

        # ---------------- offline stage ----------------
        self.freqs = system._profiled_frequencies(trace)
        self.costs = system.partition_costs(batch)
        # The partition optimises *realised* per-step load, and batching
        # unions activations across the batch — a rarely-active group's
        # probability rises superlinearly — so the solver sees the
        # union-inflated probabilities rather than the per-sequence ones.
        if partition is not None:
            self.partition = partition
        else:
            if batch > 1:
                partition_freqs = [
                    1.0 - (1.0 - f) ** batch for f in self.freqs
                ]
            else:
                partition_freqs = self.freqs
            self.partition = solve_partition(
                partition_freqs,
                self.layout,
                self.costs,
                strategy=cfg.partition_strategy,
                seed=trace.seed,
            )
        self.mapper = NeuronMapper(self.layout, self.costs.gpu_budget_bytes)
        self.mapper.initialize(self.partition)
        self.predictor = ActivationPredictor(self.layout, PredictorConfig(
            use_token_prediction=cfg.token_prediction,
            use_layer_prediction=cfg.layer_prediction,
            hot_threshold=cfg.hot_threshold,
        ))
        self.predictor.initialize(trace)
        self.scheduler = WindowScheduler(
            self.layout, machine.num_dimms, window=cfg.window
        )

        self.hot_bytes = self.partition.gpu_bytes(self.layout)
        self._run_bytes = float(self.layout.group_bytes.mean())
        self._attn_heads_per_dimm = -(
            -system.model.num_heads // machine.num_dimms
        )
        # Batch-union factors, filled lazily one batch column at a time
        # into a dense (num_layers, max_batch_seen) array.  Bounded by the
        # largest batch ever requested — unlike a per-(layer, batch) dict,
        # which grows without limit on long serving runs whose batch varies
        # per step.
        self._union_factors = np.ones((system.model.num_layers, 1))

        # ---- decode fast-path invariants (hoisted out of decode_step) ----
        layout = self.layout
        #: one BLAS matmul with it sums both FC blocks' GPU-side bytes
        #: for every layer at once
        num_layers = system.model.num_layers
        n_dimms = machine.num_dimms
        self._gpu_block_matrix = layout.block_bytes()
        #: flat bin key offsets mapping (layer, block, dimm) to
        #: l*n_dimms + is_mlp*num_layers*n_dimms + dimm for the one-shot
        #: segmented bincount over the whole token
        self._key_offsets = (np.arange(num_layers)[:, None] * n_dimms
                             + layout.is_mlp * (num_layers * n_dimms))
        self._fc_bins = 2 * num_layers * n_dimms
        self._two_sync = 2 * machine.sync_latency
        #: per-token KV traffic divisor: bytes = _kv_token_bytes * ctx * batch
        self._kv_token_bytes = 2 * system.model.kv_dim * 2
        #: scattered-cold-neuron stream bandwidth (invariant per session)
        self._gemv_bandwidth = machine.dimm.effective_stream_bandwidth(
            self._run_bytes)
        #: constant per-layer costs, memoised per effective batch size
        self._proj_time_cache: dict[int, float] = {}
        self._merge_time_cache: dict[int, float] = {}
        self._pred_overhead = self.predictor.predictor_overhead_seconds(0)
        #: per-batch (column[:, None], doubled column) union-factor views,
        #: cached so the decode loop never re-shapes
        self._union_views_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: per-layer bin-key offsets of the window scheduler's load
        #: bincount
        self._rb_offsets = (np.arange(system.model.num_layers)[:, None]
                            * machine.num_dimms)
        #: the FC and window-scheduler bin keys of ``partition.dimm_of``,
        #: built by the first decode step (a fast-fidelity machine may
        #: never take one) and again after a window rebalance that moves
        #: groups
        self._fc_keys: np.ndarray | None = None
        self._rb_keys: np.ndarray | None = None
        #: session-invariant hot-loop bindings, packed so the per-call
        #: prologue of :meth:`_single_step` is one tuple unpack instead
        #: of dozens of attribute chains
        self._hot_invariants = (
            machine.gpu, machine.dimm, n_dimms, self._two_sync,
            machine.pcie.effective_bandwidth,
            cfg.oracle, cfg.online_adjustment and not cfg.oracle,
            cfg.window_scheduling, cfg.hot_threshold, num_layers,
            self._kv_token_bytes, self._attn_heads_per_dimm,
            self._gemv_bandwidth, self._gpu_block_matrix,
            layout.group_bytes.astype(np.float64), self._fc_bins,
            trace.prompt_len, trace.n_decode_tokens,
        )

        self.steps_done = 0
        self.decode_time = 0.0
        self._remap_bytes_total = 0
        self._remap_groups_total = 0
        self._remap_link_time = 0.0
        self._swap_bytes_total = 0

    # ------------------------------------------------------------------
    def union_factors(self, batch: int) -> np.ndarray:
        """Per-layer batch-union factors at ``batch`` (cached, read-only),
        e.g. for the serving executor's mean-union batching cap."""
        return self._union_column(batch)

    def _union_views(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """(column[:, None], doubled column) at ``batch``.

        The reshaped views feed the decode loop's FC byte math every
        step; their values are immutable per batch, so they are built
        once per batch size ever seen.
        """
        views = self._union_views_cache.get(batch)
        if views is None:
            col = self._union_column(batch)
            views = (col[:, None], np.concatenate((col, col)))
            self._union_views_cache[batch] = views
        return views

    def _bin_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The two bin-key arrays of ``partition.dimm_of``: the raveled
        (layer, block, dimm) keys of the FC bincount and the (layers,
        groups) keys of the window scheduler's load bincount."""
        dimm_of = self.partition.dimm_of
        return ((dimm_of + self._key_offsets).ravel(),
                dimm_of + self._rb_offsets)

    def _union_column(self, batch: int) -> np.ndarray:
        """Per-layer union factors at ``batch``, from the lazy 2-D cache."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        have = self._union_factors.shape[1]
        if batch > have:
            num_layers = self._union_factors.shape[0]
            grown = np.empty((num_layers, batch))
            grown[:, :have] = self._union_factors
            for b in range(have + 1, batch + 1):
                for l in range(num_layers):
                    grown[l, b - 1] = batch_union_factor(self.freqs[l], b)
            self._union_factors = grown
        return self._union_factors[:, batch - 1]

    def prefill_cost(
        self,
        prompt_len: int | None = None,
        batch: int | None = None,
        *,
        reload_hot: bool = False,
    ) -> tuple[float, float]:
        """Prompting-stage cost split as (GPU compute, PCIe transfer).

        ``reload_hot`` additionally charges re-loading the non-resident part
        of the hot set over PCIe — the cold-start path ``run`` takes.  A
        serving machine keeps the hot set resident between requests, so a
        joining request pays only prompt compute plus its KV-cache push.
        Pure cost query; no session state changes.
        """
        system = self.system
        machine = system.machine
        model = system.model
        if prompt_len is None:
            prompt_len = self.trace.prompt_len
        batch = self.batch if batch is None else batch
        prefill = system._prefill_time(prompt_len, batch)
        # Hot neurons loaded back to GPU + prompt KV cache pushed to DIMMs.
        # Prefill already streamed every layer through GPU memory, so the
        # resident fraction of the hot set is simply *retained* rather than
        # re-transferred; only the remainder crosses PCIe again.
        resident_fraction = min(
            1.0, machine.gpu.memory_bytes / model.total_weight_bytes)
        reload_bytes = (
            self.hot_bytes * (1.0 - resident_fraction) if reload_hot else 0.0
        )
        kv_prompt = model.kv_bytes_total(prompt_len, batch)
        return prefill, machine.pcie.transfer_time(reload_bytes + kv_prompt)

    def prefill(self) -> float:
        """Run the prompting stage; records it into :attr:`result`."""
        compute, load_time = self.prefill_cost(reload_hot=True)
        self.result.add("prefill", compute)
        self.result.add("communication", load_time)
        self.result.prefill_time = compute + load_time
        return self.result.prefill_time

    # ------------------------------------------------------------------
    def decode_step(
        self, batch: int | None = None, context: int | None = None
    ) -> StepCost:
        """Generate one token; returns the step's critical-path cost.

        ``batch`` overrides the session batch for this step (continuous
        batching changes it as requests join/leave); ``context`` overrides
        the attention context length (for a mixed batch, the mean context —
        attention cost is linear in total KV bytes, so the mean is exact).
        """
        batch = self.batch if batch is None else batch
        if batch < 1:
            raise ValueError("batch must be >= 1")
        n_decode = self.trace.n_decode_tokens
        if n_decode == 0:
            raise RuntimeError(
                "trace has no decode region " "(generated with decode_len=0)"
            )
        if self.steps_done >= n_decode and not self.wrap:
            raise RuntimeError("trace decode tokens exhausted "
                               "(open the session with wrap=True)")
        if context is None:
            context = self.trace.prompt_len + self.steps_done + 1
        swap_before = self._swap_bytes_total
        seconds, gpu_busy, dimm_busy = self._single_step(batch, context)
        return StepCost(
            seconds=seconds,
            gpu_busy=gpu_busy,
            dimm_busy=dimm_busy,
            swap_bytes=self._swap_bytes_total - swap_before,
            resident_bytes=self.mapper.resident_bytes,
        )

    def _single_step(
        self, batch: int, context: int
    ) -> tuple[float, float, float]:
        """One decode token through the per-token control-plane path.

        The core of :meth:`decode_step`.  Every layer's prediction (one
        threshold compare in ``predict_all``), FC byte loads and times
        are a few matrix ops over the whole token.  One loop then sums
        the per-layer costs in layer order, and
        :meth:`NeuronMapper.swap_token` runs the online swap of every
        layer along the projection-window budget chain.
        ``observe_all`` folds the token into the state table after the
        swap, and a full window pairs every layer's DIMMs in one pass.
        Returns ``(seconds, gpu_busy, dimm_busy)``; the caller handles
        validation and packaging.
        """
        (gpu, dimm, n_dimms, two_sync, pcie_bandwidth, oracle, online,
         window_scheduling, hot_threshold, num_layers, kv_token,
         heads_per_dimm, gemv_bandwidth, block_matrix, group_bytes,
         fc_bins, prompt_len, n_decode) = self._hot_invariants
        trace = self.trace
        result = self.result
        predictor = self.predictor
        mapper = self.mapper
        partition = self.partition
        scheduler = self.scheduler
        union_col2d, union_twice = self._union_views(batch)
        t_proj = self._proj_time_cache.get(batch)
        if t_proj is None:
            t_proj = gpu.matmul_time(
                self.system.model.dense_bytes_per_layer, batch
            )
            self._proj_time_cache[batch] = t_proj
        t_merge = self._merge_time_cache.get(batch)
        if t_merge is None:
            t_merge = dimm.core.merge_time(
                self.system.model.hidden_size, batch
            )
            self._merge_time_cache[batch] = t_merge
        t_pred = self._pred_overhead

        t = prompt_len + self.steps_done % n_decode
        kv_bytes = kv_token * context * batch
        t_attn = dimm.attention_time(
            kv_bytes / n_dimms, context, heads_per_dimm, batch
        )
        # ---- vectorized control plane: all layers of the token at once
        # Layer l's prediction depends only on pre-token predictor state
        # and the *ground-truth* activations of layer l-1 (known from the
        # trace), and the per-layer residency/dimm maps are only mutated
        # *after* the layer's FC work — so the whole token's masks and
        # byte loads fold into a few matrix ops with bit-identical
        # results.  Shapes: (num_layers, groups) and (num_layers, dimms).
        actuals = trace.active_matrix(t)
        if oracle:
            predicted_all = actuals
        else:
            predicted_all = predictor.predict_all(actuals)
        on_gpu_all = predicted_all & mapper.resident
        # predicted-but-cold plus missed groups run on the DIMMs:
        # (pred & ~res) | (act & ~pred), and on_gpu is a subset of pred
        on_dimm_all = (predicted_all | actuals) ^ on_gpu_all
        # ---- sparse FC blocks: QKV then MLP ----
        # a block's GPU bytes are capped by the layer's resident bytes
        resident_caps = np.array(mapper.layer_used, dtype=np.float64)
        gpu_bytes = np.minimum((on_gpu_all @ block_matrix) * union_col2d,
                               resident_caps[:, None])
        weights = on_dimm_all * group_bytes
        # every DIMM's GEMV time is non-decreasing in its bytes, so each
        # block's slowest DIMM is the one with the most bytes
        if self._fc_keys is None:
            self._fc_keys, self._rb_keys = self._bin_keys()
        dimm_bytes = np.bincount(
            self._fc_keys, weights=weights.ravel(), minlength=fc_bins,
        ).reshape(2 * num_layers, n_dimms).max(axis=1) * union_twice
        t_gpu = gpu.matmul_time_batch(gpu_bytes, batch, scattered=True)
        t_dimm = dimm.core.gemv_time_batch(
            dimm_bytes, gemv_bandwidth, batch
        ).reshape(2, num_layers).T
        fc_blocks = np.maximum(t_gpu + two_sync, t_dimm)
        fc_times = (fc_blocks[:, 0] + fc_blocks[:, 1]).tolist()
        breakdown = result.breakdown
        bd_fc = breakdown.get("fc", 0.0)
        bd_attn = breakdown.get("attention", 0.0)
        bd_proj = breakdown.get("projection", 0.0)
        bd_others = breakdown.get("others", 0.0)
        bd_pred = breakdown.get("predictor", 0.0)
        token_time = 0.0
        gpu_busy = 0.0
        dimm_busy = 0.0
        for fc_time, (tg_qkv, tg_mlp), (td_qkv, td_mlp) in zip(
                fc_times, t_gpu.tolist(), t_dimm.tolist()):
            bd_fc += fc_time
            gpu_busy += tg_qkv
            gpu_busy += tg_mlp
            dimm_busy += td_qkv
            dimm_busy += td_mlp
            bd_attn += t_attn
            dimm_busy += t_attn
            bd_proj += t_proj
            gpu_busy += t_proj
            bd_others += t_merge
            bd_pred += t_pred
            dimm_busy += t_merge
            token_time += (fc_time + t_attn + t_proj + t_merge + t_pred)
        breakdown["fc"] = bd_fc
        breakdown["attention"] = bd_attn
        breakdown["projection"] = bd_proj
        breakdown["others"] = bd_others
        breakdown["predictor"] = bd_pred
        if online:
            proj_window_pcie, swapped = mapper.swap_token(
                predictor.states, hot_threshold, t_proj, pcie_bandwidth)
            self._swap_bytes_total += swapped
        else:
            proj_window_pcie = 0.0
            for _ in range(num_layers):
                proj_window_pcie += t_proj
        predictor.observe_all(actuals, predicted_all)
        scheduler.observe_token(actuals)
        if window_scheduling and scheduler.window_full:
            remap = scheduler.rebalance_all(
                partition.dimm_of, exclude=mapper.resident,
                keys=self._rb_keys,
            )
            link_time = dimm.migration_time(remap.max_link_bytes)
            overflow = max(0.0, link_time - proj_window_pcie)
            result.add("communication", overflow)
            token_time += overflow
            self._remap_bytes_total += remap.moved_bytes
            self._remap_groups_total += remap.moved_groups
            self._remap_link_time += link_time
            if remap.moved_groups:
                self._fc_keys = None
        elif scheduler.window_full:
            scheduler.reset_window()
        self.steps_done += 1
        self.decode_time += token_time
        return token_time, gpu_busy, dimm_busy

    # ------------------------------------------------------------------
    def finish(self) -> RunResult:
        """Seal the session and return its :class:`RunResult`."""
        result = self.result
        result.decode_time = self.decode_time
        result.n_decode_tokens = max(1, self.steps_done)
        predictor = self.predictor
        result.metadata.update({
            "predictor_accuracy": (predictor.stats.accuracy
                                   if predictor.stats.total else None),
            "predictor_recall": (predictor.stats.recall
                                 if predictor.stats.total else None),
            "hot_bytes": self.hot_bytes,
            "gpu_hot_budget": self.costs.gpu_budget_bytes,
            "partition_strategy": self.partition.strategy,
            "remap_bytes": self._remap_bytes_total,
            "remap_groups": self._remap_groups_total,
            "remap_link_time": self._remap_link_time,
            "swap_bytes": self._swap_bytes_total,
        })
        return result
