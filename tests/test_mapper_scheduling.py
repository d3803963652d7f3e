"""Unit + property tests for the online mapper (§IV-C2) and the
window-based scheduler (§IV-D, Algorithm 1)."""

import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NeuronMapper, RemapResult, WindowScheduler
from repro.core.partition import OfflinePartition
from repro.core.predictor import STATE_MAX
from repro.models import get_model
from repro.sparsity import NeuronLayout


@pytest.fixture(scope="session")
def layout(tiny_model):
    return NeuronLayout.build(tiny_model, granularity=4)


#: layouts the reference tests run on: tiny-test (4 layers x 320 groups)
#: and OPT-13B at granularity 128 (40 layers x 200 groups)
REFERENCE_LAYOUTS = {"tiny-test": 4, "OPT-13B": 128}


@pytest.fixture(scope="module")
def reference_layouts():
    return {name: NeuronLayout.build(get_model(name), granularity=g)
            for name, g in REFERENCE_LAYOUTS.items()}


#: PCIe bandwidth of the token-level tests (bytes per second); a power
#: of two, so a window of ``b / PCIE`` seconds buys exactly ``b`` bytes
PCIE = 2.0**34


# The per-layer greedy adjustment as it stood before the engine's
# per-token swap core, and its result type, copied verbatim (its argsort
# tie order included), save that it builds its plain-int byte list
# itself and bumps no swap counter (the mapper has neither any more):
# the loop reference that ``NeuronMapper.swap_token`` must match
# exactly, layer by layer.
@dataclasses.dataclass
class AdjustmentResult:
    """Outcome of one per-layer adjustment step."""

    swapped_in: int = 0
    swapped_out: int = 0
    bytes_in: int = 0


def reference_adjust(self, layer: int, states: np.ndarray, *,
                     hot_threshold: int = 10,
                     max_bytes: int | None = None,
                     coldest_state: int | None = None,
                     wanted_row: np.ndarray | None = None,
                     hottest_wanted: int | None = None,
                     min_wanted_bytes: int | None = None) -> AdjustmentResult:
    """Swap newly-hot groups in and cold residents out for one layer.

    ``states`` is the predictor's state table for the layer.  At most
    ``max_bytes`` may be transferred (the projection-window budget);
    remaining candidates wait for the next opportunity, exactly like
    the deferred copies of the paper's instruction queue.

    The keyword hints let a caller that already computed them (the
    engine does, for all layers at once, in a few matrix ops per
    token) skip the per-layer reductions: ``coldest_state`` is
    ``states[resident].min()`` (anything above the maximum state when
    nothing is resident), ``wanted_row`` the ``(states >
    hot_threshold) & ~resident`` mask, ``hottest_wanted`` /
    ``min_wanted_bytes`` the max state and min byte size over that
    mask.
    """
    resident = self.resident[layer]
    if states.shape != resident.shape:
        raise ValueError("states mask has wrong shape")
    result = AdjustmentResult()
    budget = max_bytes if max_bytes is not None else np.inf

    if wanted_row is None:
        wanted_row = (states > hot_threshold) & ~resident
        if not wanted_row.any():
            return result
    if budget <= 0:
        # every group weighs at least one neuron's bytes, so a
        # non-positive budget admits nothing (the unguarded loop would
        # break on its first candidate with an empty result anyway)
        return result

    # Fast paths for the dominant steady-state outcomes — the same
    # stuck candidates re-present every token.  Both conditions force
    # the greedy loop to exit on its first probe with nothing moved,
    # independent of how argsort breaks state ties: if even the
    # smallest candidate exceeds the transfer budget, the first
    # (whichever it is) breaks immediately; and if no resident group
    # is colder than the hottest candidate, the eviction guard
    # refuses the very first victim for every candidate, so only
    # eviction-free admission could act — impossible when the
    # headroom cannot fit the smallest candidate either.
    group_bytes = self.layout.group_bytes.tolist()
    layer_used = self._layer_used[layer]
    if coldest_state is None or hottest_wanted is None \
            or min_wanted_bytes is None:
        wanted_idx = np.flatnonzero(wanted_row)
        if wanted_idx.size == 0:
            return result
        if coldest_state is None:
            coldest_state = (int(states[resident].min())
                             if resident.any() else STATE_MAX + 1)
        if hottest_wanted is None:
            hottest_wanted = int(states[wanted_idx].max())
        if min_wanted_bytes is None:
            min_wanted_bytes = int(
                self.layout.group_bytes[wanted_idx].min()
            )
    if min_wanted_bytes > budget:
        return result
    free0 = min(
        self.gpu_budget_bytes - self.resident_bytes,
        self.layer_budget[layer] - layer_used,
    )
    if coldest_state >= hottest_wanted and free0 < min_wanted_bytes:
        return result

    # hottest candidates first
    wanted = np.flatnonzero(wanted_row)
    wanted = wanted[np.argsort(states[wanted])[::-1]]

    # eviction candidates: coldest residents first.  The candidate set
    # is the residency at entry (groups admitted *during* this call are
    # never eviction victims), but the sort is done lazily because most
    # adjustments that get this far have headroom and never evict.
    entry_resident = resident.copy()
    evictable: np.ndarray | None = None
    evict_pos = 0
    for idx in wanted:
        b = group_bytes[idx]
        if b > budget:
            break
        free = min(
            self.gpu_budget_bytes - self.resident_bytes,
            self.layer_budget[layer] - layer_used,
        )
        if free < b and evictable is None:
            evictable = np.flatnonzero(entry_resident)
            evictable = evictable[np.argsort(states[evictable])]
        # evict until the newcomer fits; never evict hotter than it
        while (free < b and evictable is not None
               and evict_pos < evictable.size):
            victim = evictable[evict_pos]
            if states[victim] >= states[idx]:
                break
            resident[victim] = False
            freed = group_bytes[victim]
            self.resident_bytes -= freed
            layer_used -= freed
            free += freed
            result.swapped_out += 1
            evict_pos += 1
        if free < b:
            break
        resident[idx] = True
        self.resident_bytes += b
        layer_used += b
        budget -= b
        result.swapped_in += 1
        result.bytes_in += b
    self._layer_used[layer] = layer_used
    return result


def make_mapper(layout, budget_groups=50):
    budget = int(layout.group_bytes[:budget_groups].sum())
    mapper = NeuronMapper(layout, budget)
    return mapper


def empty_partition(layout, num_dimms=4):
    shape = (layout.model.num_layers, layout.groups_per_layer)
    return OfflinePartition(
        hot_masks=np.zeros(shape, dtype=bool),
        dimm_of=np.tile(np.arange(shape[1]) % num_dimms, (shape[0], 1)),
        strategy="greedy",
    )


def swap_layer0(mapper, row, max_bytes=None):
    """One ``swap_token`` whose layer 0 has the states ``row`` and whose
    other layers are all cold, within ``max_bytes`` (unbounded by
    default); returns the bytes swapped in."""
    states = np.zeros(mapper.resident.shape, dtype=np.int16)
    states[0] = row
    step = 1.0 if max_bytes is None else max_bytes / PCIE
    return mapper.swap_token(states, 10, step, PCIE)[1]


class TestMapper:
    def test_initialize_loads_partition(self, layout):
        mapper = make_mapper(layout)
        partition = empty_partition(layout)
        partition.hot_masks[0][:10] = True
        mapper.initialize(partition)
        assert mapper.resident[0][:10].all()
        assert mapper.resident_bytes == layout.group_bytes[:10].sum()

    def test_initialize_rejects_oversized_partition(self, layout):
        mapper = NeuronMapper(layout, gpu_budget_bytes=0)
        partition = empty_partition(layout)
        partition.hot_masks[0][:10] = True
        with pytest.raises(ValueError):
            mapper.initialize(partition)

    def test_swaps_in_hot_groups(self, layout):
        # no initialize(): the per-layer ceiling defaults to the full
        # GPU budget, so hot newcomers stream in freely
        mapper = make_mapper(layout)
        states = np.zeros(layout.groups_per_layer, dtype=np.int16)
        states[:5] = 15
        assert swap_layer0(mapper, states) == layout.group_bytes[:5].sum()
        assert mapper.resident[0][:5].all()
        assert mapper.resident.sum() == 5
        mapper.check_invariants()

    def test_ignores_groups_below_threshold(self, layout):
        mapper = make_mapper(layout)
        mapper.initialize(empty_partition(layout))
        states = np.full(layout.groups_per_layer, 10, dtype=np.int16)
        assert swap_layer0(mapper, states) == 0
        assert not mapper.resident.any()

    def test_budget_limits_transfers(self, layout):
        mapper = make_mapper(layout)
        states = np.full(layout.groups_per_layer, 15, dtype=np.int16)
        one_group = int(layout.group_bytes[0])
        assert 0 < swap_layer0(mapper, states, max_bytes=one_group) \
            <= one_group
        assert mapper.resident.sum() == 1

    def test_layer_budget_caps_growth(self, layout):
        """After initialize(), a layer's residency footprint is fixed:
        swap-ins past the offline allocation require paired evictions."""
        mapper = make_mapper(layout, budget_groups=100)
        partition = empty_partition(layout)
        partition.hot_masks[0][:2] = True
        mapper.initialize(partition)
        states = np.zeros(layout.groups_per_layer, dtype=np.int16)
        states[:20] = 15  # many hot candidates, all hotter than residents
        swap_layer0(mapper, states)
        used = int(layout.group_bytes[mapper.resident[0]].sum())
        assert used <= mapper.layer_budget[0]
        mapper.check_invariants()

    def test_evicts_coldest_resident_when_full(self, layout):
        # budget of exactly 2 attention groups
        budget = int(layout.group_bytes[:2].sum())
        mapper = NeuronMapper(layout, budget)
        partition = empty_partition(layout)
        partition.hot_masks[0][:2] = True
        mapper.initialize(partition)
        states = np.zeros(layout.groups_per_layer, dtype=np.int16)
        states[0] = 2   # coldest resident
        states[1] = 12
        states[5] = 15  # hot newcomer
        assert swap_layer0(mapper, states) == layout.group_bytes[5]
        assert np.flatnonzero(mapper.resident).tolist() == [1, 5]
        mapper.check_invariants()

    def test_never_evicts_hotter_than_newcomer(self, layout):
        budget = int(layout.group_bytes[:1].sum())
        mapper = NeuronMapper(layout, budget)
        partition = empty_partition(layout)
        partition.hot_masks[0][0] = True
        mapper.initialize(partition)
        states = np.zeros(layout.groups_per_layer, dtype=np.int16)
        states[0] = 15  # resident, maximally hot
        states[5] = 12  # newcomer, hot but colder
        assert swap_layer0(mapper, states) == 0
        assert np.flatnonzero(mapper.resident).tolist() == [0]

    def test_rejects_negative_budget(self, layout):
        with pytest.raises(ValueError):
            NeuronMapper(layout, -1)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_budget_never_exceeded(self, layout, seed):
        rng = np.random.default_rng(seed)
        mapper = make_mapper(layout, budget_groups=30)
        shape = mapper.resident.shape
        for _ in range(5):
            states = np.zeros(shape, dtype=np.int16)
            states[int(rng.integers(0, shape[0]))] = rng.integers(
                0, 16, shape[1])
            step = int(rng.integers(0, 2**20)) / PCIE
            mapper.swap_token(states, 10, step, PCIE)
            mapper.check_invariants()


def reference_swap_token(mapper, states, hot_threshold, window_step,
                         bandwidth):
    """One token's swap as a plain layer loop over the verbatim greedy:
    add the projection time, adjust the layer within the window's bytes,
    then shrink the window by the bytes moved."""
    window = 0.0
    swapped = 0
    for layer in range(mapper.layout.model.num_layers):
        window += window_step
        moved = reference_adjust(mapper, layer, states[layer],
                                 hot_threshold=hot_threshold,
                                 max_bytes=int(window * bandwidth))
        if moved.bytes_in:
            swapped += moved.bytes_in
            window = max(0.0, window - moved.bytes_in / bandwidth)
    return window, swapped


def initialized_mapper(layout, hot, budget):
    """A mapper whose offline hot set is the (layers, groups) mask."""
    mapper = NeuronMapper(layout, budget)
    mapper.initialize(OfflinePartition(
        hot_masks=hot, dimm_of=np.zeros(hot.shape, dtype=np.int64),
        strategy="greedy"))
    return mapper


def assert_same_swap(mapper, ref, got, want):
    assert got == want  # leftover window (exact float) and bytes moved
    assert np.array_equal(mapper.resident, ref.resident)
    assert mapper.resident_bytes == ref.resident_bytes
    assert mapper._layer_used == ref._layer_used
    mapper.check_invariants()


class TestSwapTokenReference:
    @given(model=st.sampled_from(sorted(REFERENCE_LAYOUTS)),
           k=st.integers(1, 6),
           initialized=st.booleans(),
           binding=st.sampled_from(["global", "layer"]),
           window=st.sampled_from(["zero", "tight", "random", "wide"]),
           tokens=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_swap_token_matches_layer_loop(self, reference_layouts, model,
                                           k, initialized, binding, window,
                                           tokens, seed):
        """``swap_token`` equals the verbatim greedy run layer by layer
        along the projection-window budget chain, on tie-heavy states
        (drawn from ``0..k``) over a few tokens.  The mapper is
        initialized from an offline hot set, or never initialized, so
        each layer's ceiling is the whole GPU budget; the budget binds
        globally, or is the whole model (an initialized mapper's
        per-layer ceilings bind)."""
        layout = reference_layouts[model]
        rng = np.random.default_rng(seed)
        num_layers, groups = layout.model.num_layers, layout.groups_per_layer
        gbytes = layout.group_bytes
        hot = rng.random((num_layers, groups)) < rng.uniform(0.0, 0.6)
        if binding == "layer":
            budget = int(gbytes.sum()) * num_layers
        elif initialized:
            budget = int((hot * gbytes).sum()
                         + gbytes[:rng.integers(0, 8)].sum())
        else:
            budget = int(gbytes[:rng.integers(0, 40)].sum())
        mapper, ref = ((initialized_mapper(layout, hot, budget)
                        if initialized else NeuronMapper(layout, budget))
                       for _ in range(2))
        smallest = int(gbytes.min()) / PCIE
        step = {"zero": 0.0,
                "tight": smallest * rng.uniform(0.2, 1.5),
                "random": float(rng.uniform(0.0, 3.0)) * gbytes.max() / PCIE,
                "wide": 50.0 * gbytes.max() / PCIE}[window]
        hot_threshold = int(rng.integers(0, k))
        for _ in range(tokens):
            states = rng.integers(0, k + 1, (num_layers, groups)).astype(
                np.int16)
            got = mapper.swap_token(states, hot_threshold, step, PCIE)
            want = reference_swap_token(ref, states, hot_threshold, step,
                                        PCIE)
            assert_same_swap(mapper, ref, got, want)

    @pytest.mark.parametrize("case", [
        "budget spent", "smallest over budget", "no colder resident",
        "budget is the smallest"])
    def test_no_op_exits_and_their_edge(self, reference_layouts, case):
        """Each of the three no-op exits leaves every layer untouched, as
        the layer loop does, although every layer wants groups; a budget
        of exactly the smallest candidate's bytes still admits it."""
        layout = reference_layouts["tiny-test"]
        shape = (layout.model.num_layers, layout.groups_per_layer)
        gbytes = layout.group_bytes
        smallest = int(gbytes.min())
        hot = np.zeros(shape, dtype=bool)
        hot[:, ::4] = True
        # the smallest groups are the hottest candidates
        states = np.where(gbytes == smallest, 13, 12).astype(np.int16)
        states = np.repeat(states[None], shape[0], axis=0)
        step = 10.0 * gbytes.max() / PCIE
        budget = int((hot * gbytes).sum()) + 10 * int(gbytes.max())
        if case == "budget spent":
            step = 0.0
        elif case == "smallest over budget":
            # the window never reaches one group's bytes
            step = (smallest - 1) / PCIE / shape[0]
        elif case == "no colder resident":
            # no global headroom, and every resident is at least as hot
            # as the hottest candidate
            budget = int((hot * gbytes).sum())
            states[hot] = 13
        else:
            step = smallest / PCIE
        mapper, ref = (initialized_mapper(layout, hot, budget)
                       for _ in range(2))
        got = mapper.swap_token(states, 10, step, PCIE)
        want = reference_swap_token(ref, states, 10, step, PCIE)
        moved = case == "budget is the smallest"
        assert (got[1] > 0) == moved
        assert (not np.array_equal(mapper.resident, hot)) == moved
        assert_same_swap(mapper, ref, got, want)


#: numpy dispatch targets the tie-order test switches off: AVX2 only,
#: then x86-64-v2
DISPATCH_OFF = (("AVX512_SPR", "AVX512_ICL", "X86_V4"),
                ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3"))

#: child process: assert the targets are really off (numpy ignores
#: names it does not know without a warning), then print the digest
DISPATCH_CHILD = """
import sys
from numpy._core._multiarray_umath import __cpu_features__
on = [t for t in sys.argv[1:] if __cpu_features__.get(t)]
assert not on, f"dispatch targets still enabled: {on}"
from tests.test_mapper_scheduling import tie_heavy_digest
print(tie_heavy_digest())
"""


def tie_heavy_digest() -> str:
    """SHA-256 of the residency after a fixed sequence of ``swap_token``
    calls on OPT-13B with 17-64 residents per layer and states drawn from
    0..3, so every swap evicts and both of the greedy core's argsorts see
    ties past numpy's insertion-sort cutoff."""
    layout = NeuronLayout.build(get_model("OPT-13B"), granularity=128)
    shape = (layout.model.num_layers, layout.groups_per_layer)
    gbytes = layout.group_bytes
    rng = np.random.default_rng(20240601)
    digest = hashlib.sha256()
    for _ in range(4):
        hot = np.zeros(shape, dtype=bool)
        for row in hot:
            row[rng.choice(shape[1], int(rng.integers(17, 65)),
                           replace=False)] = True
        mapper = initialized_mapper(layout, hot, int((hot * gbytes).sum()))
        for _ in range(10):
            states = rng.integers(0, 4, shape).astype(np.int16)
            window, swapped = mapper.swap_token(
                states, 1, 2.0 * gbytes.max() / PCIE, PCIE)
            digest.update(repr((window, swapped)).encode())
            digest.update(mapper.resident.tobytes())
    return digest.hexdigest()


class TestTieOrderDispatch:
    def test_swap_tie_order_ignores_simd_dispatch(self):
        """The greedy core's int16 argsorts give the same residency with
        numpy's widest SIMD targets switched off (AVX2 only, then
        x86-64-v2) as in this process."""
        from numpy._core._multiarray_umath import __cpu_features__
        runs = [[t for t in targets if __cpu_features__.get(t)]
                for targets in DISPATCH_OFF]
        runs = [off for i, off in enumerate(runs)
                if off and off not in runs[:i]]
        if not runs:
            pytest.skip("this host dispatches none of "
                        f"{', '.join(DISPATCH_OFF[-1])}")
        root = pathlib.Path(__file__).resolve().parent.parent
        want = tie_heavy_digest()
        for off in runs:
            env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
                       PYTHONPATH=os.pathsep.join(
                           [str(root / "src"), str(root)]))
            child = subprocess.run(
                [sys.executable, "-c", DISPATCH_CHILD, *off], cwd=root,
                env=env, capture_output=True, text=True, timeout=300)
            assert child.returncode == 0, child.stderr
            assert child.stdout.strip() == want, off


# Algorithm 1 layer by layer, as the list form of ``rebalance_all`` ran
# it before the matrix form, copied verbatim (its per-layer argsort
# included): the reference the matrix form must match exactly.
def reference_rebalance_layer(
    self,
    layer: int,
    dimm_of: np.ndarray,
    *,
    exclude: np.ndarray | None = None,
) -> RemapResult:
    """Algorithm 1 for one layer; mutates ``dimm_of`` in place."""
    if self.num_dimms == 1:
        return RemapResult()
    activity = self._activity[layer].astype(np.float64)
    if exclude is not None:
        activity = np.where(exclude, 0.0, activity)
    loads = np.bincount(
        dimm_of, weights=activity, minlength=self.num_dimms
    )
    return reference_rebalance_pairs(self, layer, dimm_of, activity, loads)


def reference_rebalance_pairs(
    self,
    layer: int,
    dimm_of: np.ndarray,
    activity: np.ndarray,
    loads: np.ndarray,
) -> RemapResult:
    """Pair heaviest/lightest DIMMs and drain each pair (lines 2-6)."""
    result = RemapResult()
    order = np.argsort(loads)[::-1]  # heaviest first (line 2)
    for pos in range(self.num_dimms // 2):
        heavy = int(order[pos])
        light = int(order[self.num_dimms - 1 - pos])
        if loads[heavy] <= loads[light]:
            # already balanced: any positive move would overshoot, so
            # the drain loop could only break on its first candidate
            continue
        moved = self._drain_pair(
            layer, dimm_of, activity, loads, heavy, light
        )
        result.merge(moved)
    return result


def reference_rebalance_all(self, dimm_of, *, exclude=None) -> RemapResult:
    """The list form of ``rebalance_all``: :func:`reference_rebalance_layer`
    on every per-layer row, then reset the window."""
    total = RemapResult()
    rows = list(dimm_of)
    for l in range(len(rows)):
        mask = exclude[l] if exclude is not None else None
        total.merge(reference_rebalance_layer(self, l, rows[l], exclude=mask))
    self.reset_window()
    return total


def dimm_loads(activity, dimm_of, num_dimms, exclude=None):
    """(layers, dimms) windowed activated-group load of each DIMM."""
    if exclude is not None:
        activity = np.where(exclude, 0, activity)
    return np.stack([np.bincount(d, weights=a, minlength=num_dimms)
                     for a, d in zip(activity, dimm_of)])


class TestWindowScheduler:
    def make(self, layout, num_dimms=4, window=5):
        return WindowScheduler(layout, num_dimms, window=window)

    def observe_tokens(self, scheduler, layout, rng, n=5, density=0.3):
        shape = (layout.model.num_layers, layout.groups_per_layer)
        for _ in range(n):
            scheduler.observe_token(rng.random(shape) < density)

    def rebalance(self, scheduler, dimm_of, exclude=None):
        """``rebalance_all`` with every layer's max DIMM load before and
        after it, over the window it drains."""
        activity = scheduler._activity.copy()
        n = scheduler.num_dimms
        before = dimm_loads(activity, dimm_of, n, exclude).max(axis=1)
        result = scheduler.rebalance_all(dimm_of, exclude=exclude)
        after = dimm_loads(activity, dimm_of, n, exclude).max(axis=1)
        return result, before, after

    def test_window_fills(self, layout):
        scheduler = self.make(layout, window=3)
        rng = np.random.default_rng(0)
        assert not scheduler.window_full
        self.observe_tokens(scheduler, layout, rng, n=3)
        assert scheduler.window_full

    def test_rebalance_reduces_pair_imbalance(self, layout):
        scheduler = self.make(layout, num_dimms=2)
        rng = np.random.default_rng(1)
        self.observe_tokens(scheduler, layout, rng)
        # heavily skewed: everything on DIMM 0
        dimm_of = np.zeros(
            (layout.model.num_layers, layout.groups_per_layer),
            dtype=np.int64)
        result, before, after = self.rebalance(scheduler, dimm_of)
        assert result.moved_groups > 0
        assert (after < before).all()

    def test_rebalance_never_increases_max_load(self, layout):
        scheduler = self.make(layout, num_dimms=4)
        rng = np.random.default_rng(2)
        self.observe_tokens(scheduler, layout, rng)
        dimm_of = rng.integers(
            0, 4, (layout.model.num_layers, layout.groups_per_layer))
        _, before, after = self.rebalance(scheduler, dimm_of)
        assert (after <= before + 1e-9).all()

    def test_balanced_input_moves_nothing(self, layout):
        scheduler = self.make(layout, num_dimms=2)
        shape = (layout.model.num_layers, layout.groups_per_layer)
        for _ in range(5):
            scheduler.observe_token(np.ones(shape, dtype=bool))
        dimm_of = np.tile(np.arange(shape[1]) % 2, (shape[0], 1))
        result = scheduler.rebalance_all(dimm_of)
        assert result.moved_groups <= shape[0]  # at most one per layer

    def test_single_dimm_is_noop(self, layout):
        scheduler = self.make(layout, num_dimms=1)
        rng = np.random.default_rng(3)
        self.observe_tokens(scheduler, layout, rng)
        dimm_of = np.zeros(
            (layout.model.num_layers, layout.groups_per_layer),
            dtype=np.int64)
        assert scheduler.rebalance_all(dimm_of).moved_groups == 0
        assert not dimm_of.any()

    def test_excluded_groups_do_not_count_or_move(self, layout):
        scheduler = self.make(layout, num_dimms=2)
        rng = np.random.default_rng(4)
        self.observe_tokens(scheduler, layout, rng, density=0.5)
        shape = (layout.model.num_layers, layout.groups_per_layer)
        dimm_of = np.zeros(shape, dtype=np.int64)
        exclude = np.ones(shape, dtype=bool)
        result = scheduler.rebalance_all(dimm_of, exclude=exclude)
        assert result.moved_groups == 0

    def test_rebalance_all_resets_window(self, layout):
        scheduler = self.make(layout, num_dimms=2, window=2)
        rng = np.random.default_rng(5)
        self.observe_tokens(scheduler, layout, rng, n=2)
        dimm_of = np.zeros(
            (layout.model.num_layers, layout.groups_per_layer),
            dtype=np.int64)
        scheduler.rebalance_all(dimm_of)
        assert not scheduler.window_full

    def test_pair_bytes_track_bridges(self, layout):
        scheduler = self.make(layout, num_dimms=2)
        rng = np.random.default_rng(6)
        self.observe_tokens(scheduler, layout, rng, density=0.6)
        dimm_of = np.zeros(
            (layout.model.num_layers, layout.groups_per_layer),
            dtype=np.int64)
        result = scheduler.rebalance_all(dimm_of)
        assert result.moved_bytes == sum(result.pair_bytes.values())
        assert result.max_link_bytes <= result.moved_bytes

    def test_validation(self, layout):
        with pytest.raises(ValueError):
            WindowScheduler(layout, 0)
        with pytest.raises(ValueError):
            WindowScheduler(layout, 2, window=0)
        scheduler = self.make(layout)
        with pytest.raises(ValueError):
            scheduler.observe_token(np.zeros((1, 3), dtype=bool))

    @given(seed=st.integers(0, 500), num_dimms=st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_property_rebalance_monotone(self, layout, seed, num_dimms):
        """Algorithm 1 never increases any layer's max DIMM load."""
        rng = np.random.default_rng(seed)
        scheduler = self.make(layout, num_dimms=num_dimms)
        self.observe_tokens(
            scheduler, layout, rng, density=float(rng.uniform(0.05, 0.6))
        )
        dimm_of = rng.integers(
            0, num_dimms, (layout.model.num_layers, layout.groups_per_layer))
        _, before, after = self.rebalance(scheduler, dimm_of)
        assert (after <= before + 1e-9).all()

    @given(model=st.sampled_from(sorted(REFERENCE_LAYOUTS)),
           num_dimms=st.sampled_from([1, 2, 3, 4, 8, 16]),
           use_exclude=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_matrix_rebalance_matches_list_form(
            self, reference_layouts, model, num_dimms, use_exclude, seed):
        """``rebalance_all`` equals its list form, which runs Algorithm 1
        layer by layer (the reference), on tie-heavy windowed activity
        over skewed DIMM mappings."""
        layout = reference_layouts[model]
        rng = np.random.default_rng(seed)
        shape = (layout.model.num_layers, layout.groups_per_layer)
        matrix_form = self.make(layout, num_dimms=num_dimms)
        list_form = self.make(layout, num_dimms=num_dimms)
        density = rng.uniform(0.05, 0.7, (shape[0], 1))
        for _ in range(matrix_form.window):
            masks = rng.random(shape) < density
            matrix_form.observe_token(masks)
            list_form.observe_token(masks)
        weights = rng.random(num_dimms) ** 3 + 1e-3
        dimm_of = rng.choice(num_dimms, size=shape, p=weights / weights.sum())
        rows = [row.copy() for row in dimm_of]
        exclude = (rng.random(shape) < rng.uniform(0.0, 0.5)
                   if use_exclude else None)
        got = matrix_form.rebalance_all(dimm_of, exclude=exclude)
        want = reference_rebalance_all(list_form, rows, exclude=exclude)
        assert np.array_equal(dimm_of, np.stack(rows))
        assert got.moved_groups == want.moved_groups
        assert got.moved_bytes == want.moved_bytes
        assert got.pair_bytes == want.pair_bytes
        assert not matrix_form.window_full and not list_form.window_full
