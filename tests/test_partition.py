"""Unit tests for the offline neuron-mapping solver (§IV-B, Eq. 1-7)."""

import numpy as np
import pytest

from repro.core import PartitionCosts, assign_dimms, solve_partition
from repro.sparsity import NeuronLayout, power_law_frequencies


@pytest.fixture(scope="session")
def layout(tiny_model):
    return NeuronLayout.build(tiny_model, granularity=4)


@pytest.fixture
def frequencies(layout):
    rng = np.random.default_rng(2)
    return np.stack([
        power_law_frequencies(layout.groups_per_layer, 0.25, rng=rng)
        for _ in range(layout.model.num_layers)
    ])


def costs_for(layout, *, gpu_fraction=0.3, num_dimms=4) -> PartitionCosts:
    total = layout.sparse_bytes_per_layer() * layout.model.num_layers
    return PartitionCosts(
        gpu_seconds_per_byte=1.0 / 750e9,
        dimm_seconds_per_byte=1.0 / 102e9,
        sync_seconds=15e-6,
        num_dimms=num_dimms,
        gpu_budget_bytes=int(total * gpu_fraction),
        dimm_capacity_bytes=total,  # ample capacity per DIMM
    )


class TestCostValidation:
    def test_rejects_bad_rates(self, layout):
        with pytest.raises(ValueError):
            PartitionCosts(0, 1, 0, 1, 1, 1)
        with pytest.raises(ValueError):
            PartitionCosts(1, 1, -1, 1, 1, 1)
        with pytest.raises(ValueError):
            PartitionCosts(1, 1, 0, 0, 1, 1)


class TestGreedy:
    def test_respects_gpu_budget(self, layout, frequencies):
        costs = costs_for(layout)
        partition = solve_partition(frequencies, layout, costs)
        assert partition.gpu_bytes(layout) <= costs.gpu_budget_bytes

    def test_stops_at_the_balance_target(self, layout, frequencies):
        """Greedy is water-filling: it takes hot mass up to the
        GPU/DIMM-pool balance share, not to raw capacity."""
        from repro.core.partition import gpu_mass_share
        costs = costs_for(layout, gpu_fraction=0.9)  # capacity not binding
        partition = solve_partition(frequencies, layout, costs)
        share = gpu_mass_share(costs)
        for l, mask in enumerate(partition.hot_masks):
            mass = frequencies[l] * layout.group_bytes
            taken = mass[mask].sum() / mass.sum()
            assert taken == pytest.approx(share, abs=0.1)

    def test_picks_hottest_groups(self, layout, frequencies):
        costs = costs_for(layout, gpu_fraction=0.2)
        partition = solve_partition(frequencies, layout, costs)
        # mean frequency of selected groups must beat the population mean
        sel, unsel = [], []
        for l, mask in enumerate(partition.hot_masks):
            sel.extend(frequencies[l][mask])
            unsel.extend(frequencies[l][~mask])
        assert np.mean(sel) > 2 * np.mean(unsel)

    def test_zero_budget_selects_nothing(self, layout, frequencies):
        costs = costs_for(layout, gpu_fraction=0.0)
        partition = solve_partition(frequencies, layout, costs)
        assert partition.gpu_bytes(layout) == 0

    def test_every_group_assigned_to_a_dimm(self, layout, frequencies):
        costs = costs_for(layout)
        partition = solve_partition(frequencies, layout, costs)
        for assignment in partition.dimm_of:
            assert assignment.min() >= 0
            assert assignment.max() < costs.num_dimms


class TestRandom:
    def test_random_respects_budget(self, layout, frequencies):
        costs = costs_for(layout)
        partition = solve_partition(
            frequencies, layout, costs, strategy="random"
        )
        assert partition.gpu_bytes(layout) <= costs.gpu_budget_bytes

    def test_random_hot_set_is_colder_than_greedy(self, layout, frequencies):
        costs = costs_for(layout, gpu_fraction=0.2)
        greedy = solve_partition(frequencies, layout, costs)
        random_p = solve_partition(
            frequencies, layout, costs, strategy="random"
        )

        def hot_mass(partition):
            return sum(float(frequencies[l][m].sum())
                       for l, m in enumerate(partition.hot_masks))

        assert hot_mass(greedy) > hot_mass(random_p)

    def test_seed_determinism(self, layout, frequencies):
        costs = costs_for(layout)
        a = solve_partition(
            frequencies, layout, costs, strategy="random", seed=9
        )
        b = solve_partition(
            frequencies, layout, costs, strategy="random", seed=9
        )
        for ma, mb in zip(a.hot_masks, b.hot_masks):
            assert np.array_equal(ma, mb)


class TestLP:
    def test_lp_respects_budget(self, layout, frequencies):
        costs = costs_for(layout)
        partition = solve_partition(frequencies, layout, costs, strategy="ilp")
        assert partition.gpu_bytes(layout) <= costs.gpu_budget_bytes

    def test_lp_objective_no_worse_than_greedy(self, layout, frequencies):
        """Evaluate Eq. 1 for both solutions; LP must be competitive."""
        costs = costs_for(layout, gpu_fraction=0.15)

        def objective(partition):
            total = 0.0
            for l, freq in enumerate(frequencies):
                load = freq * layout.group_bytes
                gpu = load[partition.hot_masks[l]].sum() \
                    * costs.gpu_seconds_per_byte + 2 * costs.sync_seconds
                dimm_loads = np.zeros(costs.num_dimms)
                cold = ~partition.hot_masks[l]
                np.add.at(
                    dimm_loads,
                    partition.dimm_of[l][cold],
                    load[cold] * costs.dimm_seconds_per_byte,
                )
                total += max(gpu, dimm_loads.max())
            return total

        greedy = solve_partition(frequencies, layout, costs)
        lp = solve_partition(frequencies, layout, costs, strategy="ilp")
        assert objective(lp) <= objective(greedy) * 1.10

    def test_unknown_strategy(self, layout, frequencies):
        with pytest.raises(ValueError):
            solve_partition(
                frequencies, layout, costs_for(layout), strategy="magic"
            )


class TestAssignDimms:
    def test_balanced_beats_round_robin_on_expected_load(
        self, layout, frequencies
    ):
        costs = costs_for(layout)
        hot = np.zeros(frequencies.shape, dtype=bool)
        balanced = assign_dimms(frequencies, hot, layout, costs, balanced=True)
        naive = assign_dimms(frequencies, hot, layout, costs, balanced=False)

        def imbalance(assignment):
            worst = 0.0
            for l, freq in enumerate(frequencies):
                load = freq * layout.group_bytes
                loads = np.zeros(costs.num_dimms)
                np.add.at(loads, assignment[l], load)
                worst = max(worst, loads.max() / loads.mean())
            return worst

        assert imbalance(balanced) <= imbalance(naive)

    def test_capacity_enforced(self, layout, frequencies):
        total = layout.sparse_bytes_per_layer() * layout.model.num_layers
        costs = PartitionCosts(
            gpu_seconds_per_byte=1e-12, dimm_seconds_per_byte=1e-11,
            sync_seconds=0.0, num_dimms=2, gpu_budget_bytes=0,
            dimm_capacity_bytes=total // 8)  # far too small
        hot = np.zeros(frequencies.shape, dtype=bool)
        with pytest.raises(ValueError, match="too small"):
            assign_dimms(frequencies, hot, layout, costs)

    def test_validate_catches_budget_violation(self, layout, frequencies):
        costs = costs_for(layout)
        partition = solve_partition(frequencies, layout, costs)
        partition.hot_masks[0][:] = True  # corrupt
        tight = costs_for(layout, gpu_fraction=0.01)
        with pytest.raises(ValueError):
            partition.validate(layout, tight)


class TestInputValidation:
    def test_wrong_layer_count(self, layout, frequencies):
        with pytest.raises(ValueError):
            solve_partition(frequencies[:-1], layout, costs_for(layout))

    def test_wrong_shape(self, layout, frequencies):
        with pytest.raises(ValueError):
            solve_partition(frequencies[:, :-1], layout, costs_for(layout))

    def test_out_of_range_frequency(self, layout, frequencies):
        bad = frequencies.copy()
        bad[0, 0] = 1.5
        with pytest.raises(ValueError):
            solve_partition(bad, layout, costs_for(layout))

    def test_nan_frequency(self, layout, frequencies):
        bad = frequencies.copy()
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            solve_partition(bad, layout, costs_for(layout))
