"""Motivation statistics (paper §I and §III).

* 20 % of neurons ("hot") carry ~80 % of the computation (§I);
* ~52 % of offline-initialised hot neurons vary their activity during
  inference, so a fixed partition trails an oracle by ~1.63x (§III-B);
* a fixed cold-neuron placement leaves the busiest NDP-DIMM 1.2-2.5x more
  loaded than the average (§III-C).
"""

from __future__ import annotations

import numpy as np

from ..core import HermesConfig, HermesSystem
from ..core.partition import PartitionCosts, assign_dimms
from ..sparsity import (
    dimm_load_imbalance,
    hot_cold_computation_share,
    hot_set_churn,
)
from .common import ExperimentResult, default_machine, trace_for

PAPER_HOT_SHARE = 0.80
PAPER_CHURN = 0.52
PAPER_ORACLE_GAP = 1.63
PAPER_IMBALANCE = (1.2, 2.5)


def run(quick: bool = False) -> ExperimentResult:
    machine = default_machine()
    rows = []

    # hot/cold shares + churn on the motivation models
    t70 = trace_for("LLaMA2-70B", quick=quick)
    share = hot_cold_computation_share(t70)
    churn = hot_set_churn(t70)

    # oracle vs fixed partition (Hermes with no online machinery vs the
    # decode-profiled oracle partition) on LLaMA2-70B, §III-B
    from ..models import get_model
    model = get_model("LLaMA2-70B")
    fixed_cfg = HermesConfig(online_adjustment=False, window_scheduling=False)
    oracle_cfg = HermesConfig(
        online_adjustment=False, window_scheduling=False, oracle=True
    )
    fixed = HermesSystem(machine, model, fixed_cfg).run(t70)
    oracle = HermesSystem(machine, model, oracle_cfg).run(t70)
    gap = fixed.decode_latency_per_token / oracle.decode_latency_per_token

    # fixed-placement load imbalance across 8 DIMMs on LLaMA-13B, §III-C
    t13 = trace_for("LLaMA-13B", quick=quick)
    layout = t13.layout
    freqs = [t13.prefill_frequencies(l) for l in range(t13.num_layers)]
    costs = PartitionCosts(
        gpu_seconds_per_byte=1.0 / machine.gpu.effective_bandwidth,
        dimm_seconds_per_byte=1.0 / machine.dimm.internal_bandwidth,
        sync_seconds=machine.sync_latency,
        num_dimms=machine.num_dimms,
        gpu_budget_bytes=0,  # every neuron on the DIMMs for this statistic
        dimm_capacity_bytes=machine.dimm.capacity_bytes,
    )
    hot_masks = np.zeros((t13.num_layers, layout.groups_per_layer),
                         dtype=bool)
    placement = assign_dimms(freqs, hot_masks, layout, costs, balanced=False)
    imbalances = [
        dimm_load_imbalance(t13, placement[l], l, window=16)
        for l in range(0, t13.num_layers, 4)
    ]

    rows = [
        ["hot 20% computation share", round(share, 3), PAPER_HOT_SHARE],
        ["hot-set churn during decode", round(churn, 3), PAPER_CHURN],
        ["fixed vs oracle slowdown", round(gap, 3), PAPER_ORACLE_GAP],
        ["max fixed-placement DIMM imbalance",
         round(float(np.max(imbalances)), 3), PAPER_IMBALANCE[1]],
        ["mean fixed-placement DIMM imbalance",
         round(float(np.mean(imbalances)), 3), PAPER_IMBALANCE[0]],
    ]
    return ExperimentResult(
        name="motivation",
        description="hot/cold shares, churn, oracle gap, load imbalance",
        headers=["statistic", "measured", "paper"],
        rows=rows,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
