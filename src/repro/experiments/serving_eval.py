"""Online serving evaluation: arrival rate vs. latency across policies.

Beyond the paper: the paper evaluates Hermes one generation pass at a time;
this experiment lifts the engine into the production setting the system
targets — open-loop Poisson traffic served with continuous batching — and
sweeps the arrival rate from underload to saturation for each batching
policy.  Reported per (rate, policy): completed requests, cluster token
throughput, P50/P99 time-to-first-token, P50/P99 end-to-end latency,
time-weighted mean batch size, and NDP-DIMM pool utilization.

Expected shape: at low rate every policy matches (the machine is idle most
of the time); near saturation continuous batching sustains several times
the throughput of the request-at-a-time baseline while keeping TTFT
bounded, shortest-output-first trims mean/P50 latency at some tail cost to
long requests, and the Hermes-aware union cap trades a little peak batch
for per-step latency control.
"""

from __future__ import annotations

from ..models import get_model
from ..serving import (
    LengthDistribution,
    ServingConfig,
    ServingSimulator,
    WorkloadConfig,
    default_serving_trace,
    generate_workload,
)
from .common import ExperimentResult
from .runner import run_grid

POLICIES = ("fcfs-nobatch", "fcfs", "sjf", "hermes-union")

#: (model, trace granularity, arrival rates in req/s, workload shape)
FULL_SETTING = dict(
    model="OPT-13B", granularity=128, rates=(1.0, 4.0, 16.0),
    num_requests=32,
    prompt_lens=LengthDistribution(mean=64),
    output_lens=LengthDistribution(kind="uniform", mean=32, low=16, high=48),
)
QUICK_SETTING = dict(
    model="tiny-test", granularity=4, rates=(50.0, 2000.0),
    num_requests=32,
    prompt_lens=LengthDistribution(mean=32),
    output_lens=LengthDistribution(kind="uniform", mean=24, low=8, high=40),
)

WORKLOAD_SEED = 3


def _point(task: tuple[float, str, bool]) -> list:
    """One (arrival rate, policy) cell of the serving sweep."""
    rate, policy, quick = task
    setting = QUICK_SETTING if quick else FULL_SETTING
    trace = default_serving_trace(
        get_model(setting["model"]), granularity=setting["granularity"]
    )
    workload = generate_workload(
        WorkloadConfig(rate=rate,
                       num_requests=setting["num_requests"],
                       prompt_lens=setting["prompt_lens"],
                       output_lens=setting["output_lens"]),
        seed=WORKLOAD_SEED)
    simulator = ServingSimulator(
        setting["model"], policy, ServingConfig(max_batch=16), trace=trace
    )
    report = simulator.run(workload)
    return [
        rate, policy, len(report.completed),
        report.tokens_per_second,
        report.ttft_percentile(50) * 1e3,
        report.ttft_percentile(99) * 1e3,
        report.e2e_percentile(50) * 1e3,
        report.e2e_percentile(99) * 1e3,
        report.mean_batch_size,
        report.dimm_utilization,
    ]


def run(quick: bool = False, jobs: int | None = None) -> ExperimentResult:
    setting = QUICK_SETTING if quick else FULL_SETTING
    points = [(rate, policy, quick)
              for rate in setting["rates"] for policy in POLICIES]
    rows = run_grid(_point, points, jobs=jobs)
    return ExperimentResult(
        name="serving_eval",
        description="continuous-batching serving sweep on "
                    f"{setting['model']} (Poisson arrivals)",
        headers=["req/s", "policy", "done", "tok/s", "TTFT p50 (ms)",
                 "TTFT p99 (ms)", "E2E p50 (ms)", "E2E p99 (ms)",
                 "mean batch", "DIMM util"],
        rows=rows,
        notes=[
            "TTFT = arrival -> first decode-step completion (queue + "
            "prefill + first iteration)",
            "policies: fcfs-nobatch = FCFS without batching (baseline); "
            "hermes-union caps the batch via batch_union_factor",
        ],
    )
