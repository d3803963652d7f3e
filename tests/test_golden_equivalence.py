"""Golden-equivalence tests for the vectorized decode fast path.

``tests/data/golden_engine_tiny.json`` was captured from the seed
(pre-vectorization) engine by ``tools/capture_goldens.py``.  The
vectorized engine must reproduce every recorded number *exactly* — JSON
float serialisation round-trips, so every comparison below is bit-for-bit:
per-step ``StepCost`` components, ``RunResult`` breakdowns, predictor
accuracy/recall, remap/swap counters, and the serving simulator's
percentile metrics.

If an intentional engine-semantics change ever invalidates these goldens,
regenerate them with::

    PYTHONPATH=src python tools/capture_goldens.py
"""

import builtins
import json
import math
import pathlib

import pytest

from repro.core import HermesConfig, HermesSystem
from repro.hardware import Machine
from repro.models import get_model
from repro.serving import (
    LengthDistribution,
    ServingConfig,
    ServingSimulator,
    WorkloadConfig,
    default_serving_trace,
    generate_workload,
)
from repro.sparsity import TraceConfig, generate_trace

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_engine_tiny.json"
)
BASELINE_GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_baselines_tiny.json"
)

CONFIGS = {
    "default": HermesConfig(),
    "oracle": HermesConfig(oracle=True),
    "random-no-online": HermesConfig(
        partition_strategy="random", online_adjustment=False,
        window_scheduling=False),
    "token-only": HermesConfig(layer_prediction=False,
                               window_scheduling=False),
    "layer-only": HermesConfig(token_prediction=False,
                               window_scheduling=False),
    "no-window": HermesConfig(window_scheduling=False),
}


SHARED_QUEUE_KEYS = ("fleet3/fcfs", "fleet3/sjf", "fleet3/hermes-union",
                     "trio/fcfs")
ROUTED_KEYS = ("routed4/round-robin", "routed-mixed/round-robin",
               "routed4/session-affinity-crash", "routed4/fast-round-robin",
               "routed4/least-loaded-degrade",
               "routed4/fast-session-affinity-crash")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_trace(golden):
    spec = golden["trace"]
    model = get_model(spec["model"])
    config = TraceConfig(
        prompt_len=spec["prompt_len"],
        decode_len=spec["decode_len"],
        granularity=spec["granularity"],
    )
    return generate_trace(model, config, seed=spec["seed"])


@pytest.fixture(scope="module")
def opt13b_trace():
    from tools.capture_goldens import opt13b_trace

    return opt13b_trace()


@pytest.mark.parametrize(
    "batch, config_name",
    [(batch, name) for batch in (1, 4) for name in sorted(CONFIGS)]
    + [(8, "opt13b/default")])
def test_engine_matches_seed_goldens(golden, golden_trace, opt13b_trace,
                                     config_name, batch):
    """Every engine entry, down to each step's swapped and resident bytes.

    ``opt13b/default`` runs OPT-13B at granularity 128 (40 layers x 200
    groups): the regime of the benchmark's exact workload, where most
    layer adjustments evict.
    """
    key = f"{config_name}/batch{batch}"
    want = golden["engine"][key]
    if config_name.startswith("opt13b/"):
        model, trace = get_model("OPT-13B"), opt13b_trace
        config_name = config_name.removeprefix("opt13b/")
    else:
        model, trace = get_model(golden["trace"]["model"]), golden_trace
    session = HermesSystem(Machine(), model, CONFIGS[config_name]).session(
        trace, batch
    )
    session.prefill()
    steps = [session.decode_step() for _ in range(trace.n_decode_tokens)]
    result = session.finish()

    assert result.prefill_time == want["prefill_time"]
    assert result.decode_time == want["decode_time"]
    assert dict(result.breakdown) == want["breakdown"]
    assert result.metadata["predictor_accuracy"] == \
        want["predictor_accuracy"]
    assert result.metadata["predictor_recall"] == want["predictor_recall"]
    assert result.metadata["remap_bytes"] == want["remap_bytes"]
    assert result.metadata["remap_groups"] == want["remap_groups"]
    assert result.metadata["swap_bytes"] == want["swap_bytes"]
    assert result.metadata["hot_bytes"] == want["hot_bytes"]
    assert [s.seconds for s in steps] == want["step_seconds"]
    assert [s.gpu_busy for s in steps] == want["step_gpu_busy"]
    assert [s.dimm_busy for s in steps] == want["step_dimm_busy"]
    assert [s.swap_bytes for s in steps] == want["step_swap_bytes"]
    assert [s.resident_bytes for s in steps] == want["step_resident_bytes"]


@pytest.mark.parametrize("rate", (50.0, 2000.0))
@pytest.mark.parametrize("policy", ("fcfs", "hermes-union"))
def test_serving_matches_seed_goldens(golden, rate, policy):
    want = golden["serving"][f"rate{rate:g}/{policy}"]
    model = get_model("tiny-test")
    trace = default_serving_trace(model, granularity=4)
    workload = generate_workload(
        WorkloadConfig(
            rate=rate, num_requests=32,
            prompt_lens=LengthDistribution(mean=32),
            output_lens=LengthDistribution(kind="uniform", mean=24,
                                           low=8, high=40)),
        seed=3)
    report = ServingSimulator("tiny-test", policy,
                              ServingConfig(max_batch=16),
                              trace=trace).run(workload)
    assert len(report.completed) == want["completed"]
    assert report.tokens_per_second == want["tokens_per_second"]
    assert report.ttft_percentile(50) == want["ttft_p50"]
    assert report.ttft_percentile(99) == want["ttft_p99"]
    assert report.e2e_percentile(50) == want["e2e_p50"]
    assert report.e2e_percentile(99) == want["e2e_p99"]
    assert report.mean_batch_size == want["mean_batch"]
    assert report.dimm_utilization == want["dimm_utilization"]
    assert report.makespan == want["makespan"]


@pytest.fixture(scope="module")
def fleet_runs():
    from tools.capture_goldens import fleet_runs

    return fleet_runs()


@pytest.mark.parametrize("key", SHARED_QUEUE_KEYS)
def test_shared_queue_fleets_match_goldens(golden, fleet_runs, key):
    """Multi-machine shared-queue fleets are pinned to every token.

    Machines admitting from one queue tie on exact boundary times, so
    which machine steals which request depends on the calendar's
    same-instant ordering; per-request machines and token timestamps,
    per-machine busy time and the batch/queue samples pin it absolutely.
    """
    from tools.capture_goldens import fleet_outputs

    simulator, workload = fleet_runs[key]
    report = simulator.run(list(workload))
    # round-trip through JSON so float repr conventions match the file
    assert json.loads(json.dumps(fleet_outputs(report))) == \
        golden["serving"][key]


@pytest.fixture(scope="module")
def routed_runs():
    from tools.capture_goldens import routed_runs

    return routed_runs()


@pytest.mark.parametrize("key", ROUTED_KEYS)
def test_routed_fleets_match_goldens(golden, routed_runs, key):
    """Routed cluster fleets are pinned to every token and migration.

    Round-robin on a hermes fleet and on a dense/dejavu mix,
    session-affinity routing whose crash drill re-routes refugees, the
    round-robin fleet at fast fidelity, a least-loaded fleet whose
    degrade evicts residents while a peer straggles, and the crash
    drill at fast fidelity, where a crash cuts a span after some of its
    tokens finished and the span keeps that prefix: the router's
    decisions, each request's machine, token timestamps and migration
    count, and the per-machine busy time pin the cluster front door
    absolutely.
    """
    from tools.capture_goldens import routed_outputs

    simulator, workload = routed_runs[key]
    report = simulator.run(list(workload))
    assert json.loads(json.dumps(routed_outputs(report))) == \
        golden["serving"][key]


def compensated_sum(iterable, /, start=0):
    """A port of Python 3.12's builtin ``sum``: an int start and int
    items add exactly until the first other item, and from a float on,
    floats add with Neumaier compensation (3.11 rounds every addition).
    Items of other types fall back to ``+``."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) not in (int, bool):
                result = result + item
                break
            result += item
        else:
            return result
    if type(result) is not float:
        for item in items:
            result = result + item
        return result
    total, c = result, 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                c += (total - t) + item
            else:
                c += (item - t) + total
            total = t
        elif isinstance(item, int) and -2**63 <= item < 2**63:
            total += float(item)
        else:
            if c and math.isfinite(c):
                total += c
            result = total + item
            for item in items:
                result = result + item
            return result
    if c and math.isfinite(c):
        total += c
    return total


def test_routed_goldens_hold_under_compensated_sum(golden, routed_runs):
    """The round-robin fleet's goldens hold with ``builtins.sum``
    swapped for Python 3.12's compensated float sum, as CI's 3.12 and
    3.13 jobs run it: every float sum that feeds a reported value is
    ``math.fsum``, correctly rounded on every version.  A builtin sum
    over the machines' DIMM busy time once moved this fleet's
    ``dimm_utilization`` by one ulp under it."""
    from tools.capture_goldens import routed_outputs

    # the port compensates: 3.11's sum gives 0.9999999999999999 here
    assert compensated_sum([0.1] * 10) == 1.0
    simulator, workload = routed_runs["routed4/round-robin"]
    builtin = builtins.sum
    builtins.sum = compensated_sum
    try:
        outputs = routed_outputs(simulator.run(list(workload)))
    finally:
        builtins.sum = builtin
    assert json.loads(json.dumps(outputs)) == \
        golden["serving"]["routed4/round-robin"]


@pytest.mark.parametrize("key", SHARED_QUEUE_KEYS + ROUTED_KEYS)
def test_fleet_telemetry_matches_goldens(golden, fleet_runs, routed_runs,
                                         key):
    """Every fleet's telemetry stream is pinned by count and digest.

    The report goldens above pin no event field; the SHA-256 of the
    canonical stream pins them all, a ``DecodeStep``'s seconds, busy
    times, swap and resident bytes and ``req_ids`` included.
    """
    from tools.capture_goldens import telemetry_digest

    simulator, workload = {**fleet_runs, **routed_runs}[key]
    assert telemetry_digest(simulator, workload) == golden["telemetry"][key]


@pytest.fixture(scope="module")
def baseline_golden():
    return json.loads(BASELINE_GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "name", ("flexgen", "dejavu", "accelerate", "tensorrt", "hermes-host")
)
@pytest.mark.parametrize("batch", (1, 4))
def test_baselines_match_goldens(baseline_golden, name, batch):
    """The offline baselines' RunResults are pinned bit-for-bit.

    Their per-token cost kernels back both the comparative figures
    (fig09-fig11, fig17) and the steppable serving backends, so any
    refactor of the byte accounting must reproduce these numbers
    exactly.  Hermes-host pins its predictor and online swaps too.
    """
    from tools.capture_goldens import _baseline_systems

    spec = baseline_golden["trace"]
    model = get_model(spec["model"])
    trace = generate_trace(
        model,
        TraceConfig(prompt_len=spec["prompt_len"],
                    decode_len=spec["decode_len"],
                    granularity=spec["granularity"]),
        seed=spec["seed"])
    system = _baseline_systems(Machine(), model)[name]
    result = system.run(trace, batch=batch)
    want = baseline_golden["baselines"][f"{name}/batch{batch}"]
    assert result.system == want["system"]
    assert result.prefill_time == want["prefill_time"]
    assert result.decode_time == want["decode_time"]
    assert dict(result.breakdown) == want["breakdown"]
    assert json.loads(json.dumps(result.metadata)) == want["metadata"]
