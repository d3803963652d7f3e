"""Capture golden outputs of the Hermes engine on ``tiny-test``.

Run once against a known-good engine to (re)generate
``tests/data/golden_engine_tiny.json`` and
``tests/data/golden_baselines_tiny.json``;
``tests/test_golden_equivalence.py`` then asserts that the current code
reproduces every recorded number exactly.  JSON float serialisation
round-trips (repr-based), so equality checks are bit-for-bit.

The engine section pins every step's cost, swapped bytes and resident
bytes for the default config and the Fig. 13 ablations on ``tiny-test``,
plus one OPT-13B entry at granularity 128 and batch 8: the 40-layer
regime the benchmark's exact workload runs in, where most online
adjustments evict.

The second file pins the *offline baseline systems* (FlexGen, Deja Vu,
Accelerate, TensorRT-LLM, Hermes-host): their ``run()`` byte accounting
backs the paper's comparative figures (fig09-fig11, fig17) and the
steppable serving backends, so refactors of their cost kernels are
guarded the same way the Hermes engine is.  Hermes-host runs the
predictor and the online swaps on the ``tiny-test`` trace, where its
swaps also evict.

The serving section also pins multi-machine shared-queue fleets (three
identical machines per policy, and a hermes/dense/dejavu trio) down to
every request's machine and token timestamps, so a change to the event
calendar's same-instant ordering shows up as drift.  Routed cluster
fleets (round-robin on hermes and on a dense/dejavu mix, and
session-affinity under two crash/restart windows) are pinned the same
way, plus every request's migration count.  Two more routed entries pin
the fault-free fast-fidelity span loop and a least-loaded fleet whose
small-DIMM machines straggle and degrade, so a degrade evicts residents.
The crash drill also runs at fast fidelity with its crashes moved to
instants that land inside a decode span after some of its tokens
finished, so a span keeps its finished prefix.

The telemetry section re-runs every shared-queue and routed fleet under a
:class:`~repro.telemetry.RecordingTracer` and pins the count of each
event type and the SHA-256 of the whole stream (canonical JSON of
``[type name, fields]`` per event), so every event field — a
``DecodeStep``'s seconds, busy times, swap and resident bytes and
``req_ids`` included — is pinned without storing its values.

``--verify`` instead *recomputes* every golden and diffs it against the
committed files without writing anything — the CI golden-drift gate.  It
covers the same ground as the equivalence test but from a clean process
with zero pytest machinery, so a drift report names exactly which
recorded quantity moved.

Usage::

    PYTHONPATH=src python tools/capture_goldens.py [engine_output.json]
    PYTHONPATH=src python tools/capture_goldens.py --verify
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import json
import pathlib
import sys

from repro.baselines import (
    DejaVu,
    FlexGen,
    HermesHost,
    HuggingfaceAccelerate,
    TensorRTLLM,
)
from repro.cluster import ClusterConfig, ClusterSimulator
from repro.core import HermesConfig, HermesSystem
from repro.hardware import Machine
from repro.models import get_model
from repro.serving import (
    LengthDistribution,
    MachineGroup,
    ServingConfig,
    ServingSimulator,
    WorkloadConfig,
    default_serving_trace,
    generate_workload,
)
from repro.serving.faults import (
    CrashSpec,
    DegradeSpec,
    FaultSchedule,
    StragglerSpec,
)
from repro.serving.workload import merge_workloads
from repro.sparsity import TraceConfig, generate_trace
from repro.telemetry import RecordingTracer

#: mirrors tests/conftest.py's ``tiny_trace``
TRACE_CONFIG = dict(prompt_len=32, decode_len=64, granularity=4)
TRACE_SEED = 11

#: engine configurations exercised by the goldens — the default plus the
#: Fig. 13 ablation space, so every control-plane path is pinned
CONFIGS: dict[str, HermesConfig] = {
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
BATCHES = (1, 4)
#: the regime perfbench's ``slo_exact`` runs the engine in — OPT-13B at
#: 40 layers x 200 groups, batch 8 — where most layer calls evict
OPT13B_TRACE_CONFIG = dict(prompt_len=64, decode_len=64, granularity=128)
OPT13B_BATCH = 8

SERVING_RATES = (50.0, 2000.0)
SERVING_POLICIES = ("fcfs", "hermes-union")
SERVING_SEED = 3

#: multi-machine shared-queue fleets: identical machines tie on exact
#: token boundaries constantly, so these pin the event calendar's
#: same-instant ordering (which machine steals which request) absolutely
FLEET_TRACE_CONFIG = dict(prompt_len=16, decode_len=24, granularity=8)
FLEET_MACHINES = 3
FLEET_POLICIES = ("fcfs", "sjf", "hermes-union")
FLEET_SEED = 9
#: one machine of each backend behind one queue — step latencies differ
#: wildly, so the machines' token boundaries interleave irregularly
TRIO_BACKENDS = ("hermes", "dense", "dejavu")
TRIO_SEED = 13

#: routed cluster fleets: four machines behind a router, each tenant
#: stream seeded ``seed + i``; the crash drill re-routes refugees
ROUTED_TENANTS = 4
ROUTED_CRASHES = (
    CrashSpec(machine=1, at=0.05, restart_after=0.1),
    CrashSpec(machine=2, at=0.12, restart_after=0.15),
)
#: the crash drill's fast-fidelity twin: the crash at 0.03 s lands
#: inside a span after some of its tokens finished (at the drill's own
#: instants fast fidelity makes no partial grant)
FAST_ROUTED_CRASHES = (
    CrashSpec(machine=1, at=0.03, restart_after=0.1),
    CrashSpec(machine=2, at=0.07, restart_after=0.15),
)
#: a straggler window and a half-DIMM degrade on a least-loaded fleet of
#: small-DIMM machines, where the degrade's shrunken KV pool evicts
ROUTED_DEGRADES = FaultSchedule(
    degrades=(DegradeSpec(1, 0.05, dimm_fraction=0.5),),
    stragglers=(StragglerSpec(2, 0.03, 0.12, 4.0),),
)
#: bytes per DIMM of the degrade drill's machines: room for ~1600
#: resident tiny-test KV tokens pristine but ~40 on half the pool
SMALL_DIMM_BYTES = 1_613_824


def engine_run(machine: Machine, model, config: HermesConfig, trace,
               batch: int) -> dict:
    """One engine session over ``trace`` down to every step's cost."""
    session = HermesSystem(machine, model, config).session(trace, batch)
    session.prefill()
    steps = [session.decode_step() for _ in range(trace.n_decode_tokens)]
    result = session.finish()
    return {
        "prefill_time": result.prefill_time,
        "decode_time": result.decode_time,
        "breakdown": dict(result.breakdown),
        "predictor_accuracy": result.metadata["predictor_accuracy"],
        "predictor_recall": result.metadata["predictor_recall"],
        "remap_bytes": result.metadata["remap_bytes"],
        "remap_groups": result.metadata["remap_groups"],
        "swap_bytes": result.metadata["swap_bytes"],
        "hot_bytes": result.metadata["hot_bytes"],
        "step_seconds": [s.seconds for s in steps],
        "step_gpu_busy": [s.gpu_busy for s in steps],
        "step_dimm_busy": [s.dimm_busy for s in steps],
        "step_swap_bytes": [s.swap_bytes for s in steps],
        "step_resident_bytes": [s.resident_bytes for s in steps],
    }


def opt13b_trace():
    """The OPT-13B trace of the ``opt13b/default/batch8`` engine entry."""
    return generate_trace(get_model("OPT-13B"),
                          TraceConfig(**OPT13B_TRACE_CONFIG), seed=TRACE_SEED)


def engine_goldens() -> dict:
    machine = Machine()
    model = get_model("tiny-test")
    trace = generate_trace(model, TraceConfig(**TRACE_CONFIG), seed=TRACE_SEED)
    runs = {
        f"{name}/batch{batch}": engine_run(machine, model, config, trace,
                                           batch)
        for name, config in CONFIGS.items() for batch in BATCHES
    }
    runs[f"opt13b/default/batch{OPT13B_BATCH}"] = engine_run(
        machine, get_model("OPT-13B"), HermesConfig(), opt13b_trace(),
        OPT13B_BATCH)
    return runs


def _report_metrics(report) -> dict:
    return {
        "completed": len(report.completed),
        "tokens_per_second": report.tokens_per_second,
        "ttft_p50": report.ttft_percentile(50),
        "ttft_p99": report.ttft_percentile(99),
        "e2e_p50": report.e2e_percentile(50),
        "e2e_p99": report.e2e_percentile(99),
        "mean_batch": report.mean_batch_size,
        "dimm_utilization": report.dimm_utilization,
        "makespan": report.makespan,
    }


def fleet_outputs(report) -> dict:
    """A multi-machine report down to every per-token timestamp."""
    return {
        **_report_metrics(report),
        "machine_gpu_busy": report.machine_gpu_busy,
        "machine_dimm_busy": report.machine_dimm_busy,
        "batch_samples": [list(s) for s in report.batch_samples],
        "queue_samples": [list(s) for s in report.queue_samples],
        "records": {
            str(r.request.req_id): {
                "machine": r.machine,
                "prefill_start": r.prefill_start,
                "token_times": list(r.token_times),
            }
            for r in report.records
        },
    }


def fleet_runs() -> dict:
    """The shared-queue fleets as ``key -> (simulator, workload)``."""
    model = get_model("tiny-test")
    trace = generate_trace(model, TraceConfig(**FLEET_TRACE_CONFIG),
                           seed=TRACE_SEED)
    lengths = dict(prompt_lens=LengthDistribution(mean=24),
                   output_lens=LengthDistribution(kind="uniform", mean=12,
                                                  low=4, high=20))
    fleet_workload = generate_workload(
        WorkloadConfig(rate=2000.0, num_requests=36, **lengths),
        seed=FLEET_SEED)
    runs = {
        f"fleet{FLEET_MACHINES}/{policy}": (
            ServingSimulator(
                "tiny-test", policy,
                ServingConfig(max_batch=6, num_machines=FLEET_MACHINES),
                trace=trace),
            fleet_workload)
        for policy in FLEET_POLICIES
    }
    runs["trio/fcfs"] = (
        ServingSimulator(
            "tiny-test", "fcfs", ServingConfig(max_batch=6), trace=trace,
            fleet=[MachineGroup(count=1, backend=b) for b in TRIO_BACKENDS]),
        generate_workload(
            WorkloadConfig(rate=2000.0, num_requests=30, **lengths),
            seed=TRIO_SEED))
    return runs


def _tenant_workload(per: int, rate: float, seed: int) -> list:
    return merge_workloads(*[
        generate_workload(WorkloadConfig(num_requests=per, rate=rate),
                          seed=seed + i, tenant=f"t{i}")
        for i in range(ROUTED_TENANTS)
    ])


def _small_dimm_machine() -> Machine:
    """The default machine with every DIMM shrunk to
    :data:`SMALL_DIMM_BYTES`."""
    base = Machine()
    geometry = dataclasses.replace(base.dimm.geometry,
                                   capacity_bytes=SMALL_DIMM_BYTES)
    return dataclasses.replace(
        base, dimm=dataclasses.replace(base.dimm, geometry=geometry))


def routed_runs() -> dict:
    """The routed cluster fleets as ``key -> (simulator, workload)``."""
    base = ClusterConfig(num_machines=4, router="round-robin", max_batch=4)
    workload = _tenant_workload(per=20, rate=120.0, seed=7)
    chaos = ClusterConfig(num_machines=4, router="session-affinity",
                          max_batch=4,
                          faults=FaultSchedule(crashes=ROUTED_CRASHES))
    degrade = ClusterConfig(num_machines=4, router="least-loaded",
                            max_batch=4, faults=ROUTED_DEGRADES)
    return {
        "routed4/round-robin": (
            ClusterSimulator("tiny-test", "fcfs", base), workload),
        "routed-mixed/round-robin": (
            ClusterSimulator(
                "tiny-test", "fcfs", base,
                fleet=[MachineGroup(count=2, backend="dense"),
                       MachineGroup(count=2, backend="dejavu")]),
            workload),
        "routed4/session-affinity-crash": (
            ClusterSimulator("tiny-test", "fcfs", chaos),
            _tenant_workload(per=25, rate=300.0, seed=13)),
        "routed4/fast-round-robin": (
            ClusterSimulator("tiny-test", "fcfs",
                             dataclasses.replace(base, fidelity="fast")),
            workload),
        "routed4/least-loaded-degrade": (
            ClusterSimulator("tiny-test", "fcfs", degrade,
                             machine=_small_dimm_machine()),
            _tenant_workload(per=25, rate=300.0, seed=13)),
        "routed4/fast-session-affinity-crash": (
            ClusterSimulator(
                "tiny-test", "fcfs",
                dataclasses.replace(
                    chaos, fidelity="fast",
                    faults=FaultSchedule(crashes=FAST_ROUTED_CRASHES))),
            _tenant_workload(per=25, rate=300.0, seed=13)),
    }


def routed_outputs(report) -> dict:
    """:func:`fleet_outputs` plus every request's migration count."""
    out = fleet_outputs(report)
    for r in report.records:
        out["records"][str(r.request.req_id)]["migrations"] = r.migrations
    return out


def telemetry_digest(simulator, workload) -> dict:
    """A traced run's event count per type and the SHA-256 of its
    stream, serialised as canonical JSON of ``[type name, fields]`` per
    event."""
    tracer = RecordingTracer()
    simulator.run(list(workload), tracer=tracer)
    stream = json.dumps(
        [[type(e).__name__, dataclasses.asdict(e)] for e in tracer.events],
        sort_keys=True, allow_nan=False, separators=(",", ":"))
    counts = collections.Counter(type(e).__name__ for e in tracer.events)
    return {"counts": dict(sorted(counts.items())),
            "sha256": hashlib.sha256(stream.encode()).hexdigest()}


def telemetry_goldens() -> dict:
    """Every shared-queue and routed fleet's :func:`telemetry_digest`."""
    return {key: telemetry_digest(simulator, workload)
            for key, (simulator, workload)
            in {**fleet_runs(), **routed_runs()}.items()}


def serving_goldens() -> dict:
    model = get_model("tiny-test")
    trace = default_serving_trace(model, granularity=4)
    runs = {}
    for rate in SERVING_RATES:
        workload = generate_workload(
            WorkloadConfig(
                rate=rate, num_requests=32,
                prompt_lens=LengthDistribution(mean=32),
                output_lens=LengthDistribution(kind="uniform", mean=24,
                                               low=8, high=40)),
            seed=SERVING_SEED)
        for policy in SERVING_POLICIES:
            simulator = ServingSimulator(
                "tiny-test", policy, ServingConfig(max_batch=16), trace=trace
            )
            report = simulator.run(workload)
            runs[f"rate{rate:g}/{policy}"] = _report_metrics(report)
    for key, (simulator, workload) in fleet_runs().items():
        runs[key] = fleet_outputs(simulator.run(list(workload)))
    for key, (simulator, workload) in routed_runs().items():
        runs[key] = routed_outputs(simulator.run(list(workload)))
    return runs


#: offline baseline systems pinned by the second golden file; TensorRT
#: models its own 5x A100 cluster, the rest run on the default machine
BASELINE_BATCHES = (1, 4)


def _baseline_systems(machine: Machine, model) -> dict:
    return {
        "flexgen": FlexGen(machine, model),
        "dejavu": DejaVu(machine, model),
        "accelerate": HuggingfaceAccelerate(machine, model),
        "tensorrt": TensorRTLLM(model),
        "hermes-host": HermesHost(machine, model),
    }


def baseline_goldens() -> dict:
    machine = Machine()
    model = get_model("tiny-test")
    trace = generate_trace(model, TraceConfig(**TRACE_CONFIG), seed=TRACE_SEED)
    runs = {}
    for name, system in _baseline_systems(machine, model).items():
        for batch in BASELINE_BATCHES:
            result = system.run(trace, batch=batch)
            runs[f"{name}/batch{batch}"] = {
                "system": result.system,
                "prefill_time": result.prefill_time,
                "decode_time": result.decode_time,
                "breakdown": dict(result.breakdown),
                "metadata": dict(result.metadata),
            }
    return runs


def _flatten(value, prefix: str = "") -> dict:
    """Flatten nested dicts/lists to dotted-path -> leaf scalars."""
    flat = {}
    if isinstance(value, dict):
        for key, sub in value.items():
            flat.update(_flatten(sub, f"{prefix}{key}."))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            flat.update(_flatten(sub, f"{prefix}{i}."))
    else:
        flat[prefix.rstrip(".")] = value
    return flat


def verify(path: pathlib.Path, goldens: dict) -> int:
    """Diff freshly-computed goldens against the committed record."""
    if not path.exists():
        print(f"FAIL: no committed goldens at {path}", file=sys.stderr)
        return 1
    # round-trip through JSON so float repr conventions match the file
    current = _flatten(json.loads(json.dumps(goldens)))
    recorded = _flatten(json.loads(path.read_text()))
    drifted = sorted(
        key for key in set(current) | set(recorded)
        if current.get(key) != recorded.get(key))
    if drifted:
        print(
            f"FAIL: {len(drifted)} golden value(s) drifted from {path}:",
            file=sys.stderr,
        )
        for key in drifted[:20]:
            print(f"  {key}: recorded {recorded.get(key)!r} -> "
                  f"current {current.get(key)!r}", file=sys.stderr)
        if len(drifted) > 20:
            print(f"  ... and {len(drifted) - 20} more", file=sys.stderr)
        print("if the change is intentional, regenerate with "
              "tools/capture_goldens.py", file=sys.stderr)
        return 1
    print(f"OK: {len(current)} golden values match {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", default=None,
                        help="engine golden file (default: "
                             "tests/data/golden_engine_tiny.json); the "
                             "baseline goldens land next to it")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="recompute goldens and fail on any drift " "instead of writing",
    )
    args = parser.parse_args(argv)
    data_dir = (
        pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"
    )
    out = (
        pathlib.Path(args.path)
        if args.path
        else data_dir / "golden_engine_tiny.json"
    )
    trace_spec = {**TRACE_CONFIG, "seed": TRACE_SEED, "model": "tiny-test"}
    files = {
        out: {
            "trace": trace_spec,
            "engine": engine_goldens(),
            "serving": serving_goldens(),
            "telemetry": telemetry_goldens(),
        },
        out.parent / "golden_baselines_tiny.json": {
            "trace": trace_spec,
            "baselines": baseline_goldens(),
        },
    }
    if args.verify:
        return max(verify(path, goldens) for path, goldens in files.items())
    for path, goldens in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
