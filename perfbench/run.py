"""The repository benchmark: host cost and simulated service of a workload.

Run from the repository root::

    python3 perfbench/run.py --workload slo_exact --seed 1 --seconds 20 --trace 0

``--trace 0`` is a metric run.  It times nine cold set-ups and as many
full passes as fit in ``--seconds`` (at least two), checks every pass's
outputs, and prints the end-to-end metrics.  ``--trace 1`` is the traced
run: one cold set-up, one untraced pass and one pass with every layer's
entry points patched (see ``tracing.py``); it prints the per-layer
metrics.  Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print each metric with its unit, the percentile sample
counts and the calibration figures.  A provenance manifest for the run
is written to ``.perfbench/results/`` and traced spans to
``.perfbench/spans/``.  The exit code is 1 when an output check fails
and 2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: cold set-ups per metric run; ``setup_s`` is their median
SETUP_REPEATS = 9
#: passes per metric run, at least; more run while ``--seconds`` lasts
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "sim_ttft_p50_ms": "ms",
    "sim_ttft_p99_ms": "ms",
    "sim_tbt_p50_ms": "ms",
    "sim_tbt_p99_ms": "ms",
    "sim_slo_attainment": "fraction",
    "sim_goodput_tok_s": "tok/s",
    "sim_completed_frac": "fraction",
}

PER_LAYER_UNITS = {
    "sparsity.trace_s": "s",
    "cluster.build_s": "s",
    "serving.workload.gen_s": "s",
    "sim.events_per_req": "count/req",
    "sim.resource_events_per_req": "count/req",
    "sim.idle_wakeups_per_req": "count/req",
    "sim.self_share": "fraction",
    "serving.simulator.self_share": "fraction",
    "cluster.slo.admission_calls_per_req": "count/req",
    "cluster.slo.self_share": "fraction",
    "core.prefill_calls": "count",
    "core.decode_step_calls": "count",
    "core.decode_span_calls": "count",
    "core.span_estimate_calls": "count",
    "core.tokens_per_call": "tok/call",
    "core.self_share": "fraction",
    "serving.faults.queries_per_req": "count/req",
    "serving.faults.self_share": "fraction",
    "cluster.routers.self_share": "fraction",
    "serving.migrations_per_req": "count/req",
    "cluster.slo.victim_calls": "count",
    "cluster.slo.preemptions": "count",
    "cluster.slo.victim_hit_ratio": "fraction",
    "cluster.report.self_share": "fraction",
    "mem.setup_mb": "MB",
    "mem.run_mb": "MB",
    "trace.overhead_frac": "fraction",
}


# ----------------------------------------------------------------------
# simulated metrics
# ----------------------------------------------------------------------
def sim_metrics(report, workload) -> tuple[dict[str, float], dict[str, int]]:
    """The ``sim_*`` metrics of one served workload, and the sample
    counts behind its percentiles."""
    sent = len(workload)
    completed = report.completed
    attained = sum(1 for r in completed if all(report.request_attains(r)))
    metrics = {
        "sim_ttft_p50_ms": report.ttft_percentile(50) * 1e3,
        "sim_ttft_p99_ms": report.ttft_percentile(99) * 1e3,
        "sim_tbt_p50_ms": report.tbt_percentile(50) * 1e3,
        "sim_tbt_p99_ms": report.tbt_percentile(99) * 1e3,
        "sim_slo_attainment": attained / sent,
        "sim_goodput_tok_s": report.goodput,
        "sim_completed_frac": len(completed) / sent,
    }
    samples = {
        "ttft": len(completed),
        "tbt": sum(max(0, len(r.token_times) - 1) for r in completed),
    }
    return metrics, samples


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
def write_spec(name: str, seed: int, spec: dict) -> pathlib.Path:
    """The generated scenario file the run loads (kept as provenance)."""
    path = OUT / "specs" / f"{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")
    return path


def cold_setup(api, spec_path: pathlib.Path, sampler=None) -> dict:
    """Load the scenario and build trace, simulator and workload.

    Every call generates a fresh activation trace, so the per-trace
    partition cache starts empty and the simulator pays the offline
    partition solve.  With a ``sampler``, returns each stage's interval.
    """
    marks = [sampler.mark()] if sampler else []
    scenario = api.load_scenario(spec_path)
    trace = scenario.build_trace()
    if sampler:
        marks.append(sampler.mark())
    scenario.build_simulator(trace)
    if sampler:
        marks.append(sampler.mark())
    workload = scenario.build_workload()
    if sampler:
        marks.append(sampler.mark())
    return {"scenario": scenario, "trace": trace, "workload": workload,
            "marks": marks}


def _no_span(layer: str):
    return contextlib.nullcontext()


def serve(built: dict, span=_no_span) -> tuple:
    """One pass: a simulator over the built trace serves the workload,
    then the report's metrics are computed.  ``span(layer)`` brackets
    each stage in the traced run."""
    scenario, workload = built["scenario"], built["workload"]
    with span("cluster.build"):
        sim = scenario.build_simulator(built["trace"])
    with span("serving.simulator"):
        report = sim.run(workload)
    with span("cluster.report"):
        metrics, samples = sim_metrics(report, workload)
    return report, metrics, samples


def rss_mb() -> float:
    """Current resident set size in MB (Linux ``/proc``)."""
    pages = int(pathlib.Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def metric_run(ctx: dict, seconds: float) -> dict:
    """Cold set-ups, then timed passes; returns the end-to-end result."""
    api, calib, checks = ctx["api"], ctx["calib"], ctx["checks"]
    problems: list[str] = []
    with calib.Sampler() as sampler:
        setups = []
        phase = sampler.mark()
        for _ in range(SETUP_REPEATS):
            built = None
            gc.collect()
            start = sampler.mark()
            built = cold_setup(api, ctx["spec_path"])
            setups.append(sampler.interval(start))
        setup_samples = list(sampler.interval(phase).samples_ns)
        setup_each = [calib.calibrate(iv.work_ns, setup_samples)
                      for iv in setups]
        workload = built["workload"]
        may_strand = checks.can_strand(built["scenario"].config.faults)

        passes, first = [], None
        began = time.perf_counter()
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - began < seconds):
            gc.collect()
            start = sampler.mark()
            report, metrics, samples = serve(built)
            interval = sampler.interval(start)
            passes.append(calib.calibrate(interval.work_ns,
                                          list(interval.samples_ns)))
            problems += checks.check_report(report, workload,
                                            may_strand=may_strand)
            if first is None:
                first = metrics, samples, len(report.unfinished)
            else:
                problems += checks.same_metrics(
                    first[0], metrics, f"pass {len(passes)} vs pass 1")
            del report
        kernel_samples = [d for _, d, _ in sampler.samples]
    metrics, samples, unfinished = first
    result = {
        "setup_s": statistics.median(setup_each),
        "run_s": statistics.median(passes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        **metrics,
    }
    return {
        "metrics": result,
        "problems": problems,
        "attempted": len(workload) * len(passes),
        "failed": unfinished * len(passes),
        "details": {
            "passes": len(passes),
            "run_s_each": passes,
            "setup_s_each": setup_each,
            "percentile_samples": samples,
        },
        "kernel_samples": kernel_samples,
    }


def traced_run(ctx: dict) -> dict:
    """One cold set-up, an untraced pass and a traced pass."""
    api, calib, checks, tracing = (ctx["api"], ctx["calib"], ctx["checks"],
                                   ctx["tracing"])
    problems: list[str] = []
    with calib.Sampler() as sampler:
        gc.collect()
        rss_before = rss_mb()
        built = cold_setup(api, ctx["spec_path"], sampler)
        rss_setup = rss_mb() - rss_before
        marks = built["marks"]
        stages = [sampler.interval(a, b) for a, b in zip(marks, marks[1:])]
        workload = built["workload"]
        may_strand = checks.can_strand(built["scenario"].config.faults)

        gc.collect()
        rss_before = rss_mb()
        start = sampler.mark()
        report, plain, samples = serve(built)
        interval = sampler.interval(start)
        rss_run = rss_mb() - rss_before
        plain_s = calib.calibrate(interval.work_ns,
                                  list(interval.samples_ns))
        problems += checks.check_report(report, workload,
                                        may_strand=may_strand)
        unfinished = len(report.unfinished)
        del report

        gc.collect()
        rec = tracing.Recorder()
        start = sampler.mark()
        with tracing.traced(rec), rec.span("pass"):
            report, traced_metrics, _ = serve(built, rec.span)
        interval = sampler.interval(start)
        traced_s = calib.calibrate(interval.work_ns,
                                   list(interval.samples_ns))
        problems += checks.same_metrics(plain, traced_metrics,
                                        "traced pass vs untraced pass")
        kernel_samples = [d for _, d, _ in sampler.samples]
    spans = rec.arrays()
    metrics = layer_metrics(ctx, rec, spans, report, workload)
    # a set-up stage can be shorter than one sampling period, so the
    # stages are calibrated against every sample of the run
    trace_s, build_s, gen_s = (calib.calibrate(iv.work_ns, kernel_samples)
                               for iv in stages)
    metrics.update({
        "sparsity.trace_s": trace_s,
        "cluster.build_s": build_s,
        "serving.workload.gen_s": gen_s,
        "mem.setup_mb": rss_setup,
        "mem.run_mb": rss_run,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    })
    spans_path = OUT / "spans" / f"{ctx['workload']}.npz"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    np = ctx["np"]
    np.savez(spans_path, layers=np.array(tracing.LAYERS), **spans)
    return {
        "metrics": {name: metrics[name] for name in PER_LAYER_UNITS},
        "problems": problems,
        "attempted": 2 * len(workload),
        "failed": 2 * unfinished,
        "details": {
            "spans": len(spans["layer"]),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "untraced_run_s": plain_s,
            "traced_run_s": traced_s,
            "percentile_samples": samples,
        },
        "kernel_samples": kernel_samples,
    }


def layer_metrics(ctx, rec, spans, report, workload) -> dict[str, float]:
    """Per-layer counts and self-time shares of the traced pass."""
    tracing = ctx["tracing"]
    n = len(workload)
    self_ns = tracing.layer_self_times(spans)
    root = float(spans["end"][0] - spans["start"][0])
    count = rec.count
    decode_calls = (count("core.decode_step") + count("core.decode_span")
                    + count("core.span_estimate"))
    victims = count("slo.victim")
    return {
        "sim.events_per_req": count("sim.events") / n,
        "sim.resource_events_per_req": count("sim.resource_events") / n,
        "sim.idle_wakeups_per_req": count("sim.idle_wakeups") / n,
        "sim.self_share": self_ns["sim"] / root,
        "serving.simulator.self_share": self_ns["serving.simulator"] / root,
        "cluster.slo.admission_calls_per_req":
            (count("slo.select") + count("slo.batch_limit")) / n,
        "cluster.slo.self_share": self_ns["cluster.slo"] / root,
        "core.prefill_calls": count("core.prefill_cost"),
        "core.decode_step_calls": count("core.decode_step"),
        "core.decode_span_calls": count("core.decode_span"),
        "core.span_estimate_calls": count("core.span_estimate"),
        "core.tokens_per_call": (report.total_tokens / decode_calls
                                 if decode_calls else 0.0),
        "core.self_share": self_ns["core"] / root,
        "serving.faults.queries_per_req": count("faults.queries") / n,
        "serving.faults.self_share": self_ns["serving.faults"] / root,
        "cluster.routers.self_share": self_ns["cluster.routers"] / root,
        "serving.migrations_per_req": report.migrations / n,
        "cluster.slo.victim_calls": victims,
        "cluster.slo.preemptions": count("slo.victim_hits"),
        "cluster.slo.victim_hit_ratio": (count("slo.victim_hits") / victims
                                         if victims else 0.0),
        "cluster.report.self_share": self_ns["cluster.report"] / root,
    }


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def git_revision() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_hash() -> str:
    """SHA-256 over the simulator's sources, path by path."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(ctx: dict, args, outcome: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "spec_file": str(ctx["spec_path"].relative_to(ROOT)),
        "params_sha256": ctx["params_sha256"],
        "git_revision": git_revision(),
        "source_sha256": source_hash(),
        "python": platform.python_version(),
        "numpy": ctx["np"].__version__,
        "platform": platform.platform(),
        "metrics": outcome["metrics"],
        "problems": outcome["problems"],
        **outcome["details"],
    }


# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_modules() -> dict:
    """Import the simulator and the benchmark's own modules.

    The benchmark is single-threaded: BLAS thread pools are pinned to
    one thread before numpy loads.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    from repro import api
    import calib
    import checks
    import tracing
    import workloads
    return {"np": np, "api": api, "calib": calib, "checks": checks,
            "tracing": tracing, "workloads": workloads}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    ctx = load_modules()
    builders = ctx["workloads"].WORKLOADS
    if args.workload not in builders:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(builders)}", file=sys.stderr)
        return 2
    spec = builders[args.workload](args.seed)
    ctx.update(
        workload=args.workload,
        spec_path=write_spec(args.workload, args.seed, spec),
        params_sha256=ctx["workloads"].params_hash(spec),
        alone=ctx["calib"].alone(),
    )
    if args.trace:
        outcome = traced_run(ctx)
        units = PER_LAYER_UNITS
    else:
        outcome = metric_run(ctx, args.seconds)
        units = END_TO_END_UNITS
    alone = ctx["alone"] + ctx["calib"].alone()
    outcome["details"]["calibration"] = ctx["calib"].summary(
        outcome.pop("kernel_samples"), alone)
    record = manifest(ctx, args, outcome)
    path = OUT / "results" / (f"{args.workload}-seed{args.seed}"
                              f"-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, value in outcome["metrics"].items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    details = outcome["details"]
    print("percentile samples: "
          + ", ".join(f"{k}={v}" for k, v in
                      details["percentile_samples"].items()))
    cal = details["calibration"]
    print(f"calibration: {cal['samples']} samples, median "
          f"{cal['median_s'] * 1e6:.1f} us, IQR {cal['iqr_frac']:.3f}, "
          f"alone {cal['alone_median_s'] * 1e6:.1f} us, interference "
          f"ratio {cal['interference_ratio']:.3f}")
    print(f"manifest: {path.relative_to(ROOT)} (params "
          f"{ctx['params_sha256'][:12]}, source "
          f"{record['source_sha256'][:12]}, git {record['git_revision']})")
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not outcome["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
