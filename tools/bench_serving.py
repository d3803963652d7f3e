"""Serving benchmark driver: record and gate the cluster scenario path.

Companion to ``tools/bench.py`` (decode fast path) for the serving
layer: measures end-to-end runs/sec of the CI smoke scenario
(``scenarios/mixed_slo_tiny.json``), the mixed-fleet backend scenario
(``scenarios/backend_shootout_tiny.json``), the fault-injection
drill (``scenarios/chaos_mixed_tiny.json``), and the 1000-machine
scale drill (``scenarios/megafleet_1k.json``: one ``fidelity: fast``
run in which each arrival wakes only its machine), maintaining
``BENCH_serving.json`` at the repo root.  Modes:

* default — measure and print, compare informationally.
* ``--check`` — exit non-zero when the *simulated* metrics (tokens/s,
  SLO attainment, preemptions) drift from the committed record beyond
  float noise, **or** when a scenario's runs/sec fall more than
  ``--tolerance`` (default 40 %) below the committed baseline after
  calibration scaling.  Simulated outputs are deterministic, so the
  drift half is a golden-style behaviour gate on the full cluster
  stack; the wall-time half guards the serving loop end to end the
  way ``tools/bench.py`` guards ``decode_step``.
* ``--update`` — rewrite ``BENCH_serving.json`` with this machine's
  numbers (appends the previous record to its ``history``).
* ``--quick`` — shorter measurement window; what CI runs.
* ``--json-out PATH`` — also dump this run's record (for CI artifacts).

Usage::

    PYTHONPATH=src python tools/bench_serving.py --quick
    PYTHONPATH=src python tools/bench_serving.py --quick --check
    PYTHONPATH=src python tools/bench_serving.py --update
"""

from __future__ import annotations

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from benchmarks.bench_decode import bench_calibration  # noqa: E402
from benchmarks.bench_serving import (  # noqa: E402
    BENCH_MIXED_FLEET_SCENARIO,
    bench_degradation,
    bench_fault_overhead,
    bench_megafleet,
    bench_planner,
    bench_scenario,
    bench_telemetry_overhead,
)
from tools.bench_common import (  # noqa: E402
    calibration_scale,
    emit_outputs,
    load_baseline,
    make_parser,
)

BENCH_FILE = ROOT / "BENCH_serving.json"

#: records whose wall time and ``simulated`` half are gated by --check
GATED_KEYS = ("scenario", "mixed_fleet", "fault_overhead",
              "degradation", "planner", "megafleet_1k")

#: relative tolerance for the deterministic simulated-metric gate —
#: generous against float-libm jitter across platforms, far below any
#: real scheduling-behaviour change
DRIFT_RTOL = 1e-6


def measure(quick: bool) -> dict:
    min_seconds = 0.5 if quick else 2.0
    return {
        "schema": 1,
        "recorded_unix": round(time.time(), 3),
        "quick": quick,
        "calibration_iters_per_sec": bench_calibration(),
        "scenario": bench_scenario(min_seconds=min_seconds),
        # the heterogeneous hermes/dense/dejavu fleet behind the
        # throughput-weighted router: pins the backend dispatch path
        "mixed_fleet": bench_scenario(BENCH_MIXED_FLEET_SCENARIO,
                                      min_seconds=min_seconds / 2),
        # the fault-injection drill: pins migrations, availability,
        # and MTTR alongside the usual scenario metrics
        "fault_overhead": bench_fault_overhead(
            min_seconds=min_seconds / 2),
        # the correlated-failure drill: pins the domain crash +
        # degrade/renegotiation path (per-domain availability and
        # correlated-outage seconds)
        "degradation": bench_degradation(min_seconds=min_seconds / 2),
        # the capacity planner over the smoke scenario: pins the
        # enumerate/prune/frontier counts and the chosen fleet
        "planner": bench_planner(min_seconds=min_seconds / 2),
        # the 1000-machine scale drill (front door + fidelity:fast):
        # one cold end-to-end run, identical in quick and full mode
        "megafleet_1k": bench_megafleet(),
        # what enabling telemetry costs, recorded informationally —
        # the gated keys above run the default NullTracer path
        "telemetry": bench_telemetry_overhead(min_seconds=min_seconds / 2),
    }


def _drifted(current: dict, baseline: dict, prefix: str = "") -> list[str]:
    """Human-readable diffs between simulated metric records."""
    problems = []
    for key in sorted(set(current) | set(baseline)):
        label = f"{prefix}{key}"
        if key not in current or key not in baseline:
            problems.append(f"{label}: missing on one side")
            continue
        want, got = baseline[key], current[key]
        if isinstance(want, dict):
            problems.extend(_drifted(got, want, f"{label}."))
            continue
        if isinstance(want, float) and want:
            ok = abs(got - want) <= DRIFT_RTOL * abs(want)
        else:
            ok = got == want
        if not ok:
            problems.append(
                f"{label}: baseline {want!r} -> " f"current {got!r}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = make_parser(
        __doc__.splitlines()[0],
        BENCH_FILE,
        tolerance=0.40,
        check_help="fail if simulated serving metrics drift "
                   "from the committed baseline",
    )
    args = parser.parse_args(argv)

    current = measure(args.quick)
    for key in GATED_KEYS:
        scen = current[key]
        sim = scen["simulated"]
        print(f"scenario {scen['scenario']}: {scen['runs_per_sec']:.2f} "
              f"runs/sec ({scen['runs']} runs in {scen['seconds']:.2f}s)")
        if "tokens_per_second" in sim:
            print(f"simulated: {sim['tokens_per_second']:,.0f} tok/s, "
                  f"{sim['preemptions']} preemptions, "
                  f"slo_joint {sim['slo_joint']}")
        if "migrations" in sim:
            print(f"faults: {sim['migrations']} migrations, "
                  f"availability {sim['availability']:.4f}, "
                  f"MTTR {sim['mean_time_to_recover'] * 1e3:.1f} ms, "
                  f"{sim['unfinished']} unfinished")
        if "correlated_outage_seconds" in sim:
            per_domain = ", ".join(
                f"{name} {avail:.4f}"
                for name, avail in sim["domain_availability"].items())
            print(f"domains: correlated outage "
                  f"{sim['correlated_outage_seconds'] * 1e3:.1f} ms, "
                  f"availability {per_domain}")
        if "num_candidates" in sim:
            best = sim["best"] or {}
            chosen = (f"{best.get('count')}x {best.get('backend')} on "
                      f"{best.get('gpu')}" if best else "none")
            print(f"planner: {sim['num_candidates']} candidates, "
                  f"{sim['num_pruned']} pruned, frontier "
                  f"{sim['frontier_size']}, best {chosen}")
    tel = current["telemetry"]
    print(f"telemetry: recording {tel['events_per_run']} events costs "
          f"{tel['recording_overhead_frac'] * 100:.0f}% "
          f"({tel['recording_runs_per_sec']:.2f} vs "
          f"{tel['untraced_runs_per_sec']:.2f} runs/sec untraced)")

    baseline = load_baseline(BENCH_FILE)

    status = 0
    if baseline is not None:
        scale, suffix = calibration_scale(current, baseline)
        for key in GATED_KEYS:
            base_scen = baseline.get(key)
            if base_scen is None:
                # a baseline predating this record key: nothing to
                # gate yet — an --update run will start recording it
                print(f"{key}: no committed baseline, skipping")
                continue
            scen = current[key]
            ref = base_scen["runs_per_sec"] * scale
            src = f"BENCH_serving.json {key}{suffix}"
            ratio = scen["runs_per_sec"] / ref
            print(f"wall time vs baseline ({src}): {ratio:.2f}x")
            if args.check and ratio < 1.0 - args.tolerance:
                print(f"FAIL: {key} runs/sec dropped "
                      f"{(1.0 - ratio) * 100:.0f}% (> "
                      f"{args.tolerance * 100:.0f}% allowed)",
                      file=sys.stderr)
                status = 1
            problems = _drifted(scen["simulated"], base_scen["simulated"])
            if problems:
                print(
                    f"simulated-metric drift vs baseline ({key}):",
                    file=sys.stderr,
                )
                for p in problems:
                    print(f"  {p}", file=sys.stderr)
                if args.check:
                    print("FAIL: cluster serving behaviour drifted; if "
                          "intentional, rerun with --update",
                          file=sys.stderr)
                    status = 1
    elif args.check:
        print("FAIL: no baseline to check against "
              "(commit BENCH_serving.json)", file=sys.stderr)
        status = 1

    emit_outputs(args, current, baseline, BENCH_FILE, status)
    return status


if __name__ == "__main__":
    sys.exit(main())
