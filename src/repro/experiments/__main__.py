"""Command-line entry point: ``python -m repro.experiments fig09 [...]``.

``all`` runs every experiment; ``--quick`` shortens the decode window;
``--list`` / ``--list-models`` print the experiment and model
registries.  Unknown experiment ids exit non-zero with a
closest-match suggestion.

Telemetry: ``--trace-out FILE`` (with ``--scenario``) writes a live
telemetry artifact — a ``.jsonl`` metric stream or a ``.json`` Chrome
trace, by extension — and ``python -m repro.experiments watch FILE``
tails a metric stream as a live dashboard (``--once`` for a snapshot).

Subcommands with their own argument surface: ``watch`` (tail a
telemetry stream) and ``plan`` (capacity planner; see
``python -m repro.experiments plan --help``).

Conventions shared by every invocation: ``--json`` writes the
machine-readable reports to stdout (tables move to stderr); exit codes
are 0 on success, 1 when a check or SLO verdict failed, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import json
import sys
import time

from ..models import get_model, list_models
from . import ALL_EXPERIMENTS

GIB = 2**30


def experiment_summaries() -> dict[str, str]:
    """One-liner per experiment id, from its module docstring."""
    summaries = {}
    for name, entry in ALL_EXPERIMENTS.items():
        module = inspect.getmodule(entry)
        doc = (module.__doc__ or "").strip()
        summaries[name] = doc.splitlines()[0].rstrip(".") if doc else ""
    return summaries


def print_experiments(file=None) -> None:
    file = file if file is not None else sys.stdout
    summaries = experiment_summaries()
    width = max(len(name) for name in summaries)
    print("experiments:", file=file)
    for name, summary in summaries.items():
        print(f"  {name:<{width}}  {summary}", file=file)
    print("subcommands: plan (capacity planner), watch (telemetry "
          "dashboard) — each has its own --help", file=file)


def print_models(file=None) -> None:
    file = file if file is not None else sys.stdout
    names = list_models()
    width = max(len(name) for name in names)
    print("models:", file=file)
    for name in names:
        spec = get_model(name)
        print(f"  {name:<{width}}  {spec.num_layers} layers, "
              f"hidden {spec.hidden_size}, "
              f"{spec.total_weight_bytes / GIB:.1f} GiB weights, "
              f"density {spec.activation_density:.2f}", file=file)


def _unknown_id_message(names: list[str]) -> str:
    parts = []
    for name in names:
        close = difflib.get_close_matches(name, ALL_EXPERIMENTS, n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        parts.append(f"{name!r}{hint}")
    return (f"unknown experiments: {', '.join(parts)} — run with --list "
            "to see the registry")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "watch":
        # `watch` tails a telemetry stream file, not an experiment —
        # it has its own argument surface (see repro.telemetry.watch)
        from ..telemetry.watch import main as watch_main

        return watch_main(argv[1:])
    if argv and argv[0] == "plan":
        # `plan` is the capacity planner, not a figure reproduction —
        # its own argument surface lives in repro.planner.cli
        from ..planner.cli import main as plan_main

        return plan_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures and statistics.",
    )
    parser.add_argument(
        "experiments", nargs="*", help="experiment ids (see --list) or 'all'"
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print experiment ids with one-line " "summaries and exit",
    )
    parser.add_argument(
        "--list-models",
        action="store_true",
        help="print the model registry and exit",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short decode window for a fast pass",
    )
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for sweep experiments "
                             "(default: REPRO_JOBS env var, else 1)")
    parser.add_argument("--scenario", default=None, metavar="FILE",
                        help="declarative scenario spec (JSON/TOML) for "
                             "the scenario-driven experiments")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write run telemetry (with --scenario): "
                             ".jsonl = watchable metric stream, "
                             ".json = Chrome/Perfetto trace")
    parser.add_argument("--json", action="store_true",
                        help="write a machine-readable JSON array of "
                             "experiment reports to stdout (the text "
                             "tables move to stderr)")
    args = parser.parse_args(argv)
    if args.list or args.list_models:
        if args.list:
            print_experiments()
        if args.list_models:
            print_models()
        return 0
    if not args.experiments:
        parser.error("name at least one experiment id, 'all', or use "
                     "--list / --list-models")
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if "all" in args.experiments:
        names = list(ALL_EXPERIMENTS)
    else:
        names = list(args.experiments)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"error: {_unknown_id_message(unknown)}", file=sys.stderr)
        return 2
    if args.scenario is not None:
        takers = [n for n in names
                  if "scenario" in
                  inspect.signature(ALL_EXPERIMENTS[n]).parameters]
        if not takers:
            scenario_aware = sorted(
                n for n in ALL_EXPERIMENTS
                if "scenario" in
                inspect.signature(ALL_EXPERIMENTS[n]).parameters)
            parser.error(
                "--scenario only applies to: " + ", ".join(scenario_aware)
            )
    if args.trace_out is not None:
        if args.scenario is None:
            parser.error("--trace-out needs --scenario (one traced run)")
        takers = [n for n in names
                  if "trace_out" in
                  inspect.signature(ALL_EXPERIMENTS[n]).parameters]
        if not takers:
            trace_aware = sorted(
                n for n in ALL_EXPERIMENTS
                if "trace_out" in
                inspect.signature(ALL_EXPERIMENTS[n]).parameters)
            parser.error(
                "--trace-out only applies to: " + ", ".join(trace_aware)
            )
    # under --json the text tables move to stderr so stdout carries
    # exactly one machine-readable document
    table_out = sys.stderr if args.json else sys.stdout
    reports = []
    for name in names:
        start = time.time()
        entry = ALL_EXPERIMENTS[name]
        params = inspect.signature(entry).parameters
        kwargs = {"quick": args.quick}
        # sweep experiments fan their grid out over worker processes;
        # single-shot experiments simply don't take the parameter
        if "jobs" in params:
            kwargs["jobs"] = args.jobs
        if "scenario" in params and args.scenario is not None:
            kwargs["scenario"] = args.scenario
        if "trace_out" in params and args.trace_out is not None:
            kwargs["trace_out"] = args.trace_out
        result = entry(**kwargs)
        print(result.to_text(), file=table_out)
        print(f"[{name} finished in {time.time() - start:.1f}s]\n",
              file=table_out)
        if args.json:
            reports.append(result.to_json())
    if args.json:
        json.dump(reports, sys.stdout, indent=2)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
