"""Interleaved before/after benchmark of two commits.

Checks out PARENT and CHANGE as detached ``git worktree``s in a
temporary directory (local git only) and runs each side's own
``perfbench/run.py`` on every workload:

* ``--pairs`` metric runs (``--trace 0``) per side at the default seed,
  alternating which side goes first, plus one pair at the held-out
  seed;
* ``--traced`` traced runs (``--trace 1``) per side at the default
  seed, also alternating.

Each run's last output line is the benchmark's JSON record.  For every
workload and end-to-end metric (the ``end_to_end`` list of
``BENCHMARK.json``) it prints both medians with their interquartile
ranges (IQR), the relative change, in how many pairs the change was
better, and whether the change's median lies outside the parent's IQR.
It checks pair by pair that every ``sim_*`` value is identical, that
both runs are ``correct`` and that both failed the same number of
operations, and exits 1 on any mismatch.  The traced runs' counters
(per-layer metrics counted in calls, events or tokens) are diffed, and
``trace.overhead_frac`` is reported as the median over the traced runs,
because one traced/untraced pair is noisier than the overhead itself.
The output ends with a block ready to paste into CHANGES.md, which
names both resolved commits (inside a worktree perfbench's manifest
cannot read the revision).  The worktrees are removed on every exit.

Usage::

    python tools/ab.py PARENT CHANGE [--workloads W ...] [--pairs 10]
        [--seconds 20] [--traced 1]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
#: per-layer units whose values count things, so equal code gives
#: equal values on any host
COUNTER_UNITS = ("count", "count/req", "tok/call")


# ----------------------------------------------------------------------
# records and statistics (pure; the tests feed them canned records)
# ----------------------------------------------------------------------
def parse_record(stdout: str) -> dict:
    """The JSON record on the last non-empty line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    record = json.loads(lines[-1])
    for key in ("correct", "failed", "metrics"):
        if key not in record:
            raise ValueError(f"benchmark record lacks {key!r}")
    return record


def values(record: dict) -> dict[str, float]:
    """Metric name -> value of one record."""
    return {name: m["value"] for name, m in record["metrics"].items()}


def quartiles(data: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linear interpolation."""
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4, method="inclusive")
    return q1, q2, q3


def compare_metric(parent: list[float], change: list[float],
                   better: str) -> dict:
    """Summary of one metric over paired runs (``parent[i]`` and
    ``change[i]`` ran as pair ``i``)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs a side")
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    sign = -1.0 if better == "lower" else 1.0
    return {
        "parent": (p_med, p1, p3),
        "change": (c_med, c1, c3),
        "rel": c_med / p_med - 1.0 if p_med else 0.0,
        "better_pairs": sum(sign * (c - p) > 0
                            for p, c in zip(parent, change)),
        "pairs": len(parent),
        "outside_parent_iqr": not p1 <= c_med <= p3,
    }


def check_pair(parent: dict, change: dict) -> list[str]:
    """Mismatches between the two records of one pair: ``sim_*``
    values, ``correct`` and ``failed``."""
    problems = []
    for side, record in (("parent", parent), ("change", change)):
        if not record["correct"]:
            problems.append(f"{side} run failed its output checks")
    if parent["failed"] != change["failed"]:
        problems.append(f"failed operations {parent['failed']} -> "
                        f"{change['failed']}")
    pv, cv = values(parent), values(change)
    for name in sorted(set(pv) | set(cv)):
        if name.startswith("sim_") and pv.get(name) != cv.get(name):
            problems.append(f"{name} {pv.get(name)!r} -> {cv.get(name)!r}")
    return problems


def counter_diffs(parent: list[dict], change: list[dict]) -> list[str]:
    """Traced counters that differ within a side or between the sides."""
    diffs = []
    records = parent + change
    first = records[0]["metrics"]
    for name, metric in first.items():
        if metric["unit"] not in COUNTER_UNITS:
            continue
        seen = [r["metrics"][name]["value"] for r in records]
        if len(set(seen)) > 1:
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            diffs.append(f"{name}: parent {p} change {c}")
    return diffs


def counters(record: dict) -> dict[str, float]:
    """The counters of one traced record."""
    return {name: m["value"] for name, m in record["metrics"].items()
            if m["unit"] in COUNTER_UNITS}


def fmt(x: float) -> str:
    return f"{x:.4g}"


def report(parent_id: str, change_id: str, runs: dict, spec: dict,
           pairs: int, seconds: float) -> tuple[list[str], bool]:
    """The printed summary and whether every check passed.

    ``runs[workload]`` holds ``"pairs"``: ``(parent, change)`` record
    pairs at the default seed, ``"held_out"``: one such pair or None,
    and ``"traced"``: ``(parent records, change records)``.
    """
    lines = [f"ab: parent {parent_id}", f"ab: change {change_id}",
             f"ab: {pairs} pairs at seed {DEFAULT_SEED} + 1 at seed "
             f"{HELD_OUT_SEED}, --seconds {seconds:g}, first side "
             "alternating"]
    ok = True
    for workload, data in runs.items():
        lines.append(f"{workload}:")
        paired = data["pairs"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [values(a)[name] for a, _ in paired]
            c = [values(b)[name] for _, b in paired]
            s = compare_metric(p, c, metric["better"])
            pm, p1, p3 = s["parent"]
            cm, c1, c3 = s["change"]
            lines.append(
                f"  {name} {fmt(pm)} [{fmt(p1)}, {fmt(p3)}] -> "
                f"{fmt(cm)} [{fmt(c1)}, {fmt(c3)}] {metric['unit']} "
                f"({s['rel']:+.1%}), better in {s['better_pairs']} of "
                f"{s['pairs']}, "
                + ("outside" if s["outside_parent_iqr"] else "inside")
                + " the parent's IQR")
            if not name.startswith("sim_"):
                lines.append("    pairs (parent/change): " + " ".join(
                    f"{fmt(a)}/{fmt(b)}" for a, b in zip(p, c)))
        checked = list(paired)
        if data.get("held_out"):
            a, b = data["held_out"]
            checked.append((a, b))
            lines.append(f"  seed {HELD_OUT_SEED}: " + ", ".join(
                f"{m['name']} {fmt(values(a)[m['name']])} -> "
                f"{fmt(values(b)[m['name']])}"
                for m in spec["end_to_end"]
                if not m["name"].startswith("sim_")))
        problems = []
        for i, (a, b) in enumerate(checked):
            problems += [f"pair {i + 1}: {p}" for p in check_pair(a, b)]
        if problems:
            ok = False
            lines += [f"  MISMATCH {p}" for p in problems]
        else:
            lines.append(
                f"  sim_* identical, both correct and failed "
                f"{checked[0][0]['failed']} on both sides in all "
                f"{len(checked)} pairs")
        traced_p, traced_c = data.get("traced", ([], []))
        if traced_p and traced_c:
            diffs = counter_diffs(traced_p, traced_c)
            lines.append(
                f"  traced ({len(traced_p)} a side): counters "
                + ("differ" if diffs else "identical") + ": "
                + ", ".join(f"{k} {v:.6g}"
                            for k, v in counters(traced_c[0]).items()))
            lines += [f"    {d}" for d in diffs]
            overhead = [statistics.median(
                values(r)["trace.overhead_frac"] for r in side)
                for side in (traced_p, traced_c)]
            lines.append(
                f"  trace.overhead_frac median {overhead[0]:+.3f} -> "
                f"{overhead[1]:+.3f}")
    lines.append("ab: " + ("every pair checked clean" if ok
                           else "MISMATCHES found"))
    return lines, ok


# ----------------------------------------------------------------------
# live runs
# ----------------------------------------------------------------------
def git(*args: str, cwd: pathlib.Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_bench(tree: pathlib.Path, workload: str, seed: int,
              seconds: float, trace: int) -> dict:
    """One run of a side's own benchmark; its JSON record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode == 2:
        raise RuntimeError(f"{tree.name}: {done.stderr.strip()}")
    return parse_record(done.stdout)


def run_pairs(trees: tuple[pathlib.Path, pathlib.Path], workload: str,
              seed: int, n: int, seconds: float, trace: int,
              flip: int) -> list[tuple[dict, dict]]:
    """``n`` (parent, change) record pairs, alternating the first side;
    ``flip`` picks which side starts."""
    pairs = []
    for i in range(n):
        order = (0, 1) if (i + flip) % 2 == 0 else (1, 0)
        got = {}
        for side in order:
            got[side] = run_bench(trees[side], workload, seed, seconds,
                                  trace)
            print(f"  {workload} seed {seed} trace {trace} "
                  f"{('parent', 'change')[side]}: "
                  + ("run_s " + fmt(values(got[side])["run_s"])
                     if trace == 0 else "traced"),
                  file=sys.stderr, flush=True)
        pairs.append((got[0], got[1]))
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--traced", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.traced < 0:
        parser.error("--pairs must be >= 1 and --traced >= 0")
    ids = [git("rev-parse", "--verify", f"{rev}^{{commit}}")
           for rev in (args.parent, args.change)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="ab-"))
    trees = (tmp / "parent", tmp / "change")
    try:
        for tree, commit in zip(trees, ids):
            git("worktree", "add", "--detach", str(tree), commit)
        runs = {}
        for k, workload in enumerate(workloads):
            runs[workload] = {
                "pairs": run_pairs(trees, workload, DEFAULT_SEED,
                                   args.pairs, args.seconds, 0, k),
                "held_out": run_pairs(trees, workload, HELD_OUT_SEED, 1,
                                      args.seconds, 0, k + 1)[0],
            }
            traced = run_pairs(trees, workload, DEFAULT_SEED, args.traced,
                               args.seconds, 1, k)
            runs[workload]["traced"] = ([a for a, _ in traced],
                                        [b for _, b in traced])
    finally:
        for tree in trees:
            if tree.exists():
                subprocess.run(["git", "worktree", "remove", "--force",
                                str(tree)], cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    lines, ok = report(ids[0], ids[1], runs, spec, args.pairs,
                       args.seconds)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
