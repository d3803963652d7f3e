"""Output checks: a run whose outputs break any of these is wrong.

Each check returns a list of human-readable violations (empty when the
outputs are sound), so the benchmark can report every problem at once
before it exits non-zero.
"""

from __future__ import annotations

import math

#: relative slack for float sums compared against the makespan
_BUSY_SLACK = 1e-9


def can_strand(faults) -> bool:
    """Whether a fault schedule may leave requests unfinished: only a
    machine that crashes and never restarts strands its work."""
    return faults is not None and any(
        c.restart_after is None for c in faults.expanded_crashes)


def check_report(report, workload, *, may_strand: bool) -> list[str]:
    """Invariants of one served workload.

    * every request sent appears in the report exactly once, either
      completed or unfinished — and unfinished only when ``may_strand``
      (see :func:`can_strand`), so a lost token cannot pass as a
      stranded request;
    * a completed request has exactly ``output_len`` strictly increasing
      token times, the first after its arrival;
    * no machine was busy (GPU or DIMM pool) for longer than the
      makespan.
    """
    problems: list[str] = []
    sent = [r.req_id for r in workload]
    seen = [rec.request.req_id for rec in report.records]
    if len(seen) != len(set(seen)):
        problems.append(f"{len(seen) - len(set(seen))} request(s) reported "
                        "more than once")
    missing = set(sent) - set(seen)
    if missing:
        problems.append(f"{len(missing)} request(s) sent but never reported")
    extra = set(seen) - set(sent)
    if extra:
        problems.append(f"{len(extra)} request(s) reported but never sent")
    for rec in report.records:
        times = rec.token_times
        req = rec.request
        if len(times) > req.output_len:
            problems.append(f"request {req.req_id}: {len(times)} tokens for "
                            f"output_len {req.output_len}")
            continue
        if not rec.finished:
            if not may_strand:
                problems.append(f"request {req.req_id}: unfinished with "
                                f"{len(times)} of {req.output_len} tokens, "
                                "but no machine stays down")
            continue
        if any(b <= a for a, b in zip(times, times[1:])):
            problems.append(f"request {req.req_id}: token times not "
                            "strictly increasing")
        if not times[0] > req.arrival:
            problems.append(f"request {req.req_id}: first token at "
                            f"{times[0]} not after arrival {req.arrival}")
    limit = report.makespan * (1.0 + _BUSY_SLACK)
    for name in ("machine_gpu_busy", "machine_dimm_busy"):
        for machine, busy in enumerate(getattr(report, name)):
            if busy > limit:
                problems.append(f"machine {machine}: {name} {busy} exceeds "
                                f"makespan {report.makespan}")
    return problems


def same_metrics(first: dict, second: dict, what: str) -> list[str]:
    """Bit-equality of two metric dicts (``nan`` equals ``nan``)."""
    problems = []
    for name in sorted(set(first) | set(second)):
        a, b = first.get(name), second.get(name)
        both_nan = (isinstance(a, float) and isinstance(b, float)
                    and math.isnan(a) and math.isnan(b))
        if a != b and not both_nan:
            problems.append(f"{what}: {name} differs ({a!r} vs {b!r})")
    return problems
