"""Deterministic fault injection for serving fleets.

A :class:`FaultSchedule` is pure data fixed before the run starts: a
seeded, validated list of machine **crashes** (with optional restart),
**stragglers** (multiplicative slowdown windows applied to every cost
the machine's backend produces), **router-side partitions** (machines
unroutable but still draining what they already hold), **failure
domains** (named machine groups — racks, power zones — whose members
crash together via :class:`DomainCrashSpec` or domain-scoped
sampling), and **degrades** (a machine loses a fraction of its DIMMs
or link bandwidth at an instant and renegotiates instead of dying).
Because the schedule is immutable and known a priori, every consumer —
the serving loop in either fidelity, the front door's health-aware
routing, the telemetry timeline — reads the *same* timeline, which
is what makes failure-trace replay and cross-process determinism
(``--jobs 1`` vs ``--jobs 2``) hold bit-for-bit under chaos.  Each
serving machine reads only its *own* part of it: its waits are clamped
at plan time to its own next crash, and another machine's fault
reaches it only as work migrated through its wake signal.

Semantics, shared by both fidelities:

* a machine is **down** for ``t`` in ``[at, at + restart_after +
  restart_warmup)`` — the warmup models the cold-cache penalty of a
  restart (weights re-staged, partitions re-planned) as extended
  unavailability; ``restart_after=None`` means the machine never comes
  back.  A decode step or prefill whose completion lands at or past the
  crash instant is aborted: no token granted, no busy time charged.
  Killed residents and queued requests are *migrated* — re-queued (and
  re-routed, in cluster mode) with ``RequestRecord.migrations``
  incremented; their generated tokens survive (they were already
  streamed), but the KV cache does not, so re-admission re-runs prefill
  over ``prompt_len + generated`` tokens.  Restart resets backend
  sequence state (:meth:`~repro.serving.backends.ServingBackend.reset`).
* a **straggler** window multiplies step/prefill costs by ``slowdown``
  for ``t`` in ``[start, end)``; overlapping windows compound.  A step
  *started* before a boundary completes at the cost quoted at its start,
  exactly like a step that straddles an arrival.
* a **partition** makes the machine unroutable for ``t`` in
  ``[start, end)``: the router cannot deliver new work to it (delivery
  falls over to the next reachable machine), but the machine keeps
  serving its queue and residents.
* a **domain crash** is sugar that expands (via
  :attr:`FaultSchedule.expanded_crashes`) to one :class:`CrashSpec`
  per member of the named domain, all at the same instant — the
  correlated-failure mode of a shared rack PDU or cooling loop.  Every
  query method and both serving loops consume the *expanded* timeline,
  so a domain crash behaves exactly like the equivalent hand-written
  per-machine crashes.
* a **degrade** permanently removes ``dimm_fraction`` of a machine's
  DIMMs and/or derates its PCIe link to ``bandwidth_factor`` at
  ``t >= at`` (closed on the left, like a crash); multiple degrades on
  one machine compound multiplicatively.  The machine does *not* go
  down: its executor rebuilds the model partition over the surviving
  hardware, evicting (a migration onto the same machine: re-queue +
  re-prefill) only the residents whose KV no longer fits.  A busy
  machine renegotiates at its first step boundary at or past ``at``;
  an idle one when it next wakes, before it serves anything.

With no ``faults:`` section the serving loop runs against a pristine
timeline (never down, undegraded, slowdown 1.0) and the router and
report skip their fault queries — the fault-free path is pinned by the
goldens.

:func:`dump_fault_trace` / :func:`load_fault_trace` serialise a
schedule to a JSONL failure log (one event per line, ``kind``
discriminated) so real multi-day failure traces can be replayed via
the scenario key ``faults.trace`` — and so a sampled schedule can be
exported once and replayed bit-identically forever.  A trace line's or
a scenario event's keys are the fields of its kind's spec class
(:data:`FAULT_EVENT_KINDS`), and both build events through
:func:`fault_event`, which names ``path:line`` or ``faults.crashes[0]``
in every rejection.
"""

from __future__ import annotations

import bisect
import dataclasses
import difflib
import functools
import json
import math
import operator
import random
import typing


def _check_time(value: float, label: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{label} must be a finite non-negative time, "
                         f"got {value!r}")
    return value


def _check_restart(after: float | None) -> None:
    if after is not None:
        after = float(after)
        if not math.isfinite(after) or after <= 0:
            raise ValueError("restart_after must be a positive time "
                             "(or null for no restart)")


def _check_window(spec: StragglerSpec | PartitionSpec, label: str) -> None:
    if spec.machine < 0:
        raise ValueError(f"{label} machine index must be >= 0")
    _check_time(spec.start, f"{label} start")
    if spec.end is not None and float(spec.end) <= spec.start:
        raise ValueError(f"{label} end must be after start")


@dataclasses.dataclass(frozen=True, slots=True)
class CrashSpec:
    """One machine crash: down at ``at``, back ``restart_after`` later.

    ``restart_after=None`` means the machine never restarts.  The
    schedule-level ``restart_warmup`` extends every restart.
    """

    machine: int
    at: float
    restart_after: float | None = None

    def __post_init__(self) -> None:
        if self.machine < 0:
            raise ValueError("crash machine index must be >= 0")
        _check_time(self.at, "crash time 'at'")
        _check_restart(self.restart_after)


@dataclasses.dataclass(frozen=True, slots=True)
class StragglerSpec:
    """A slowdown window: costs on ``machine`` scale by ``slowdown``."""

    machine: int
    start: float
    end: float | None
    slowdown: float

    def __post_init__(self) -> None:
        _check_window(self, "straggler")
        if not self.slowdown >= 1.0:
            raise ValueError("slowdown must be >= 1 (a straggler cannot "
                             "speed a machine up)")


@dataclasses.dataclass(frozen=True, slots=True)
class PartitionSpec:
    """A router partition window: ``machine`` unroutable in [start, end)."""

    machine: int
    start: float
    end: float | None

    def __post_init__(self) -> None:
        _check_window(self, "partition")


@dataclasses.dataclass(frozen=True, slots=True)
class DomainSpec:
    """A named failure domain: machines sharing a rack/PDU/cooling loop.

    Domains must be pairwise disjoint (one PDU per machine) and their
    names unique — validated by :class:`FaultSchedule`.
    """

    name: str
    machines: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("domain name must be non-empty")
        object.__setattr__(self, "machines", tuple(self.machines))
        if not self.machines:
            raise ValueError(f"domain {self.name!r} has no machines")
        if len(set(self.machines)) != len(self.machines):
            raise ValueError(f"domain {self.name!r} lists a machine twice")
        if any(m < 0 for m in self.machines):
            raise ValueError(f"domain {self.name!r} machine indices "
                             f"must be >= 0")


@dataclasses.dataclass(frozen=True, slots=True)
class DomainCrashSpec:
    """A correlated crash: every member of ``domain`` goes down at
    ``at``, back ``restart_after`` later (None: never)."""

    domain: str
    at: float
    restart_after: float | None = None

    def __post_init__(self) -> None:
        if not self.domain:
            raise ValueError("domain crash must name a domain")
        _check_time(self.at, "domain crash time 'at'")
        _check_restart(self.restart_after)


@dataclasses.dataclass(frozen=True, slots=True)
class DegradeSpec:
    """Partial failure at an instant: ``machine`` loses
    ``dimm_fraction`` of its DIMMs and its PCIe link is derated to
    ``bandwidth_factor`` of nominal, permanently from ``at``.

    At least one axis must actually degrade; multiple degrades on the
    same machine compound multiplicatively
    (:meth:`FaultSchedule.degrade_state`).  A degrade never takes a
    machine down — at least one DIMM always survives.
    """

    machine: int
    at: float
    dimm_fraction: float = 0.0
    bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.machine < 0:
            raise ValueError("degrade machine index must be >= 0")
        _check_time(self.at, "degrade time 'at'")
        if not 0.0 <= self.dimm_fraction < 1.0:
            raise ValueError("dimm_fraction must lie in [0, 1) — a "
                             "machine losing every DIMM is a crash, "
                             "not a degrade")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must lie in (0, 1]")
        if self.dimm_fraction == 0.0 and self.bandwidth_factor == 1.0:
            raise ValueError("degrade must remove DIMMs or derate "
                             "bandwidth (it currently does neither)")


@dataclasses.dataclass(frozen=True, slots=True)
class SampleSpec:
    """Seeded random chaos: expected per-machine fault counts over a
    horizon, turned into concrete events by :func:`sample_faults`."""

    horizon: float
    crashes_per_machine: float = 0.0
    crashes_per_domain: float = 0.0
    mean_downtime: float = 0.0
    restart_fraction: float = 1.0
    stragglers_per_machine: float = 0.0
    mean_straggle: float = 0.0
    slowdown: float = 4.0
    partitions_per_machine: float = 0.0
    mean_partition: float = 0.0

    def __post_init__(self) -> None:
        horizon = _check_time(self.horizon, "sample horizon")
        if horizon <= 0:
            raise ValueError("sample horizon must be positive")
        for label in ("crashes_per_machine", "crashes_per_domain",
                      "mean_downtime",
                      "stragglers_per_machine", "mean_straggle",
                      "partitions_per_machine", "mean_partition"):
            _check_time(getattr(self, label), label)
        if not 0.0 <= self.restart_fraction <= 1.0:
            raise ValueError("restart_fraction must lie in [0, 1]")
        if not self.slowdown >= 1.0:
            raise ValueError("sampled slowdown must be >= 1")


#: every fault-event kind, in failure-trace line order: its trace
#: ``kind`` tag, the spec class whose fields are its keys, and the
#: :class:`FaultSchedule` field that holds its events
FAULT_EVENT_KINDS: tuple[tuple[str, type, str], ...] = (
    ("domain", DomainSpec, "domains"),
    ("crash", CrashSpec, "crashes"),
    ("domain-crash", DomainCrashSpec, "domain_crashes"),
    ("straggler", StragglerSpec, "stragglers"),
    ("partition", PartitionSpec, "partitions"),
    ("degrade", DegradeSpec, "degrades"),
)
#: the kinds whose events name one machine, checked against the fleet
_MACHINE_FIELDS = tuple(
    field for _, cls, field in FAULT_EVENT_KINDS
    if "machine" in {f.name for f in dataclasses.fields(cls)}
)


def _check_keys(data: dict, allowed: typing.Iterable[str],
                context: str) -> None:
    """Reject unknown keys so a typo'd spec fails with a clear error
    (the scenario parser checks every section with it too)."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(f"{context}: unknown keys {unknown}; "
                         f"allowed: {sorted(allowed)}")


def fault_event(cls: type, data: dict, context: str):
    """``cls(**data)`` for a scenario or trace mapping whose keys are
    ``cls``'s fields.  An unknown key, a missing one, or a value the
    spec rejects raises :class:`ValueError` naming ``context``."""
    _check_keys(data, [f.name for f in dataclasses.fields(cls)], context)
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{context}: {exc}") from None


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """The immutable fault timeline one run executes against.

    Query methods take half-open interval semantics (see the module
    docstring).  Down intervals *include* the restart warmup; per
    machine they must not overlap.  All derived timelines are cached —
    the schedule is shared read-only by every machine process, the
    router, and the telemetry timeline emitter.
    """

    crashes: tuple[CrashSpec, ...] = ()
    stragglers: tuple[StragglerSpec, ...] = ()
    partitions: tuple[PartitionSpec, ...] = ()
    seed: int = 0
    restart_warmup: float = 0.0
    domains: tuple[DomainSpec, ...] = ()
    domain_crashes: tuple[DomainCrashSpec, ...] = ()
    degrades: tuple[DegradeSpec, ...] = ()

    def __post_init__(self) -> None:
        _check_time(self.restart_warmup, "restart_warmup")
        names = [d.name for d in self.domains]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate domain names: {dup}")
        owner: dict[int, str] = {}
        for domain in self.domains:
            for m in domain.machines:
                if m in owner:
                    raise ValueError(
                        f"machine {m} belongs to domains {owner[m]!r} "
                        f"and {domain.name!r}; failure domains must be "
                        f"disjoint"
                    )
                owner[m] = domain.name
        for crash in self.domain_crashes:
            if crash.domain not in names:
                hint = difflib.get_close_matches(crash.domain, names, n=1)
                suggest = f" — did you mean {hint[0]!r}?" if hint else ""
                raise ValueError(
                    f"faults.domain_crashes names unknown domain "
                    f"{crash.domain!r}; declared domains: "
                    f"{sorted(names) if names else 'none'}{suggest}"
                )
        for machine, intervals in self._down.items():
            for (s0, e0), (s1, _) in zip(intervals, intervals[1:]):
                if e0 is None or s1 < e0:
                    raise ValueError(
                        f"machine {machine} crash intervals overlap "
                        f"(a machine cannot crash while already down)"
                    )

    # ------------------------------------------------------------------
    @functools.cached_property
    def expanded_crashes(self) -> tuple[CrashSpec, ...]:
        """The per-machine crash timeline both serving loops execute:
        explicit crashes plus every domain crash expanded to one
        :class:`CrashSpec` per member.  With no domain crashes this is
        ``crashes`` verbatim (same tuple object), so schedules that
        predate domains behave bit-identically."""
        if not self.domain_crashes:
            return self.crashes
        members = {d.name: d.machines for d in self.domains}
        out = list(self.crashes)
        for crash in self.domain_crashes:
            out.extend(
                CrashSpec(m, crash.at, crash.restart_after)
                for m in members[crash.domain]
            )
        return tuple(sorted(out, key=lambda c: (c.at, c.machine)))

    @property
    def machines(self) -> frozenset[int]:
        """Every machine index named by any fault or domain."""
        named = {
            spec.machine
            for field in _MACHINE_FIELDS
            for spec in getattr(self, field)
        }
        named.update(m for d in self.domains for m in d.machines)
        return frozenset(named)

    def validate_fleet(self, num_machines: int) -> None:
        """Raise when a fault names a machine outside the fleet.

        The message names the offending scenario key and the valid
        index range, so a fat-fingered spec is a one-glance fix.
        """
        sources: list[tuple[str, typing.Iterable[int]]] = [
            (f"faults.{field}",
             (spec.machine for spec in getattr(self, field)))
            for field in _MACHINE_FIELDS
        ]
        sources.extend(
            (f"faults.domains[{d.name!r}]", d.machines)
            for d in self.domains
        )
        for key, machines in sources:
            for m in machines:
                if m >= num_machines:
                    raise ValueError(
                        f"{key} names machine {m} but the fleet has "
                        f"{num_machines} machines (valid indices: "
                        f"0..{num_machines - 1})"
                    )

    # ------------------------------------------------------------------
    @functools.cached_property
    def _down(self) -> dict[int, list[tuple[float, float | None]]]:
        out: dict[int, list[tuple[float, float | None]]] = {}
        for crash in self.expanded_crashes:
            if crash.restart_after is None:
                end: float | None = None
            else:
                end = crash.at + crash.restart_after + self.restart_warmup
            out.setdefault(crash.machine, []).append((crash.at, end))
        for intervals in out.values():
            intervals.sort()
        return out

    @functools.cached_property
    def _slow(self) -> dict[int, list[StragglerSpec]]:
        return _by_machine(self.stragglers, "start")

    @functools.cached_property
    def _part(self) -> dict[int, list[PartitionSpec]]:
        return _by_machine(self.partitions, "start")

    @functools.cached_property
    def _degrade(self) -> dict[int, list[DegradeSpec]]:
        return _by_machine(self.degrades, "at")

    # ------------------------------------------------------------------
    def is_down(self, machine: int, time: float) -> bool:
        """True while ``machine`` is crashed (restart warmup included)."""
        for start, end in self._down.get(machine, ()):
            if start > time:
                return False
            if end is None or time < end:
                return True
        return False

    def up_time(self, machine: int, time: float) -> float | None:
        """When the outage covering ``time`` ends (None: never)."""
        for start, end in self._down.get(machine, ()):
            if start <= time and (end is None or time < end):
                return end
        raise ValueError(
            f"machine {machine} is not down at t={time}"
        )

    def next_down(self, machine: int, time: float) -> float | None:
        """The next crash instant at or after ``time`` (None: none left).

        A completion landing exactly on the returned instant is aborted
        (down intervals are closed on the left), so serving loops cap
        in-flight waits at this value.
        """
        for start, end in self._down.get(machine, ()):
            if start >= time:
                return start
            if end is None or time < end:
                return start  # already inside the outage
        return None

    def slowdown_at(self, machine: int, time: float) -> float:
        """The compound cost multiplier active on ``machine`` at ``time``."""
        factor = 1.0
        for spec in self._slow.get(machine, ()):
            if spec.start > time:
                break
            if spec.end is None or time < spec.end:
                factor *= spec.slowdown
        return factor

    def is_partitioned(self, machine: int, time: float) -> bool:
        """True while the router cannot reach ``machine``."""
        for spec in self._part.get(machine, ()):
            if spec.start > time:
                return False
            if spec.end is None or time < spec.end:
                return True
        return False

    def degrade_state(self, machine: int, time: float) -> tuple[float, float]:
        """``(surviving_dimm_fraction, bandwidth_factor)`` active on
        ``machine`` at ``time`` — the cumulative product of every
        degrade at or before it; ``(1.0, 1.0)`` when pristine."""
        surviving = 1.0
        bandwidth = 1.0
        for spec in self._degrade.get(machine, ()):
            if spec.at > time:
                break
            surviving *= 1.0 - spec.dimm_fraction
            bandwidth *= spec.bandwidth_factor
        return surviving, bandwidth

    def health_state(self, machine: int, time: float) -> str:
        """The watch-column health label, priority down > partitioned >
        degraded > slow > ok."""
        if self.is_down(machine, time):
            return "down"
        if self.is_partitioned(machine, time):
            return "partitioned"
        if self.degrade_state(machine, time) != (1.0, 1.0):
            return "degraded"
        if self.slowdown_at(machine, time) != 1.0:
            return "slow"
        return "ok"

    # ------------------------------------------------------------------
    @functools.cached_property
    def _exec_transitions(self) -> dict[int, list[float]]:
        """Per machine: sorted instants where execution behaviour changes
        (crash, restart, straggle, degrade boundaries — not partitions,
        which only affect routing)."""
        out: dict[int, set[float]] = {}
        for machine, intervals in self._down.items():
            for start, end in intervals:
                out.setdefault(machine, set()).add(start)
                if end is not None:
                    out.setdefault(machine, set()).add(end)
        for machine, specs in self._slow.items():
            for spec in specs:
                out.setdefault(machine, set()).add(spec.start)
                if spec.end is not None:
                    out.setdefault(machine, set()).add(spec.end)
        for machine, dspecs in self._degrade.items():
            for dspec in dspecs:
                out.setdefault(machine, set()).add(dspec.at)
        return {m: sorted(times) for m, times in out.items()}

    def next_exec_transition(self, machine: int, time: float) -> float | None:
        """First instant strictly after ``time`` where this machine's
        execution behaviour (up/down/slowdown) changes."""
        times = self._exec_transitions.get(machine)
        if not times:
            return None
        i = bisect.bisect_right(times, time)
        return times[i] if i < len(times) else None

    # ------------------------------------------------------------------
    def downtime_within(self, machine: int, horizon: float) -> float:
        """Seconds ``machine`` spends down inside ``[0, horizon)``."""
        total = 0.0
        for start, end in self._down.get(machine, ()):
            if start >= horizon:
                break
            stop = horizon if end is None else min(end, horizon)
            total += stop - start
        return total

    def recoveries_within(self, horizon: float) -> list[float]:
        """Outage durations (crash→serving again, warmup included) of
        every crash that fully recovers inside the run, in crash order."""
        out = []
        for crash in sorted(self.expanded_crashes,
                            key=lambda c: (c.at, c.machine)):
            if crash.restart_after is None:
                continue
            span = crash.restart_after + self.restart_warmup
            if crash.at + span <= horizon:
                out.append(span)
        return out

    def correlated_outage_within(self, horizon: float) -> float:
        """Seconds inside ``[0, horizon)`` during which at least two
        machines of *one* declared domain were simultaneously down —
        the blast-radius metric a per-machine availability number
        hides.  ``nan`` when no domains are declared (rendered "—")."""
        if not self.domains:
            return math.nan
        total = 0.0
        for domain in self.domains:
            deltas: list[tuple[float, int]] = []
            for machine in domain.machines:
                for start, end in self._down.get(machine, ()):
                    if start >= horizon:
                        continue
                    deltas.append((start, 1))
                    deltas.append((horizon if end is None
                                   else min(end, horizon), -1))
            deltas.sort()
            depth = 0
            since = 0.0
            for at, step in deltas:
                if depth >= 2:
                    total += at - since
                depth += step
                since = at
        return total


def _by_machine(specs: typing.Iterable, start: str) -> dict[int, list]:
    """``specs`` grouped per machine, each group in ``start`` order."""
    out: dict[int, list] = {}
    for spec in sorted(specs, key=operator.attrgetter(start, "machine")):
        out.setdefault(spec.machine, []).append(spec)
    return out


def _fits(
    crashes: typing.Sequence[CrashSpec],
    domain_crashes: typing.Sequence[DomainCrashSpec],
    domains: tuple[DomainSpec, ...],
    restart_warmup: float,
) -> bool:
    """Whether no two outages overlap on one machine: the trial
    construction reuses the schedule's own overlap validation over the
    *expanded* (domain crashes included) timeline."""
    try:
        FaultSchedule(
            crashes=tuple(crashes),
            domains=domains,
            domain_crashes=tuple(domain_crashes),
            restart_warmup=restart_warmup,
        )
    except ValueError:
        return False
    return True


# ----------------------------------------------------------------------
def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's poisson sampler — tiny means only, which is all we need."""
    if mean <= 0:
        return 0
    limit = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def _draw_crashes(
    rng: random.Random,
    spec: SampleSpec,
    mean: float,
    restart_warmup: float,
) -> list[tuple[float, float | None]]:
    """One Poisson crash-draw sequence: ``[(at, restart_after), ...]``.

    Shared verbatim by per-machine and per-domain sampling, so a
    single-member domain named ``str(m)`` reproduces machine ``m``'s
    crash draws bit-for-bit (pinned by a hypothesis test).  Crashes
    that would overlap the unit's earlier outage are dropped rather
    than shifted — the drop happens *after* the draws, so it never
    perturbs the RNG stream.
    """
    events: list[tuple[float, float | None]] = []
    busy_until = 0.0
    times = sorted(
        rng.uniform(0.0, spec.horizon)
        for _ in range(_poisson(rng, mean))
    )
    for at in times:
        if at < busy_until:
            continue
        restarts = rng.random() < spec.restart_fraction
        downtime = (
            rng.expovariate(1.0 / spec.mean_downtime)
            if spec.mean_downtime > 0 else 0.0
        )
        if restarts and downtime > 0:
            events.append((at, downtime))
            busy_until = at + downtime + restart_warmup
        else:
            events.append((at, None))
            busy_until = math.inf
    return events


def sample_faults(
    spec: SampleSpec,
    num_machines: int,
    *,
    seed: int = 0,
    restart_warmup: float = 0.0,
    domains: typing.Sequence[DomainSpec] = (),
) -> FaultSchedule:
    """Expand a :class:`SampleSpec` into a concrete seeded schedule.

    Per machine the crash/straggler/partition counts are Poisson with
    the spec's expected values, times uniform over the horizon and
    durations exponential around the means.  The RNG is seeded with a
    string (SHA-512 based init), so the same ``(seed, machine)`` pair
    yields the same events in every process — the basis of the
    ``--jobs`` determinism pin.  Crashes that would overlap a machine's
    earlier outage are dropped rather than shifted.

    With ``domains``, ``crashes_per_domain`` additionally samples
    *correlated* crashes per declared domain from an RNG keyed on the
    domain *name* (``faults:{seed}:{name}`` — the same namespace as
    the per-machine streams, so a single-member domain named
    ``str(m)`` draws exactly machine ``m``'s crash sequence).  A
    sampled per-machine crash that would overlap a sampled domain
    outage on that machine is dropped — correlated events win.
    """
    domains = tuple(domains)
    crashes: list[CrashSpec] = []
    stragglers: list[StragglerSpec] = []
    partitions: list[PartitionSpec] = []
    for machine in range(num_machines):
        rng = random.Random(f"faults:{seed}:{machine}")
        for at, after in _draw_crashes(
            rng, spec, spec.crashes_per_machine, restart_warmup
        ):
            crashes.append(CrashSpec(machine, at, after))
        for _ in range(_poisson(rng, spec.stragglers_per_machine)):
            start = rng.uniform(0.0, spec.horizon)
            length = (
                rng.expovariate(1.0 / spec.mean_straggle)
                if spec.mean_straggle > 0 else 0.0
            )
            if length > 0:
                stragglers.append(
                    StragglerSpec(machine, start, start + length,
                                  spec.slowdown)
                )
        for _ in range(_poisson(rng, spec.partitions_per_machine)):
            start = rng.uniform(0.0, spec.horizon)
            length = (
                rng.expovariate(1.0 / spec.mean_partition)
                if spec.mean_partition > 0 else 0.0
            )
            if length > 0:
                partitions.append(
                    PartitionSpec(machine, start, start + length)
                )
    domain_crashes: list[DomainCrashSpec] = []
    for domain in domains:
        rng = random.Random(f"faults:{seed}:{domain.name}")
        for at, after in _draw_crashes(
            rng, spec, spec.crashes_per_domain, restart_warmup
        ):
            domain_crashes.append(DomainCrashSpec(domain.name, at, after))
    if domain_crashes:
        # a per-machine crash landing inside a domain outage on that
        # machine is dropped (correlated events win)
        kept: list[CrashSpec] = []
        for crash in crashes:
            if _fits(kept + [crash], domain_crashes, domains,
                     restart_warmup):
                kept.append(crash)
        crashes = kept
    return FaultSchedule(
        crashes=tuple(crashes),
        stragglers=tuple(stragglers),
        partitions=tuple(partitions),
        seed=seed,
        restart_warmup=restart_warmup,
        domains=domains,
        domain_crashes=tuple(domain_crashes),
    )


def merge_sampled(
    schedule: FaultSchedule, spec: SampleSpec | None, num_machines: int
) -> FaultSchedule:
    """The schedule a run executes: explicit events plus sampled chaos.

    Explicit crashes win — a sampled crash (per-machine or domain)
    overlapping an explicit outage on the same machine is dropped.
    Sampling inherits the schedule's declared domains, so
    ``crashes_per_domain`` correlates exactly the declared groups.
    """
    if spec is None:
        return schedule
    sampled = sample_faults(
        spec,
        num_machines,
        seed=schedule.seed,
        restart_warmup=schedule.restart_warmup,
        domains=schedule.domains,
    )
    crashes = list(schedule.crashes)
    domain_crashes = list(schedule.domain_crashes)
    warmup = schedule.restart_warmup
    for dcrash in sampled.domain_crashes:
        if _fits(crashes, domain_crashes + [dcrash], schedule.domains,
                 warmup):
            domain_crashes.append(dcrash)
    for crash in sampled.crashes:
        if _fits(crashes + [crash], domain_crashes, schedule.domains,
                 warmup):
            crashes.append(crash)
    return dataclasses.replace(
        schedule,
        crashes=tuple(sorted(crashes, key=lambda c: (c.at, c.machine))),
        domain_crashes=tuple(
            sorted(domain_crashes, key=lambda c: (c.at, c.domain))
        ),
        stragglers=tuple(
            sorted(schedule.stragglers + sampled.stragglers,
                   key=lambda s: (s.start, s.machine))
        ),
        partitions=tuple(
            sorted(schedule.partitions + sampled.partitions,
                   key=lambda s: (s.start, s.machine))
        ),
    )


# ----------------------------------------------------------------------
# Failure-trace replay: a schedule as a JSONL log, one event per line.
#
#   {"kind": "schedule", "seed": 42, "restart_warmup": 0.001}
#   {"kind": "domain", "name": "rack0", "machines": [0, 1]}
#   {"kind": "crash", "machine": 0, "at": 0.004, "restart_after": 0.006}
#   {"kind": "domain-crash", "domain": "rack0", "at": 0.01,
#    "restart_after": 0.005}
#   {"kind": "straggler", "machine": 1, "start": 0.002, "end": 0.03,
#    "slowdown": 8.0}
#   {"kind": "partition", "machine": 2, "start": 0.001, "end": 0.004}
#   {"kind": "degrade", "machine": 3, "at": 0.01, "dimm_fraction": 0.5,
#    "bandwidth_factor": 1.0}
#
# An event line's keys are the fields of its kind's spec class (see
# ``FAULT_EVENT_KINDS``); ``restart_after``/``end`` may be null (never
# restarts / never ends).  The optional "schedule" header restores seed
# + warmup so that dump -> load round-trips a sampled schedule to an
# *equal* object (replay == sampled, pinned by tests).


def dump_fault_trace(schedule: FaultSchedule, path) -> None:
    """Write ``schedule`` as a JSONL failure log (strict JSON lines)."""
    lines: list[dict] = [{
        "kind": "schedule",
        "seed": schedule.seed,
        "restart_warmup": schedule.restart_warmup,
    }]
    for tag, _, field in FAULT_EVENT_KINDS:
        lines.extend({"kind": tag, **dataclasses.asdict(spec)}
                     for spec in getattr(schedule, field))
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line, allow_nan=False) + "\n")


def load_fault_trace(path) -> FaultSchedule:
    """Load a JSONL failure log back into a :class:`FaultSchedule`.

    Every line must be a strict-JSON object whose ``kind`` is one of
    the documented event kinds; every rejection names the offending
    ``path:line`` (and the kind, once known).  Spec-level validation
    (times, overlaps, domain names) is the same as for hand-written
    schedules — a trace is not a backdoor around it.
    """
    kinds = {tag: (cls, field) for tag, cls, field in FAULT_EVENT_KINDS}
    events: dict[str, list] = {field: [] for _, field in kinds.values()}
    seed = 0
    restart_warmup = 0.0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            where = f"fault trace {path}:{lineno}"
            try:
                data = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: malformed JSON ({exc})") from None
            if not isinstance(data, dict) or "kind" not in data:
                raise ValueError(
                    f"{where}: every line must be an object with a "
                    f"'kind' field"
                )
            kind = data.pop("kind")
            context = f"{where} ({kind})"
            if kind == "schedule":
                _check_keys(data, ("seed", "restart_warmup"), context)
                try:
                    seed = int(data.get("seed", seed))
                    restart_warmup = float(
                        data.get("restart_warmup", restart_warmup)
                    )
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{context}: {exc}") from None
            elif isinstance(kind, str) and kind in kinds:
                cls, field = kinds[kind]
                events[field].append(fault_event(cls, data, context))
            else:
                raise ValueError(
                    f"{where}: unknown event kind {kind!r} (expected one "
                    f"of {sorted([*kinds, 'schedule'])})"
                )
    try:
        return FaultSchedule(
            seed=seed,
            restart_warmup=restart_warmup,
            **{field: tuple(specs) for field, specs in events.items()},
        )
    except ValueError as exc:  # overlaps and domain names span lines
        raise ValueError(f"fault trace {path}: {exc}") from None


__all__: typing.Sequence[str] = [
    "CrashSpec",
    "StragglerSpec",
    "PartitionSpec",
    "DomainSpec",
    "DomainCrashSpec",
    "DegradeSpec",
    "SampleSpec",
    "FaultSchedule",
    "FAULT_EVENT_KINDS",
    "fault_event",
    "sample_faults",
    "merge_sampled",
    "dump_fault_trace",
    "load_fault_trace",
]
