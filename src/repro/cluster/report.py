"""Cluster-level metrics: per-class SLO attainment and fairness.

Extends :class:`~repro.serving.ServingReport` with the questions an
operator of a multi-tenant cluster asks: did each priority class meet its
TTFT/TBT deadlines, how evenly was service spread across tenants, and
how balanced were the machines?

SLO semantics (documented in the README's scenario section):

* a request **attains its TTFT SLO** when ``ttft <= ttft_slo``;
* a request **attains its TBT SLO** when *every* inter-token gap is
  ``<= tbt_slo`` (a preemption-induced stall therefore fails it — the
  cost of preemption is charged where it lands);
* **joint attainment** requires both, with an absent deadline vacuously
  met.  Per-class attainment is the fraction of *all* the class's
  requests attaining — a request the run never finished attains nothing,
  so crashes cannot masquerade as latency improvements.

Fairness is Jain's index over per-tenant decode service rates (tokens
delivered per second of end-to-end residence): 1.0 means every tenant
saw identical service, 1/n means one tenant got everything.
"""

from __future__ import annotations

import dataclasses

import math

from ..serving import RequestRecord, ServingReport, percentile_or_nan
from .slo import PriorityClass, SLOPolicy


@dataclasses.dataclass
class ClusterReport(ServingReport):
    """Aggregate outcome of one cluster-simulation run."""

    router: str = "round-robin"
    slo: SLOPolicy = dataclasses.field(default_factory=SLOPolicy)
    #: declared failure domains as ``(name, member_machines)`` pairs
    #: (empty when the run declared none)
    domains: tuple = ()
    #: total time ≥ 2 machines of one domain were simultaneously down —
    #: the signature of a correlated (rack-level) outage; ``nan`` when
    #: no domains were declared (rendered as "—")
    correlated_outage_seconds: float = math.nan

    # ---- failure domains ---------------------------------------------
    def domain_availability(self) -> dict[str, float]:
        """Per-domain availability over the run, by domain name.

        A domain's availability is the machine-weighted mean of its
        members' availability: ``1 - downtime / (makespan * members)``.
        Empty (no domains declared) or all-1.0 (domains but no injected
        downtime) distinguishes "not modelled" from "nothing failed".
        """
        if not self.domains or self.makespan <= 0:
            return {}
        out: dict[str, float] = {}
        for name, members in self.domains:
            total = self.makespan * len(members)
            down = math.fsum(
                self.machine_downtime[m]
                for m in members
                if m < len(self.machine_downtime)
            )
            out[name] = max(0.0, 1.0 - down / total)
        return out

    # ---- per-class views ---------------------------------------------
    @property
    def class_names(self) -> list[str]:
        """Declared classes, highest priority first (ties by name)."""
        ordered = sorted(self.slo.classes, key=lambda c: (-c.priority, c.name))
        return [c.name for c in ordered]

    def class_records(self, name: str) -> list[RequestRecord]:
        return [r for r in self.records if r.request.class_name == name]

    def _class_completed(self, name: str) -> list[RequestRecord]:
        return [r for r in self.class_records(name) if r.finished]

    # Per-class percentiles follow the base report's "no data is nan"
    # convention: a class with no completed requests (or no recorded
    # gaps) reports ``nan``, rendered as "—" in the experiment tables.
    def class_ttft_percentile(self, name: str, p: float) -> float:
        done = self._class_completed(name)
        return percentile_or_nan([r.ttft for r in done], p)

    def class_tbt_percentile(self, name: str, p: float) -> float:
        gaps = [g for r in self._class_completed(name) for g in r.tbts]
        return percentile_or_nan(gaps, p)

    def class_queue_wait_percentile(self, name: str, p: float) -> float:
        """Arrival -> prefill-start scheduling delay within one class."""
        done = self._class_completed(name)
        return percentile_or_nan([r.queue_wait for r in done], p)

    # ---- SLO attainment ----------------------------------------------
    def request_attains(self, record: RequestRecord) -> tuple[bool, bool]:
        """(TTFT met, TBT met) for one completed request."""
        cls = self.slo.class_of(record.request)
        ttft_ok = cls.ttft_slo is None or record.ttft <= cls.ttft_slo
        if cls.tbt_slo is None:
            tbt_ok = True
        else:
            tbt_ok = all(g <= cls.tbt_slo for g in record.tbts)
        return ttft_ok, tbt_ok

    def slo_attainment(self, name: str) -> dict[str, float]:
        """Fractions of class ``name``'s requests meeting their SLOs.

        Keys: ``ttft``, ``tbt``, ``joint``.  The denominator is *every*
        request of the class: one the run never finished (stranded on a
        machine that never restarted) attains nothing — dropping it from
        the count would make a crash look like a latency improvement.
        Fault-free runs complete every request, so there this equals the
        completed-only fraction.  A class with no requests at all has
        nothing to attain over: every fraction is ``nan``.
        """
        records = self.class_records(name)
        if not records:
            return {"ttft": math.nan, "tbt": math.nan, "joint": math.nan}
        flags = [
            self.request_attains(r) if r.finished else (False, False)
            for r in records
        ]
        n = len(flags)
        return {
            "ttft": sum(1 for t, _ in flags if t) / n,
            "tbt": sum(1 for _, b in flags if b) / n,
            "joint": sum(1 for t, b in flags if t and b) / n,
        }

    def class_of(self, name: str) -> PriorityClass:
        """The declared class object for ``name``."""
        for cls in self.slo.classes:
            if cls.name == name:
                return cls
        raise KeyError(f"unknown class {name!r}")

    # ---- fairness and goodput ----------------------------------------
    @property
    def goodput(self) -> float:
        """Met-SLO tokens delivered per *available* machine-second.

        The numerator counts tokens only from completed requests that
        jointly attained their class SLOs; the denominator is the fleet's
        machine-seconds minus injected downtime, so a crashed-and-idle
        machine does not dilute the rate of the survivors.  ``nan`` on a
        zero-length run or a fleet that was down for the whole makespan.
        """
        if self.makespan <= 0:
            return math.nan
        available = self.makespan * self.num_machines
        available -= math.fsum(self.machine_downtime)
        if available <= 0:
            return math.nan
        good_tokens = sum(
            len(r.token_times)
            for r in self.completed
            if all(self.request_attains(r))
        )
        return good_tokens / available

    @property
    def machine_seconds_per_good_token(self) -> float:
        """Cost-normalized attainment: machine-seconds per met-SLO token.

        The reciprocal of :attr:`goodput` — what one delivered,
        SLO-meeting token costs in available fleet time.  Lower is
        better; this is the number the capacity planner minimises when
        two fleets both clear the SLO table.  ``nan`` when nothing
        attained (no met-SLO tokens) or the run recorded no available
        machine time.
        """
        rate = self.goodput
        if math.isnan(rate) or rate <= 0:
            return math.nan
        return 1.0 / rate

    def fairness_index(self, by: str = "tenant") -> float:
        """Jain's fairness index over per-group decode service rates.

        ``by`` groups completed requests per ``"tenant"`` or per
        ``"class"``; each group's service rate is its delivered tokens
        divided by its summed end-to-end residence time.
        """
        if by not in ("tenant", "class"):
            raise ValueError("fairness_index groups by 'tenant' or 'class'")
        groups: dict[str, tuple[int, float]] = {}
        for record in self.completed:
            if by == "tenant":
                key = record.request.tenant
            else:
                key = record.request.class_name
            tokens, seconds = groups.get(key, (0, 0.0))
            groups[key] = (
                tokens + len(record.token_times),
                seconds + record.e2e_latency,
            )
        if not groups:
            # nothing completed (e.g. the whole fleet crashed): "no
            # data", nan — same convention as the latency percentiles
            return math.nan
        rates = [t / s for t, s in groups.values() if s > 0]
        if not rates:
            return 1.0
        total = math.fsum(rates)
        return total * total / (len(rates) * math.fsum(r * r for r in rates))
