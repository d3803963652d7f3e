"""Failure domains, partial degradation, and trace replay tests.

PR-level contracts for the domain-aware fault model, inside-out:

* **sampling** — ``crashes_per_domain`` draws from an RNG keyed on the
  domain *name* in the same namespace as the per-machine streams, so a
  single-member domain named ``str(m)`` reproduces machine ``m``'s
  crash draws bit-for-bit (hypothesis-pinned);
* **schedule** — domain expansion (``expanded_crashes`` is ``crashes``
  verbatim with no domain crashes), degrade-state queries, the
  correlated-outage sweep line, and the sharpened validation messages
  (offending key + valid index range, did-you-mean for domain typos);
* **serving** — a DIMM degrade renegotiates the machine (availability
  stays 1.0, throughput drops, nothing strands), and KV-overflow
  evictions are honest migrations back onto the same machine;
* **preemption** — the deadline preemptor refuses to evict onto an
  unhealthy machine (the victim's re-admission lands where it died);
* **replay** — a dumped failure trace loads back to an equal schedule
  and replaying it through a scenario reproduces the sampled run
  bit-for-bit;
* **acceptance** — on the bundled rack-outage drill, a rack-wide
  correlated crash damages joint SLO strictly more than the same
  number of independent crashes, and per-domain availability plus
  ``correlated_outage_seconds`` expose the difference.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware import Machine
from repro.models import get_model
from repro.scenarios import load_scenario
from repro.serving import (
    CrashSpec,
    DegradeSpec,
    DomainCrashSpec,
    DomainSpec,
    FaultSchedule,
    PartitionSpec,
    SampleSpec,
    ServingConfig,
    ServingSimulator,
    StragglerSpec,
    dump_fault_trace,
    load_fault_trace,
    sample_faults,
)
from repro.serving.faults import FAULT_EVENT_KINDS
from repro.telemetry import MachineDegraded, RecordingTracer, RequestMigrated

from tests.test_faults import (
    _assert_reports_equal,
    _serve,
    _trace,
    _workload,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
DOMAINS_SPEC = REPO / "scenarios" / "chaos_domains_tiny.json"

RACKS = (DomainSpec("rack0", (0, 1)), DomainSpec("rack1", (2, 3)))

#: the JSONL failure-trace format, one event of every kind in line order
TRACE_TEXT = """\
{"kind": "schedule", "seed": 42, "restart_warmup": 0.001}
{"kind": "domain", "name": "rack1", "machines": [2, 3]}
{"kind": "crash", "machine": 0, "at": 0.004, "restart_after": null}
{"kind": "domain-crash", "domain": "rack1", "at": 0.01, "restart_after": \
0.005}
{"kind": "straggler", "machine": 1, "start": 0.002, "end": null, \
"slowdown": 8.0}
{"kind": "partition", "machine": 2, "start": 0.001, "end": 0.004}
{"kind": "degrade", "machine": 3, "at": 0.02, "dimm_fraction": 0.5, \
"bandwidth_factor": 1.0}
"""


def _tight_machine(per_dimm_bytes: int = 1_613_824) -> Machine:
    """A machine whose DIMM pool barely fits tiny-test weights + KV.

    The default :class:`Machine` carries a 256 GiB pool — a KV capacity
    of tens of millions of tokens, so degrade-driven eviction is
    unreachable.  Shrinking each DIMM to ~1.6 MB leaves room for only
    ~1600 resident tokens pristine and ~40 on half the pool, which a
    tiny serving run overflows immediately.
    """
    base = Machine()
    geometry = dataclasses.replace(
        base.dimm.geometry, capacity_bytes=per_dimm_bytes)
    dimm = dataclasses.replace(base.dimm, geometry=geometry)
    return dataclasses.replace(base, dimm=dimm)


# ----------------------------------------------------------------------
# sampling: domain draws share the per-machine RNG namespace
# ----------------------------------------------------------------------
class TestDomainSampling:
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**31), machine=st.integers(0, 7),
           mean=st.floats(0.2, 3.0))
    def test_single_member_domain_matches_per_machine(
            self, seed, machine, mean):
        spec = SampleSpec(horizon=1.0, mean_downtime=0.05,
                          restart_fraction=0.7)
        per_machine = sample_faults(
            dataclasses.replace(spec, crashes_per_machine=mean),
            num_machines=8, seed=seed)
        per_domain = sample_faults(
            dataclasses.replace(spec, crashes_per_domain=mean),
            num_machines=8, seed=seed,
            domains=(DomainSpec(str(machine), (machine,)),))
        want = [(c.at, c.restart_after) for c in per_machine.crashes
                if c.machine == machine]
        got = [(c.at, c.restart_after) for c in per_domain.expanded_crashes
               if c.machine == machine]
        assert got == want

    def test_domain_sampling_is_correlated(self):
        spec = SampleSpec(horizon=1.0, crashes_per_domain=2.0,
                          mean_downtime=0.05, restart_fraction=1.0)
        schedule = sample_faults(spec, num_machines=4, seed=3,
                                 domains=RACKS)
        assert schedule.domain_crashes
        for crash in schedule.domain_crashes:
            members = {m for d in RACKS if d.name == crash.domain
                       for m in d.machines}
            expanded = {c.machine for c in schedule.expanded_crashes
                        if c.at == crash.at}
            assert members <= expanded

    def test_sampling_deterministic_across_calls(self):
        spec = SampleSpec(horizon=1.0, crashes_per_machine=1.0,
                          crashes_per_domain=1.0, mean_downtime=0.04)
        runs = [sample_faults(spec, num_machines=4, seed=11,
                              domains=RACKS) for _ in range(2)]
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# schedule: expansion, degrade state, correlated outage, validation
# ----------------------------------------------------------------------
class TestDomainSchedule:
    def test_expanded_crashes_identity_without_domain_crashes(self):
        schedule = FaultSchedule(crashes=(CrashSpec(0, 0.01, 0.02),),
                                 domains=RACKS)
        assert schedule.expanded_crashes is schedule.crashes

    def test_domain_crash_expands_to_every_member(self):
        schedule = FaultSchedule(
            domains=RACKS,
            domain_crashes=(DomainCrashSpec("rack0", 0.01, 0.02),))
        assert [(c.machine, c.at, c.restart_after)
                for c in schedule.expanded_crashes] == [
            (0, 0.01, 0.02), (1, 0.01, 0.02)]
        assert schedule.is_down(0, 0.015) and schedule.is_down(1, 0.015)
        assert not schedule.is_down(2, 0.015)

    def test_degrade_state_and_health(self):
        schedule = FaultSchedule(degrades=(
            DegradeSpec(0, 0.01, dimm_fraction=0.5),
            DegradeSpec(0, 0.02, bandwidth_factor=0.5),
        ))
        assert schedule.degrade_state(0, 0.0) == (1.0, 1.0)
        assert schedule.degrade_state(0, 0.015) == (0.5, 1.0)
        assert schedule.degrade_state(0, 0.025) == (0.5, 0.5)
        assert schedule.health_state(0, 0.0) == "ok"
        assert schedule.health_state(0, 0.015) == "degraded"

    def test_correlated_outage_is_overlap_time(self):
        schedule = FaultSchedule(
            domains=RACKS,
            crashes=(CrashSpec(0, 0.010, 0.010),
                     CrashSpec(1, 0.015, 0.010),
                     CrashSpec(2, 0.015, 0.010)))
        # rack0: [0.010, 0.020) and [0.015, 0.025) overlap for 5 ms;
        # rack1's lone crash never overlaps anything
        assert schedule.correlated_outage_within(1.0) == pytest.approx(
            0.005)
        # the horizon clips the overlap window
        assert schedule.correlated_outage_within(0.018) == pytest.approx(
            0.003)

    def test_correlated_outage_nan_without_domains(self):
        schedule = FaultSchedule(crashes=(CrashSpec(0, 0.01, 0.02),
                                          CrashSpec(1, 0.01, 0.02)))
        assert math.isnan(schedule.correlated_outage_within(1.0))

    def test_validate_fleet_names_key_and_range(self):
        schedule = FaultSchedule(degrades=(
            DegradeSpec(5, 0.01, dimm_fraction=0.5),))
        with pytest.raises(ValueError, match=(
                r"faults\.degrades names machine 5 but the fleet has 4 "
                r"machines \(valid indices: 0\.\.3\)")):
            schedule.validate_fleet(4)

    def test_validate_fleet_names_domain_key(self):
        schedule = FaultSchedule(domains=(DomainSpec("rack9", (0, 7)),))
        with pytest.raises(ValueError,
                           match=r"faults\.domains\['rack9'\]"):
            schedule.validate_fleet(4)

    def test_unknown_domain_suggests_closest(self):
        with pytest.raises(ValueError, match=r"did you mean 'rack0'"):
            FaultSchedule(
                domains=RACKS,
                domain_crashes=(DomainCrashSpec("rak0", 0.01, 0.02),))

    def test_overlapping_domains_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            FaultSchedule(domains=(DomainSpec("a", (0, 1)),
                                   DomainSpec("b", (1, 2))))


# ----------------------------------------------------------------------
# serving: degradation renegotiates instead of killing
# ----------------------------------------------------------------------
class TestDegradation:
    def test_degrade_keeps_machine_alive_but_slower(self):
        healthy = _serve(None, machines=1)
        degraded = _serve(
            FaultSchedule(degrades=(
                DegradeSpec(0, 0.002, dimm_fraction=0.5),)),
            machines=1)
        assert not degraded.unfinished
        assert degraded.availability == 1.0
        assert degraded.makespan > healthy.makespan
        assert degraded.tokens_per_second < healthy.tokens_per_second

    def test_kv_overflow_evicts_as_migration_onto_self(self):
        faults = FaultSchedule(degrades=(
            DegradeSpec(0, 0.004, dimm_fraction=0.5),))
        tracer = RecordingTracer()
        simulator = ServingSimulator(
            "tiny-test", "fcfs",
            ServingConfig(max_batch=6, num_machines=1, faults=faults),
            machine=_tight_machine(), trace=_trace())
        report = simulator.run(list(_workload(24)), tracer=tracer)
        degrades = [e for e in tracer.events
                    if isinstance(e, MachineDegraded)]
        assert degrades and degrades[0].evicted > 0
        evictions = [e for e in tracer.events
                     if isinstance(e, RequestMigrated)
                     and e.time == degrades[0].time]
        assert len(evictions) == degrades[0].evicted
        # shared-queue mode: evicted KV re-prefills via the one queue
        assert all(e.from_machine == 0 for e in evictions)
        assert report.migrations >= degrades[0].evicted
        assert not report.unfinished  # evicted work finishes eventually

    def test_degrade_below_the_model_fails_before_the_run(self):
        faults = FaultSchedule(degrades=(
            DegradeSpec(0, 0.001, dimm_fraction=0.75),))
        tracer = RecordingTracer()
        simulator = ServingSimulator(
            "tiny-test", "fcfs",
            ServingConfig(max_batch=6, num_machines=1, faults=faults),
            machine=_tight_machine(), trace=_trace())
        model = get_model("tiny-test")
        needed = model.total_weight_bytes - model.embedding_bytes
        # a quarter of the 8 DIMMs survives
        match = (rf"faults\.degrades leaves machine 0 with 2 DIMM\(s\) "
                 rf"holding {2 * 1_613_824} bytes, but tiny-test needs "
                 rf"{needed} bytes")
        with pytest.raises(ValueError, match=match):
            simulator.run(list(_workload(24)), tracer=tracer)
        assert tracer.events == []
        # the trial renegotiation is undone
        assert simulator.executors[0].machine == _tight_machine()


# ----------------------------------------------------------------------
# preemption: health gating
# ----------------------------------------------------------------------
class TestHealthGatedPreemption:
    def test_no_victim_on_unhealthy_machine(self):
        from repro.cluster.slo import (
            DeadlinePreemptor,
            PriorityClass,
            SLOPolicy,
        )
        from repro.serving import get_policy
        from repro.serving.simulator import ActiveEntry, RequestRecord

        slo = SLOPolicy(classes=(
            PriorityClass("fast", priority=1, ttft_slo=0.001),
            PriorityClass("default", priority=0),
        ))
        gated = DeadlinePreemptor(get_policy("fcfs"), slo,
                                  health=lambda executor, now: "degraded")
        open_ = DeadlinePreemptor(get_policy("fcfs"), slo,
                                  health=lambda executor, now: "ok")

        simulator = ServingSimulator(
            "tiny-test", "fcfs",
            ServingConfig(max_batch=6, num_machines=1),
            trace=_trace())
        executor = simulator.executors[0]
        workload = _workload(4)
        head = dataclasses.replace(workload[0], class_name="fast")
        queue = [head]
        active = [ActiveEntry(request=workload[3],
                              record=RequestRecord(request=workload[3]),
                              admitted_at=0.0)]
        now = head.arrival + 0.5  # hopelessly past the deadline
        assert open_.victim(now, queue, active, executor) is not None
        assert gated.victim(now, queue, active, executor) is None


# ----------------------------------------------------------------------
# replay: dump -> load -> rerun is bit-identical
# ----------------------------------------------------------------------
class TestTraceReplay:
    def test_round_trip_schedule_equality(self, tmp_path):
        spec = SampleSpec(horizon=0.05, crashes_per_machine=1.5,
                          crashes_per_domain=1.0, mean_downtime=0.004,
                          stragglers_per_machine=1.0,
                          mean_straggle=0.003)
        schedule = dataclasses.replace(
            sample_faults(spec, num_machines=4, seed=5, domains=RACKS,
                          restart_warmup=0.001),
            degrades=(DegradeSpec(3, 0.01, dimm_fraction=0.5),))
        path = tmp_path / "faults.jsonl"
        dump_fault_trace(schedule, path)
        assert load_fault_trace(path) == schedule
        # every line is strict JSON with a kind tag
        for line in path.read_text().splitlines():
            assert "kind" in json.loads(line)

    def test_dump_format_is_pinned(self, tmp_path):
        # one event of every kind: line order, key order and nulls
        schedule = FaultSchedule(
            crashes=(CrashSpec(0, 0.004),),
            stragglers=(StragglerSpec(1, 0.002, None, 8.0),),
            partitions=(PartitionSpec(2, 0.001, 0.004),),
            seed=42,
            restart_warmup=0.001,
            domains=(DomainSpec("rack1", (2, 3)),),
            domain_crashes=(DomainCrashSpec("rack1", 0.01, 0.005),),
            degrades=(DegradeSpec(3, 0.02, 0.5),),
        )
        path = tmp_path / "faults.jsonl"
        dump_fault_trace(schedule, path)
        assert path.read_text() == TRACE_TEXT
        assert load_fault_trace(path) == schedule

    def test_event_kinds_cover_the_schedule(self):
        fields = {f.name for f in dataclasses.fields(FaultSchedule)}
        assert sorted(f for _, _, f in FAULT_EVENT_KINDS) == sorted(
            fields - {"seed", "restart_warmup"})

    @pytest.mark.parametrize("line, needles", [
        ("{not json", ["malformed JSON"]),
        ("[1, 2]", ["'kind'"]),
        ('{"machine": 0, "at": 0.1}', ["'kind'"]),
        ('{"kind": "reboot", "machine": 0}', ["'reboot'"]),
        ('{"kind": ["crash"], "machine": 0}', ["['crash']"]),
        ('{"kind": "schedule", "seed": 1, "oops": 2}',
         ["schedule", "'oops'"]),
        ('{"kind": "crash", "machine": 0, "at": 0.1, "oops": 2}',
         ["crash", "'oops'"]),
        ('{"kind": "crash", "machine": 0}', ["crash", "'at'"]),
        ('{"kind": "crash", "machine": 0, "at": -1.0}', ["crash", "'at'"]),
        ('{"kind": "domain", "name": "rack9"}', ["domain", "'machines'"]),
        ('{"kind": "domain-crash", "at": 0.1}', ["domain-crash", "'domain'"]),
        ('{"kind": "straggler", "machine": 0, "start": 0.1, "end": 0.2}',
         ["straggler", "'slowdown'"]),
        ('{"kind": "straggler", "machine": 0, "start": 0.2, "end": 0.1, '
         '"slowdown": 2.0}', ["straggler", "end must be after start"]),
        ('{"kind": "partition", "machine": 0, "start": 0.1, "stop": 0.2}',
         ["partition", "'stop'"]),
        ('{"kind": "degrade", "machine": 0, "at": 0.1, '
         '"dimm_fraction": 1.5}', ["degrade", "dimm_fraction"]),
    ])
    def test_load_rejection_names_line_kind_and_key(
            self, tmp_path, line, needles):
        path = tmp_path / "faults.jsonl"
        path.write_text(TRACE_TEXT.splitlines()[0] + "\n\n" + line + "\n")
        with pytest.raises(ValueError) as info:
            load_fault_trace(path)
        message = str(info.value)
        # the blank second line still counts: the bad event is line 3
        for needle in [f"{path}:3", *needles]:
            assert needle in message

    @pytest.mark.parametrize("events, needle", [
        (['{"kind": "crash", "machine": 0, "at": 0.1}',
          '{"kind": "crash", "machine": 0, "at": 0.2}'], "overlap"),
        (['{"kind": "domain-crash", "domain": "rack9", "at": 0.1}'],
         "'rack9'"),
    ])
    def test_schedule_rejection_names_the_trace(
            self, tmp_path, events, needle):
        path = tmp_path / "faults.jsonl"
        path.write_text("\n".join(events) + "\n")
        with pytest.raises(ValueError) as info:
            load_fault_trace(path)
        assert f"fault trace {path}: " in str(info.value)
        assert needle in str(info.value)

    def test_replay_reproduces_sampled_run(self, tmp_path):
        from tools.gen_fault_trace import main as gen_main

        out = tmp_path / "replay.jsonl"
        assert gen_main([str(DOMAINS_SPEC), str(out)]) == 0

        scenario = load_scenario(DOMAINS_SPEC)
        data = json.loads(DOMAINS_SPEC.read_text())
        data["faults"] = {"trace": str(out)}
        replay_path = tmp_path / "replay_scenario.json"
        replay_path.write_text(json.dumps(data))
        replayed = load_scenario(replay_path)
        assert replayed.config.faults == scenario.config.faults

        trace = scenario.build_trace()
        _assert_reports_equal(scenario.run(trace), replayed.run(trace))


# ----------------------------------------------------------------------
# acceptance: the bundled rack-outage drill
# ----------------------------------------------------------------------
class TestChaosDomainsScenario:
    def _run_variant(self, mutate=None):
        scenario = load_scenario(DOMAINS_SPEC)
        if mutate is not None:
            scenario = mutate(scenario)
        return scenario.run(scenario.build_trace())

    def test_correlated_crash_hurts_more_than_independent(self):
        correlated = self._run_variant()

        def independent(scenario):
            faults = scenario.config.faults
            outage = faults.domain_crashes[0]
            spread = dataclasses.replace(
                faults, domain_crashes=(),
                crashes=(
                    CrashSpec(0, outage.at, outage.restart_after),
                    CrashSpec(1, outage.at + 0.014,
                              outage.restart_after),
                ))
            return dataclasses.replace(
                scenario,
                config=dataclasses.replace(scenario.config,
                                           faults=spread))

        independent_report = self._run_variant(independent)
        joint = correlated.slo_attainment("interactive")["joint"]
        spread_joint = independent_report.slo_attainment(
            "interactive")["joint"]
        assert joint < spread_joint
        assert correlated.correlated_outage_seconds > 0
        # the same two crashes, staggered, never overlap
        assert independent_report.correlated_outage_seconds == 0.0

    def test_degrade_only_renegotiates_without_downtime(self):
        def degrade_only(scenario):
            faults = scenario.config.faults
            return dataclasses.replace(
                scenario,
                config=dataclasses.replace(
                    scenario.config,
                    faults=dataclasses.replace(faults,
                                               domain_crashes=())))

        def fault_free(scenario):
            return dataclasses.replace(
                scenario,
                config=dataclasses.replace(scenario.config, faults=None))

        degraded = self._run_variant(degrade_only)
        pristine = self._run_variant(fault_free)
        assert degraded.availability == 1.0
        assert not degraded.unfinished
        assert degraded.tokens_per_second < pristine.tokens_per_second

    def test_report_domain_views(self):
        report = self._run_variant()
        availability = report.domain_availability()
        assert set(availability) == {"rack0", "rack1"}
        assert availability["rack0"] < availability["rack1"] == 1.0
        assert report.correlated_outage_seconds == pytest.approx(0.007)
        # a domain-free run renders the domain views empty/nan
        plain = self._run_variant(lambda s: dataclasses.replace(
            s, config=dataclasses.replace(s.config, faults=None)))
        assert plain.domain_availability() == {}
        assert math.isnan(plain.correlated_outage_seconds)
