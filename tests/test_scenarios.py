"""Tests for declarative scenario specs (`repro.scenarios`)."""

from __future__ import annotations

import copy
import json
import re

import pytest

from repro.experiments.cluster_eval import SCENARIO_DIR, resolve_scenario
from repro.scenarios import load_scenario, parse_scenario

MINIMAL = {
    "model": "tiny-test",
    "trace": {"granularity": 4, "seed": 7},
    "tenants": [
        {"name": "t0", "rate": 2000.0, "num_requests": 8,
         "prompt_lens": {"kind": "fixed", "mean": 16},
         "output_lens": {"kind": "fixed", "mean": 4}},
    ],
}

TWO_CLASS = {
    "model": "tiny-test",
    "seed": 3,
    "trace": {"granularity": 4, "seed": 7},
    "cluster": {"num_machines": 2, "max_batch": 8,
                "router": "least-loaded", "policy": "fcfs"},
    "slo": {"preemptive": True, "headroom": 0.8},
    "classes": {
        "hi": {"priority": 2, "ttft_slo": 0.002, "tbt_slo": 0.004},
        "lo": {"priority": 0},
    },
    "tenants": [
        {"name": "chat", "class": "hi", "rate": 3000.0,
         "num_requests": 12,
         "prompt_lens": {"kind": "fixed", "mean": 16},
         "output_lens": {"kind": "fixed", "mean": 8}},
        {"name": "bulk", "class": "lo", "arrival": "bursty",
         "rate": 8000.0, "num_requests": 24, "burst_factor": 3.0,
         "burst_fraction": 0.25,
         "prompt_lens": {"kind": "fixed", "mean": 32},
         "output_lens": {"kind": "fixed", "mean": 16}},
    ],
}

#: per fault-event section, a required key to drop and a (key, bad value)
#: pair the spec class rejects
BAD_FAULT_EVENTS = {
    "crashes": ("at", ("at", -1.0)),
    "stragglers": ("slowdown", ("end", 0.05)),
    "partitions": ("end", ("start", -1.0)),
    "domain_crashes": ("domain", ("restart_after", 0.0)),
    "degrades": ("machine", ("bandwidth_factor", 0.0)),
}


class TestParsing:
    def test_minimal_defaults(self):
        scenario = parse_scenario(copy.deepcopy(MINIMAL))
        assert scenario.config.num_machines == 2  # ClusterConfig default
        assert scenario.config.router == "round-robin"
        assert scenario.policy.name == "fcfs"
        # untagged tenants get the implicit default class
        assert {c.name for c in scenario.slo.classes} == {"default"}

    def test_unknown_keys_rejected_everywhere(self):
        for key, mutate in (
            ("routers", lambda d: d.update(routers="oops")),
            ("granluarity", lambda d: d["trace"].update(granluarity=4)),
            ("prompt_len", lambda d: d["tenants"][0].update(prompt_len=16)),
            ("man", lambda d: d["tenants"][0]["prompt_lens"].update(man=16)),
            # removed options: an old spec fails loudly, not silently
            ("macro_step",
             lambda d: d.setdefault("cluster", {}).update(macro_step=True)),
            ("shard_processes",
             lambda d: d.setdefault("cluster", {}).update(
                 shard_processes=True)),
            ("shards",
             lambda d: d.setdefault("cluster", {}).update(shards=8)),
        ):
            data = copy.deepcopy(MINIMAL)
            mutate(data)
            with pytest.raises(
                ValueError, match=re.escape(f"unknown keys ['{key}']")
            ):
                parse_scenario(data)

    @pytest.mark.parametrize("section, event", [
        ("crashes", {"machine": 0, "at": 0.1}),
        ("stragglers", {"machine": 0, "start": 0.1, "end": 0.2,
                        "slowdown": 2.0}),
        ("partitions", {"machine": 0, "start": 0.1, "end": 0.2}),
        ("domain_crashes", {"domain": "rack", "at": 0.1}),
        ("degrades", {"machine": 0, "at": 0.1, "dimm_fraction": 0.5}),
    ])
    def test_unknown_fault_event_key_names_its_path(self, section, event):
        data = copy.deepcopy(MINIMAL)
        data["faults"] = {section: [dict(event, oops=1)]}
        with pytest.raises(ValueError, match=re.escape(
                f"faults.{section}[0]: unknown keys ['oops']")):
            parse_scenario(data)
        # a missing key and a bad value name the event's path and key too
        missing, (key, value) = BAD_FAULT_EVENTS[section]
        for bad_event, named in (
            ({k: v for k, v in event.items() if k != missing}, missing),
            (dict(event, **{key: value}), key),
        ):
            data["faults"] = {section: [bad_event]}
            with pytest.raises(ValueError) as info:
                parse_scenario(data)
            message = str(info.value)
            assert message.startswith(f"faults.{section}[0]: ")
            assert named in message

    def test_missing_model_or_tenants(self):
        with pytest.raises(ValueError, match="model"):
            parse_scenario({"tenants": MINIMAL["tenants"]})
        with pytest.raises(ValueError, match="tenant"):
            parse_scenario({"model": "tiny-test"})

    def test_undeclared_class_rejected(self):
        data = copy.deepcopy(MINIMAL)
        data["tenants"][0]["class"] = "gold"
        with pytest.raises(ValueError, match="not declared"):
            parse_scenario(data)

    def test_unknown_router_rejected(self):
        data = copy.deepcopy(MINIMAL)
        data["cluster"] = {"router": "dns"}
        with pytest.raises(ValueError, match="unknown router"):
            parse_scenario(data)

    def test_union_cap_needs_hermes_union(self):
        data = copy.deepcopy(MINIMAL)
        data["cluster"] = {"policy": "fcfs", "union_cap": 1.5}
        with pytest.raises(ValueError, match="union_cap"):
            parse_scenario(data)
        data["cluster"] = {"policy": "hermes-union", "union_cap": 1.5}
        assert parse_scenario(data).policy.union_cap == 1.5

    def test_machine_overrides(self):
        data = copy.deepcopy(MINIMAL)
        data["machine"] = {
            "gpu": "RTX 3090", "num_dimms": 4, "sync_latency": 1e-6
        }
        machine = parse_scenario(data).machine
        assert machine.gpu.name == "RTX 3090"
        assert machine.num_dimms == 4
        assert machine.sync_latency == 1e-6

    def test_tenant_seeds_default_distinct(self):
        data = copy.deepcopy(TWO_CLASS)
        for tenant in data["tenants"]:
            tenant.pop("seed", None)
        scenario = parse_scenario(data)
        seeds = [t.seed for t in scenario.tenants]
        assert len(set(seeds)) == len(seeds)

    def test_workload_merge_and_tags(self):
        scenario = parse_scenario(copy.deepcopy(TWO_CLASS))
        workload = scenario.build_workload()
        assert len(workload) == 36
        arrivals = [r.arrival for r in workload]
        assert arrivals == sorted(arrivals)
        assert [r.req_id for r in workload] == list(range(36))
        assert {r.tenant for r in workload} == {"chat", "bulk"}
        assert {r.class_name for r in workload} == {"hi", "lo"}

    def test_deterministic(self):
        a = parse_scenario(copy.deepcopy(TWO_CLASS))
        b = parse_scenario(copy.deepcopy(TWO_CLASS))
        assert [(r.arrival, r.prompt_len) for r in a.build_workload()] \
            == [(r.arrival, r.prompt_len) for r in b.build_workload()]


class TestLoading:
    def test_load_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(MINIMAL))
        assert load_scenario(path).name == "spec"

    def test_load_toml(self, tmp_path):
        pytest.importorskip(
            "tomllib", reason="TOML scenarios need Python >= 3.11"
        )
        path = tmp_path / "spec.toml"
        path.write_text(
            'model = "tiny-test"\n'
            "[trace]\ngranularity = 4\n"
            "[[tenants]]\nname = \"t0\"\nrate = 2000.0\n"
            "num_requests = 4\n"
            'prompt_lens = {kind = "fixed", mean = 16}\n'
            'output_lens = {kind = "fixed", mean = 4}\n')
        scenario = load_scenario(path)
        assert scenario.tenants[0].name == "t0"

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("model: tiny-test")
        with pytest.raises(ValueError, match="unsupported"):
            load_scenario(path)

    def test_resolve_scenario_lookup(self):
        direct = resolve_scenario("scenarios/mixed_slo_tiny.json") \
            if (SCENARIO_DIR / "mixed_slo_tiny.json").exists() else None
        by_name = resolve_scenario("mixed_slo_tiny")
        assert by_name.name == "mixed_slo_tiny.json"
        if direct is not None:
            assert direct.read_bytes() == by_name.read_bytes()
        with pytest.raises(FileNotFoundError):
            resolve_scenario("no_such_scenario")

    def test_bundled_specs_parse(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            scenario = load_scenario(path)
            assert scenario.tenants


class TestEndToEnd:
    def test_small_scenario_runs(self, tiny_trace):
        scenario = parse_scenario(copy.deepcopy(TWO_CLASS))
        report = scenario.run(tiny_trace)
        assert len(report.completed) == 36
        assert report.num_machines == 2
        assert report.router == "least-loaded"
        assert set(report.class_names) >= {"hi", "lo"}
        # both classes produced SLO numbers
        for name in ("hi", "lo"):
            attainment = report.slo_attainment(name)
            assert 0.0 <= attainment["joint"] <= 1.0
