"""Tests for the capacity planner (`repro.planner`)."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.baselines.base import (
    streamed_token_transfer_floor,
    weights_resident_fraction,
)
from repro.core import HermesSystem
from repro.core.engine import (
    GPU_RESERVE_BYTES,
    hermes_gpu_hot_budget,
    hermes_memory_feasible,
)
from repro.experiments.cluster_eval import resolve_scenario
from repro.hardware import GPU_REGISTRY, Machine, get_gpu
from repro.models import get_model, list_models
from repro.planner import (
    FleetCandidate,
    enumerate_candidates,
    offered_load,
    pareto_frontier,
    plan,
)
from repro.planner.plan import _validate
from repro.planner.prune import analyze_candidate
from repro.scenarios import PlannerSpec, load_scenario, parse_scenario
from repro.serving import BACKENDS

TINY = resolve_scenario("mixed_slo_tiny.json")

#: a workload no fleet in the registries can serve — demand in the
#: tens of millions of tokens/sec — so the analytic throughput prune
#: actually fires (the CI scenario is servable, so nothing prunes there)
IMPOSSIBLE = {
    "model": "tiny-test",
    "trace": {"granularity": 4, "seed": 7},
    "cluster": {"max_batch": 8},
    "classes": {"rt": {"priority": 1, "ttft_slo": 1e-6,
                       "tbt_slo": 1e-7}},
    "tenants": [{"class": "rt", "rate": 1e6, "num_requests": 64,
                 "prompt_lens": {"kind": "fixed", "mean": 16},
                 "output_lens": {"kind": "fixed", "mean": 32}}],
    "planner": {"budget": 1, "optimism": 1.5},
}


def tiny_scenario():
    return load_scenario(TINY)


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
class TestPlannerSpec:
    def test_defaults(self):
        spec = PlannerSpec()
        assert spec.budget == 8
        assert spec.backends == ()
        assert spec.target_attainment == 0.95

    def test_scenario_section_parsed(self):
        scenario = parse_scenario({
            "model": "tiny-test",
            "trace": {"granularity": 4, "seed": 7},
            "tenants": [{"rate": 100.0, "num_requests": 4}],
            "planner": {"budget": 3, "backends": ["hermes"],
                        "gpus": ["RTX 4090"], "counts": [1, 2],
                        "optimism": 2.0, "max_cost_usd": 9000},
        })
        assert scenario.planner.budget == 3
        assert scenario.planner.backends == ("hermes",)
        assert scenario.planner.max_cost_usd == 9000

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys.*budgett"):
            parse_scenario({
                "model": "tiny-test",
                "tenants": [{"rate": 100.0, "num_requests": 4}],
                "planner": {"budgett": 3},
            })

    @pytest.mark.parametrize("field, value", [
        ("budget", 0),
        ("target_attainment", 0.0),
        ("target_attainment", 1.5),
        ("optimism", 0.5),
        ("nominal_batches", (0,)),
        ("counts", (0,)),
        ("max_cost_usd", -1.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            PlannerSpec(**{field: value})

    def test_unknown_registry_names_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            PlannerSpec(backends=("vllm",))
        with pytest.raises(ValueError, match="unknown GPU"):
            PlannerSpec(gpus=("H100",))
        with pytest.raises(KeyError):
            PlannerSpec(models=("GPT-5",))


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
class TestEnumeration:
    def test_defaults_cover_registries(self):
        scenario = tiny_scenario()
        spec = PlannerSpec(budget=2)
        candidates = enumerate_candidates(scenario, spec)
        assert {c.backend for c in candidates} == set(BACKENDS)
        assert {c.gpu for c in candidates} == set(GPU_REGISTRY)
        assert {c.model for c in candidates} == {scenario.model}
        assert {c.count for c in candidates} == {1, 2}

    def test_order_is_deterministic(self):
        scenario = tiny_scenario()
        spec = PlannerSpec(budget=3)
        assert enumerate_candidates(scenario, spec) == \
            enumerate_candidates(scenario, spec)

    def test_counts_above_budget_dropped(self):
        scenario = tiny_scenario()
        spec = PlannerSpec(budget=2, counts=(1, 2, 4, 8))
        candidates = enumerate_candidates(scenario, spec)
        assert {c.count for c in candidates} == {1, 2}

    def test_restricted_space(self):
        scenario = tiny_scenario()
        spec = PlannerSpec(budget=1, backends=("hermes",),
                           gpus=("RTX 4090",), nominal_batches=(4,))
        candidates = enumerate_candidates(scenario, spec)
        assert candidates == [FleetCandidate(
            backend="hermes", gpu="rtx 4090", model=scenario.model,
            count=1, nominal_batch=4)]


# ----------------------------------------------------------------------
# feasibility kernels vs the real engine
# ----------------------------------------------------------------------
class TestMemoryKernels:
    def test_kernel_matches_hermes_construction(self):
        """The analytic check and HermesSystem agree on every
        (GPU, model) pair in the registries — the planner never prunes
        a fleet the engine would build, nor keeps one it rejects."""
        for gpu_key in sorted(GPU_REGISTRY):
            machine = Machine().with_gpu(get_gpu(gpu_key))
            for model_name in list_models():
                model = get_model(model_name)
                feasible, reason = hermes_memory_feasible(machine, model)
                try:
                    HermesSystem(machine, model)
                    built = True
                except ValueError:
                    built = False
                assert feasible == built, (
                    f"{gpu_key} x {model_name}: kernel says "
                    f"{feasible} ({reason}), engine says {built}")

    def test_infeasible_reports_reason(self):
        machine = Machine().with_gpu(get_gpu("tesla t4")).with_dimms(1)
        feasible, reason = hermes_memory_feasible(
            machine, get_model("LLaMA2-70B"))
        assert not feasible
        assert "DIMM" in reason or "dense weights" in reason

    def test_gpu_hot_budget_sign(self):
        machine = Machine()
        model = get_model("tiny-test")
        budget = hermes_gpu_hot_budget(machine, model)
        assert budget > 0
        # dense projections and embeddings pin GPU memory first, and the
        # workspace reserve comes straight off the hot budget
        static = (model.dense_bytes_per_layer * model.num_layers
                  + model.embedding_bytes)
        assert budget == (machine.gpu.memory_bytes - static
                          - GPU_RESERVE_BYTES)

    def test_streamed_floor_positive_and_monotone(self):
        machine = Machine()
        model = get_model("OPT-13B")
        resident = weights_resident_fraction(machine, model)
        assert 0.0 <= resident < 1.0
        lo = streamed_token_transfer_floor(machine, model, resident)
        hi = streamed_token_transfer_floor(machine, model, 0.0)
        assert 0.0 < lo < hi


# ----------------------------------------------------------------------
# analytic prune soundness: never discard a validatable fleet
# ----------------------------------------------------------------------
class TestPruneSoundness:
    @pytest.mark.parametrize("scenario_fn", [
        tiny_scenario,
        lambda: parse_scenario(dict(IMPOSSIBLE)),
    ], ids=["ci-smoke", "impossible-demand"])
    def test_pruned_candidates_fail_validation(self, scenario_fn):
        """Every analytically-pruned candidate really does fail the
        simulator — the prune introduces no false infeasibility."""
        scenario = scenario_fn()
        spec = scenario.planner
        load = offered_load(scenario)
        pruned = [
            a for a in (
                analyze_candidate(c, scenario, load, spec)
                for c in enumerate_candidates(scenario, spec)
            )
            if not a.feasible
        ]
        for analysis in pruned:
            outcome = _validate(
                scenario, analysis.candidate,
                spec.target_attainment, True)
            assert not outcome.passed, (
                f"pruned {analysis.candidate.describe()} but the "
                f"simulator validates it")

    def test_impossible_demand_actually_prunes(self):
        """The companion to the soundness pin: the throughput screen is
        live — on the impossible-demand scenario it discards fleets."""
        scenario = parse_scenario(dict(IMPOSSIBLE))
        load = offered_load(scenario)
        analyses = [
            analyze_candidate(c, scenario, load, scenario.planner)
            for c in enumerate_candidates(scenario, scenario.planner)
        ]
        assert any(not a.throughput_ok for a in analyses)

    def test_memory_prune_only_applies_to_hermes(self):
        scenario = tiny_scenario()
        spec = scenario.planner
        load = offered_load(scenario)
        for backend in ("dense", "dejavu"):
            analysis = analyze_candidate(
                FleetCandidate(backend=backend, gpu="tesla t4",
                               model=scenario.model, count=1,
                               nominal_batch=4),
                scenario, load, spec)
            assert analysis.memory_ok

    def test_max_cost_prunes(self):
        scenario = tiny_scenario()
        spec = dataclasses.replace(scenario.planner, max_cost_usd=1.0)
        load = offered_load(scenario)
        analysis = analyze_candidate(
            FleetCandidate(backend="hermes", gpu="rtx 4090",
                           model=scenario.model, count=1,
                           nominal_batch=4),
            scenario, load, spec)
        assert not analysis.cost_ok and not analysis.feasible


# ----------------------------------------------------------------------
# offered load
# ----------------------------------------------------------------------
class TestOfferedLoad:
    def test_demand_positive_with_slos(self):
        load = offered_load(tiny_scenario())
        assert load.total_output_tokens > 0
        assert load.demanded_tokens_per_second > 0

    def test_no_complete_slo_pair_means_no_demand(self):
        scenario = parse_scenario({
            "model": "tiny-test",
            "trace": {"granularity": 4, "seed": 7},
            "classes": {"soft": {"priority": 1, "ttft_slo": 0.01}},
            "tenants": [{"class": "soft", "rate": 100.0,
                         "num_requests": 8}],
        })
        load = offered_load(scenario)
        assert load.total_output_tokens > 0
        assert load.demanded_tokens_per_second == 0.0


# ----------------------------------------------------------------------
# frontier
# ----------------------------------------------------------------------
class TestFrontier:
    def test_frontier_non_dominated_and_cheapest_first(self):
        scenario = tiny_scenario()
        spec = dataclasses.replace(scenario.planner, budget=4)
        load = offered_load(scenario)
        feasible = [
            a for a in (
                analyze_candidate(c, scenario, load, spec)
                for c in enumerate_candidates(scenario, spec)
            )
            if a.feasible
        ]
        frontier = pareto_frontier(feasible)
        assert frontier
        costs = [a.cost_usd for a in frontier]
        caps = [a.fleet_tokens_per_second for a in frontier]
        assert costs == sorted(costs)
        assert caps == sorted(caps)  # strictly more capacity per $ step
        assert len(set(caps)) == len(caps)
        # every feasible candidate is dominated by (or on) the frontier
        for analysis in feasible:
            assert any(
                f.cost_usd <= analysis.cost_usd
                and f.fleet_tokens_per_second
                >= analysis.fleet_tokens_per_second
                for f in frontier
            )


# ----------------------------------------------------------------------
# plan() end to end
# ----------------------------------------------------------------------
class TestPlan:
    def test_acceptance_run(self):
        """The ISSUE's acceptance invocation: a deterministic cheapest
        SLO-meeting fleet within budget 8 on the tiny scenario."""
        result = plan(TINY, budget=8, quick=True)
        assert result.best is not None
        assert result.best.passed
        assert 1 <= result.best.candidate.count <= 8
        assert result.best.cost_usd == min(
            o.cost_usd for o in result.validations if o.passed)
        # frontier-only validation: no dominated candidate simulated
        assert len(result.validations) == len(result.frontier)

    def test_deterministic_across_jobs(self):
        serial = plan(TINY, budget=4, quick=True, jobs=1)
        parallel = plan(TINY, budget=4, quick=True, jobs=2)
        assert serial.best == parallel.best
        assert serial.validations == parallel.validations
        assert serial.frontier == parallel.frontier

    def test_scenario_object_input(self):
        result = plan(tiny_scenario(), budget=2, quick=True)
        assert result.best is not None
        assert result.budget == 2

    def test_budget_bounds_counts(self):
        result = plan(TINY, budget=1, quick=True)
        assert all(a.candidate.count == 1 for a in result.analyses)

    def test_unmeetable_target_returns_none(self):
        scenario = tiny_scenario()
        strict = dataclasses.replace(
            scenario,
            planner=dataclasses.replace(
                scenario.planner, budget=1, counts=(1,),
                backends=("dense",), gpus=("tesla t4",),
                max_cost_usd=2000.0,
                target_attainment=1.0),
            slo=dataclasses.replace(
                scenario.slo,
                classes=tuple(
                    dataclasses.replace(c, ttft_slo=1e-9, tbt_slo=1e-9)
                    if c.ttft_slo is not None else c
                    for c in scenario.slo.classes
                ),
            ),
        )
        result = plan(strict, quick=True)
        assert result.best is None
        assert all(not o.passed for o in result.validations)

    def test_to_json_is_strict(self):
        result = plan(TINY, budget=2, quick=True)
        def reject(value):
            raise AssertionError(f"non-strict constant {value}")
        payload = json.loads(
            json.dumps(result.to_json()), parse_constant=reject)
        assert payload["best"] is not None
        assert payload["num_candidates"] == result.num_candidates

    def test_to_text_names_winner(self):
        result = plan(TINY, budget=2, quick=True)
        text = result.to_text()
        assert "cheapest SLO-meeting fleet" in text
        assert result.best.candidate.describe() in text


# ----------------------------------------------------------------------
# cost-normalized attainment on the report
# ----------------------------------------------------------------------
class TestMachineSecondsPerGoodToken:
    def test_reciprocal_of_goodput(self):
        report = tiny_scenario().run()
        assert report.goodput > 0
        assert report.machine_seconds_per_good_token == \
            pytest.approx(1.0 / report.goodput)

    def test_nan_without_good_tokens(self):
        scenario = tiny_scenario()
        hopeless = dataclasses.replace(
            scenario,
            slo=dataclasses.replace(
                scenario.slo,
                classes=tuple(
                    dataclasses.replace(c, ttft_slo=1e-12, tbt_slo=1e-12)
                    for c in scenario.slo.classes
                ),
            ),
        )
        report = hopeless.run()
        assert math.isnan(report.machine_seconds_per_good_token)


# ----------------------------------------------------------------------
# the plan CLI
# ----------------------------------------------------------------------
class TestPlanCLI:
    def run_cli(self, capsys, *argv):
        from repro.experiments.__main__ import main

        try:
            code = main(["plan", *argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_found_fleet_exits_zero_with_json(self, capsys):
        code, out, err = self.run_cli(
            capsys, "--scenario", str(TINY), "--budget", "2",
            "--quick", "--json")
        assert code == 0, err
        payload = json.loads(out)  # stdout is exactly one document
        assert payload["best"] is not None
        assert payload["budget"] == 2
        assert "capacity plan" in err  # the table moved to stderr

    def test_table_on_stdout_without_json(self, capsys):
        code, out, err = self.run_cli(
            capsys, "--scenario", str(TINY), "--budget", "1", "--quick")
        assert code == 0
        assert "capacity plan" in out

    def test_usage_errors_exit_two(self, capsys):
        assert self.run_cli(capsys)[0] == 2  # --scenario required
        assert self.run_cli(
            capsys, "--scenario", "no-such-file.json")[0] == 2
        assert self.run_cli(
            capsys, "--scenario", str(TINY), "--budget", "0")[0] == 2
