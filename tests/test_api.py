"""Tests for the stable public facade (`repro.api`) and CLI conventions."""

from __future__ import annotations

import ast
import json
import pathlib

import repro
from repro import api
from repro.experiments.cluster_eval import resolve_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
TINY = resolve_scenario("mixed_slo_tiny.json")


class TestFacade:
    def test_reexported_from_package(self):
        assert repro.api is api
        assert "api" in repro.__all__

    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_list_backends(self):
        backends = api.list_backends()
        assert backends == sorted(backends)
        assert {"hermes", "dense", "dejavu"} <= set(backends)

    def test_list_models(self):
        assert "tiny-test" in api.list_models()

    def test_simulate_round_trip(self):
        """load -> simulate -> typed report, path and object alike."""
        from_path = api.simulate(TINY)
        assert isinstance(from_path, api.ClusterReport)
        scenario = api.load_scenario(TINY)
        from_object = api.simulate(scenario)
        # same seeded scenario, same simulated outcome
        assert from_object.tokens_per_second == \
            from_path.tokens_per_second
        assert from_object.makespan == from_path.makespan

    def test_plan_round_trip(self):
        result = api.plan(TINY, budget=2, quick=True)
        assert isinstance(result, api.PlanResult)
        assert result.best is not None
        assert isinstance(result.best.candidate, api.FleetCandidate)

    def test_offline_quickstart_surface(self):
        """The README quickstart, spelled entirely through the facade."""
        model = api.get_model("tiny-test")
        machine = api.Machine()
        trace = api.generate_trace(
            model,
            api.TraceConfig(prompt_len=8, decode_len=8, granularity=4),
            seed=7,
        )
        result = api.HermesSystem(machine, model).run(trace, batch=1)
        assert result.tokens_per_second > 0


class TestExamplesUseOnlyTheFacade:
    def test_examples_import_only_repro_api(self):
        """Every bundled example imports repro exclusively via
        ``repro.api`` — the facade is the supported surface, and the
        examples are its living documentation."""
        offenders = []
        for path in sorted((ROOT / "examples").glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] == "repro":
                            offenders.append(f"{path.name}: import "
                                             f"{alias.name}")
                elif isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    if module.split(".")[0] == "repro" \
                            and module != "repro.api":
                        offenders.append(
                            f"{path.name}: from {module} import ...")
        assert not offenders, offenders


class TestCLIConventions:
    def run_cli(self, capsys, *argv):
        from repro.experiments.__main__ import main

        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_json_moves_tables_to_stderr(self, capsys):
        code, out, err = self.run_cli(
            capsys, "cluster", "--quick", "--scenario", str(TINY),
            "--json")
        assert code == 0
        reports = json.loads(out)  # stdout is exactly one document
        assert isinstance(reports, list) and len(reports) == 1
        report = reports[0]
        assert {"name", "description", "headers", "rows",
                "notes"} <= set(report)
        assert report["rows"], "empty report rows"
        assert len(report["headers"]) == len(report["rows"][0])
        assert "==" in err  # the text table went to stderr

    def test_without_json_tables_on_stdout(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "cluster", "--quick", "--scenario", str(TINY))
        assert code == 0
        assert "==" in out

    def test_unknown_experiment_exits_two(self, capsys):
        code, _, err = self.run_cli(capsys, "no_such_experiment")
        assert code == 2
        assert "unknown experiments" in err
        # a near miss names the closest registry id
        code, _, err = self.run_cli(capsys, "serving_eval")
        assert code == 2
        assert "did you mean 'serving'?" in err

    def test_no_experiment_exits_two(self, capsys):
        assert self.run_cli(capsys)[0] == 2

    def test_list_mentions_subcommands(self, capsys):
        code, out, _ = self.run_cli(capsys, "--list")
        assert code == 0
        assert "plan" in out and "watch" in out

    def test_experiment_result_to_json_strict(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(
            name="t", description="d", headers=["a", "b"],
            rows=[[1, float("nan")], ["x", None]], notes=["n"])
        payload = json.loads(json.dumps(result.to_json()))
        assert payload["rows"] == [[1, None], ["x", None]]
