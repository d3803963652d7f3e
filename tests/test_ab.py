"""The A/B tool's parsing and statistics, on canned benchmark records
(no live run)."""

import json

import pytest
from tools.ab import (
    check_pair,
    compare_metric,
    counter_diffs,
    parse_record,
    quartiles,
    report,
)

SPEC = {"end_to_end": [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sim_goodput_tok_s", "unit": "tok/s", "better": "higher",
     "bound": 0.2},
]}


def record(run_s, goodput=100.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {
                "run_s": {"value": run_s, "unit": "s"},
                "sim_goodput_tok_s": {"value": goodput, "unit": "tok/s"}}}


def traced(events, overhead):
    return {"correct": True, "attempted": 20, "failed": 0, "metrics": {
        "sim.events_per_req": {"value": events, "unit": "count/req"},
        "core.self_share": {"value": 0.9 + overhead, "unit": "fraction"},
        "trace.overhead_frac": {"value": overhead, "unit": "fraction"}}}


def test_parse_record_reads_the_last_line():
    out = ("run_s  1.0 s\ncalibration: ...\n"
           + json.dumps(record(1.5)) + "\n\n")
    assert parse_record(out)["metrics"]["run_s"]["value"] == 1.5
    with pytest.raises(ValueError):
        parse_record("\n")
    with pytest.raises(ValueError):
        parse_record(json.dumps({"correct": True, "metrics": {}}))


def test_quartiles_interpolate_linearly():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_compare_metric_counts_better_pairs_in_the_metric_direction():
    parent = [10.0, 11.0, 12.0, 10.5, 11.5]
    change = [8.0, 8.5, 12.5, 8.2, 8.1]
    s = compare_metric(parent, change, "lower")
    assert s["parent"] == (11.0, 10.5, 11.5)
    assert s["change"] == (8.2, 8.1, 8.5)
    assert s["rel"] == pytest.approx(8.2 / 11.0 - 1.0)
    assert (s["better_pairs"], s["pairs"]) == (4, 5)
    assert s["outside_parent_iqr"]
    higher = compare_metric(parent, change, "higher")
    assert higher["better_pairs"] == 1
    same = compare_metric(parent, list(parent), "lower")
    assert same["better_pairs"] == 0 and not same["outside_parent_iqr"]
    with pytest.raises(ValueError):
        compare_metric([1.0], [1.0, 2.0], "lower")


def test_check_pair_flags_sim_correct_and_failed_mismatches():
    assert check_pair(record(1.0), record(0.5)) == []
    assert check_pair(record(1.0, goodput=100.0),
                      record(1.0, goodput=100.5)) == [
        "sim_goodput_tok_s 100.0 -> 100.5"]
    problems = check_pair(record(1.0, failed=3),
                          record(1.0, correct=False, failed=0))
    assert problems == ["change run failed its output checks",
                        "failed operations 3 -> 0"]


def test_counter_diffs_compare_only_counters():
    same = counter_diffs([traced(4.0, 0.02)], [traced(4.0, -0.03)])
    assert same == []
    diffs = counter_diffs([traced(4.0, 0.0)], [traced(4.5, 0.0)])
    assert diffs == ["sim.events_per_req: parent [4.0] change [4.5]"]


def test_report_summarises_and_fails_on_a_sim_mismatch():
    runs = {"w": {
        "pairs": [(record(10.0), record(8.0)),
                  (record(11.0), record(7.5)),
                  (record(12.0), record(8.5))],
        "held_out": (record(9.0), record(7.0)),
        "traced": ([traced(4.0, 0.01), traced(4.0, 0.05),
                    traced(4.0, -0.02)],
                   [traced(4.0, 0.02), traced(4.0, 0.03),
                    traced(4.0, 0.04)]),
    }}
    lines, ok = report("a" * 40, "b" * 40, runs, SPEC, 3, 20.0)
    text = "\n".join(lines)
    assert ok
    assert "ab: parent " + "a" * 40 in text
    assert "ab: change " + "b" * 40 in text
    assert ("run_s 11 [10.5, 11.5] -> 8 [7.75, 8.25] s (-27.3%), "
            "better in 3 of 3, outside the parent's IQR") in text
    assert "pairs (parent/change): 10/8 11/7.5 12/8.5" in text
    assert "seed 7919: run_s 9 -> 7" in text
    assert "all 4 pairs" in text
    assert "counters identical: sim.events_per_req 4" in text
    assert "trace.overhead_frac median +0.010 -> +0.030" in text
    runs["w"]["held_out"] = (record(9.0), record(7.0, goodput=99.0))
    lines, ok = report("a", "b", runs, SPEC, 3, 20.0)
    assert not ok
    assert any("MISMATCH pair 4: sim_goodput_tok_s" in line
               for line in lines)
