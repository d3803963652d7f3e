"""Unit + property tests for the discrete-event engine and pipelines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Acquire,
    Release,
    Resource,
    Simulator,
    Timeout,
    overlap_two_stage,
    pipeline_makespan,
)


class TestEngine:
    def test_single_timeout(self):
        sim = Simulator()

        def proc():
            yield Timeout(2.5)

        sim.process(proc())
        assert sim.run() == 2.5

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            yield Timeout(2.0)

        sim.process(proc())
        assert sim.run() == 3.0

    def test_parallel_processes_overlap(self):
        sim = Simulator()

        def proc(d):
            yield Timeout(d)

        sim.process(proc(3.0))
        sim.process(proc(1.0))
        assert sim.run() == 3.0

    def test_start_delay(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)

        sim.process(proc(), delay=2.0)
        assert sim.run() == 3.0

    def test_resource_serialises(self):
        sim = Simulator()
        r = Resource("dev")
        ends = []

        def proc():
            yield Acquire(r)
            yield Timeout(1.0)
            yield Release(r)
            ends.append(sim.now)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert ends == [1.0, 2.0]

    def test_join_waits_for_completion(self):
        sim = Simulator()
        order = []

        def worker():
            yield Timeout(5.0)
            order.append(("worker", sim.now))

        def waiter(w):
            yield w
            order.append(("waiter", sim.now))

        w = sim.process(worker())
        sim.process(waiter(w))
        sim.run()
        assert order == [("worker", 5.0), ("waiter", 5.0)]

    def test_join_finished_process_is_immediate(self):
        sim = Simulator()

        def worker():
            yield Timeout(1.0)

        w = sim.process(worker())
        sim.run()

        def waiter():
            yield w
            yield Timeout(1.0)

        sim.process(waiter())
        assert sim.run() == 2.0

    def test_release_without_hold_raises(self):
        sim = Simulator()
        r = Resource("dev")

        def proc():
            yield Release(r)

        sim.process(proc())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_bad_yield_type_raises(self):
        sim = Simulator()

        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(TypeError):
            sim.run()

    def test_run_until_stops_early(self):
        sim = Simulator()

        def proc():
            yield Timeout(10.0)

        sim.process(proc())
        assert sim.run(until=3.0) == 3.0

    def test_run_until_is_resumable(self):
        """Bounded runs are checkpoints, not terminations.

        Events timestamped exactly at ``until`` fire within the bounded
        run; the first event past it is pushed back unconsumed and fires
        on the next ``run`` with its original scheduling order
        preserved, so a calendar can be driven window by window.
        """
        sim = Simulator()
        fired = []

        def proc(name, delay):
            yield Timeout(delay)
            fired.append(name)

        # same instant (t=5.0) for b and c: registration order must
        # survive the push-back across the window boundary at t=2.0
        sim.process(proc("a", 2.0))
        sim.process(proc("b", 5.0))
        sim.process(proc("c", 5.0))
        assert sim.run(until=2.0) == 2.0
        assert fired == ["a"]
        assert sim.run(until=5.0) == 5.0
        assert fired == ["a", "b", "c"]

    def test_run_until_past_last_event(self):
        """A window past the last event drains the calendar and stops
        at the final event's time, not at the window's end."""
        sim = Simulator()

        def proc():
            yield Timeout(1.0)

        sim.process(proc())
        assert sim.run(until=4.0) == 1.0
        assert sim.run(until=9.0) == 1.0  # empty calendar: no-op

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_fifo_waiters(self):
        sim = Simulator()
        r = Resource("dev")
        order = []

        def proc(name):
            yield Acquire(r)
            order.append(name)
            yield Timeout(1.0)
            yield Release(r)

        for name in "abc":
            sim.process(proc(name))
        sim.run()
        assert order == ["a", "b", "c"]


class TestPipeline:
    def test_empty(self):
        assert pipeline_makespan([]) == 0.0

    def test_single_item(self):
        assert pipeline_makespan([[1.0, 2.0, 3.0]]) == 6.0

    def test_classic_two_stage(self):
        # transfer 1s each, compute 2s each: last compute ends at 1+3*2
        assert pipeline_makespan([[1, 2]] * 3) == 7.0

    def test_bottleneck_stage_dominates(self):
        n = 5
        span = pipeline_makespan([[1, 10]] * n)
        assert span == pytest.approx(1 + n * 10)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            pipeline_makespan([[1, 2], [1]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pipeline_makespan([[1, -2]])
        with pytest.raises(ValueError):
            overlap_two_stage([1], [-1])

    def test_closed_form_matches_des(self):
        transfer = [0.5, 2.0, 0.1, 1.0]
        compute = [1.0, 0.2, 3.0, 0.5]
        des = pipeline_makespan(list(map(list, zip(transfer, compute))))
        assert overlap_two_stage(transfer, compute) == pytest.approx(des)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            overlap_two_stage([1, 2], [1])

    @given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_property_closed_form_equals_des(self, pairs):
        """The prefetch recurrence and the event engine agree exactly."""
        transfer = [t for t, _ in pairs]
        compute = [c for _, c in pairs]
        des = pipeline_makespan([[t, c] for t, c in pairs])
        assert overlap_two_stage(transfer, compute) == pytest.approx(
            des, abs=1e-9
        )

    @given(st.lists(st.tuples(st.floats(0, 5), st.floats(0, 5)),
                    min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_property_overlap_bounds(self, pairs):
        """Makespan is bounded by serial sum and below by each stage."""
        transfer = [t for t, _ in pairs]
        compute = [c for _, c in pairs]
        span = overlap_two_stage(transfer, compute)
        assert span <= sum(transfer) + sum(compute) + 1e-9
        assert span >= max(sum(transfer), sum(compute)) - 1e-9
