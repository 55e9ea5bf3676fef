"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import PeriodicProcess, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_run_in_scheduling_order(self, sim):
        log = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, log.append, tag)
        sim.run()
        assert log == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]

    def test_run_until_stops_before_later_events(self, sim):
        log = []
        sim.schedule(1.0, log.append, "early")
        sim.schedule(5.0, log.append, "late")
        sim.run(until=2.0)
        assert log == ["early"]
        assert sim.now == 2.0

    def test_run_until_advances_clock_even_with_empty_queue(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_remaining_events_run_on_second_call(self, sim):
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.schedule(5.0, log.append, "b")
        sim.run(until=2.0)
        sim.run(until=6.0)
        assert log == ["a", "b"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_in_the_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_time_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule_at(math.nan, lambda: None)

    def test_nan_horizon_rejected(self, sim):
        # No event time compares past NaN, so a run until NaN would only
        # stop at the event budget.
        ticks = []
        PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        with pytest.raises(ValueError, match="NaN"):
            sim.run(until=math.nan, max_events=1000)
        assert ticks == [] and sim.now == 0.0
        sim.run(until=2.5)  # the simulator is still usable
        assert ticks and sim.now == 2.5

    def test_events_scheduled_during_run_execute(self, sim):
        log = []

        def chain():
            log.append(sim.now)
            if sim.now < 3.0:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert log == [1.0, 2.0, 3.0]

    def test_event_budget_guards_against_storms(self, sim):
        def storm():
            sim.schedule(0.0, storm)

        sim.schedule(0.0, storm)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(RuntimeError):
            sim.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        log = []
        handle = sim.schedule(1.0, log.append, "x")
        handle.cancel()
        sim.run()
        assert log == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_lifecycle(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending
        sim.run()
        assert not handle.pending
        assert handle.fired

    def test_cancelled_handle_not_pending(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        assert not handle.pending
        assert not handle.fired

    def test_pending_events_counts_only_live_events(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_events() == 1
        del keep


class TestRandomStreams:
    def test_streams_are_independent(self):
        sim = Simulator(seed=7)
        a_then_b = [sim.rng("a").random(), sim.rng("b").random()]
        sim2 = Simulator(seed=7)
        b_then_a = [sim2.rng("b").random(), sim2.rng("a").random()]
        assert a_then_b[0] == b_then_a[1]
        assert a_then_b[1] == b_then_a[0]

    def test_same_seed_same_sequence(self):
        first = Simulator(seed=42).rng("x")
        second = Simulator(seed=42).rng("x")
        assert [first.random() for _ in range(5)] == [
            second.random() for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        a = Simulator(seed=1).rng("x").random()
        b = Simulator(seed=2).rng("x").random()
        assert a != b

    def test_stream_is_cached(self, sim):
        assert sim.rng("same") is sim.rng("same")


class TestPeriodicProcess:
    def test_fires_at_period(self, sim):
        ticks = []
        PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_phase_controls_first_firing(self, sim):
        ticks = []
        PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now), phase=0.25)
        sim.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop_halts_future_ticks(self, sim):
        ticks = []
        process = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, process.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert not process.running

    def test_stop_from_within_callback(self, sim):
        ticks = []
        holder = {}

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                holder["p"].stop()

        holder["p"] = PeriodicProcess(sim, 1.0, tick)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_zero_period_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicProcess(sim, 0.0, lambda: None)

    @pytest.mark.parametrize("period", [math.nan, math.inf])
    def test_non_finite_period_rejected(self, sim, period):
        """A NaN period would fail only at the first reschedule, and an
        infinite one parks the next tick at ``t = inf``, where an unbounded
        ``run()`` never ends: both are refused at construction."""
        ticks = []
        with pytest.raises(ValueError, match="finite"):
            PeriodicProcess(sim, period, lambda: ticks.append(sim.now), phase=0.5)
        assert sim.pending_events() == 0
        assert ticks == []


class TestDeterminismProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_execution_order_is_sorted_and_stable(self, delays):
        sim = Simulator(seed=0)
        fired = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, lambda i=index, d=delay: fired.append((d, i)))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestTupleHeapProperties:
    """Properties the tuple-heap rewrite must preserve."""

    @settings(max_examples=30, deadline=None)
    @given(
        times=st.lists(
            st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=40
        )
    )
    def test_fifo_among_simultaneous_events(self, times):
        """Events at equal times fire in scheduling order (stable ties)."""
        sim = Simulator(seed=0)
        fired = []
        for index, time in enumerate(times):
            sim.schedule(time, lambda t=time, i=index: fired.append((t, i)))
        sim.run()
        expected = sorted(
            ((t, i) for i, t in enumerate(times)), key=lambda pair: pair
        )
        assert fired == expected

    @settings(max_examples=30, deadline=None)
    @given(
        plan=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_pending_count_matches_naive_scan(self, plan):
        """The O(1) live counter agrees with a full queue scan."""
        sim = Simulator(seed=0)
        handles = []
        for delay, cancel in plan:
            handle = sim.schedule(delay, lambda: None)
            handles.append(handle)
            if cancel:
                handle.cancel()
        live = sum(1 for h in handles if h.pending)
        assert sim.pending_events() == live
        sim.run(until=25.0)
        still_live = sum(1 for h in handles if h.pending)
        assert sim.pending_events() == still_live

    def test_compaction_drops_cancelled_entries_and_preserves_order(self):
        sim = Simulator(seed=0)
        fired = []
        keepers = [
            sim.schedule(10.0 + i, lambda i=i: fired.append(i)) for i in range(10)
        ]
        cancelled = [sim.schedule(5.0, lambda: fired.append("bad"))
                     for _ in range(200)]
        for handle in cancelled:
            handle.cancel()
        # Most of the heap was dead weight, so compaction must have run and
        # physically removed cancelled entries; below the 64-entry floor the
        # remainder is left for run() to skip.
        assert sim.compactions >= 1
        assert len(sim._queue) < 64
        assert sim.pending_events() == len(keepers)
        sim.run()
        assert fired == list(range(10))
        del keepers

    def test_cancel_is_idempotent_and_counted_once(self):
        sim = Simulator(seed=0)
        handle = sim.schedule(1.0, lambda: None)
        other = sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        handle.cancel()
        assert sim.pending_events() == 1
        sim.run()
        assert other.fired

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator(seed=0)
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending_events() == 0
        handle.cancel()
        assert sim.pending_events() == 0

    def test_cancel_inside_callback_respected(self):
        """A callback cancelling a same-time event prevents its firing."""
        sim = Simulator(seed=0)
        fired = []
        victim = sim.schedule(1.0, lambda: fired.append("victim"))

        def killer():
            fired.append("killer")
            victim.cancel()

        # killer scheduled after victim at the same time: victim fires first.
        sim.schedule(1.0, killer)
        later = sim.schedule(2.0, lambda: fired.append("late"))
        early_killer = sim.schedule(1.5, lambda: later.cancel())
        sim.run()
        assert fired == ["victim", "killer"]
        assert early_killer.fired and not later.fired

    def test_compaction_during_run_keeps_schedule_intact(self):
        """Mass cancellation from inside a callback (compaction mid-run)."""
        sim = Simulator(seed=0)
        fired = []
        doomed = [sim.schedule(50.0, lambda: fired.append("doomed"))
                  for _ in range(300)]
        survivors = [
            sim.schedule(10.0 + i, lambda i=i: fired.append(i)) for i in range(5)
        ]

        def purge():
            for handle in doomed:
                handle.cancel()

        sim.schedule(1.0, purge)
        sim.run()
        assert fired == list(range(5))
        assert sim.compactions >= 1
        assert all(h.fired for h in survivors)
