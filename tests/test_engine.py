"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.telemetry import Telemetry
from repro.sim.engine import PeriodicProcess, Simulator


def make_sim(profiled: bool, seed: int = 1234) -> Simulator:
    return Simulator(seed=seed, telemetry=Telemetry(enabled=True) if profiled else None)


@pytest.fixture
def sim(request):
    """The simulator under test: plain, or with telemetry on in the
    ``*Profiled`` twins at the end of this module, whose every event then
    goes through the wrapped scheduling methods."""
    return make_sim(getattr(request.instance, "profiled", False))


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

    def test_reserved_place_keeps_its_tie_order(self, sim):
        log = []
        place = sim.reserve(1.0)
        sim.schedule(1.0, log.append, "scheduled after the reservation")
        sim.schedule_reserved(place, log.append, "filled later, reserved first")
        sim.run()
        assert log == ["filled later, reserved first", "scheduled after the reservation"]

    def test_unfilled_place_costs_nothing(self, sim):
        sim.reserve(1.0)
        assert sim.pending_events() == 0
        sim.run()
        assert sim.events_processed == 0

    def test_reserved_place_in_the_past_rejected(self, sim):
        place = sim.reserve(1.0)
        sim.run(until=2.0)
        with pytest.raises(ValueError):
            sim.schedule_reserved(place, lambda: None)

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
        ),
        profiled=st.booleans(),
    )
    def test_execution_order_is_sorted_and_stable(self, delays, profiled):
        sim = make_sim(profiled, seed=0)
        fired = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, lambda i=index, d=delay: fired.append((d, i)))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class HeapBookkeeping:
    """Cancellation and compaction cases of the tuple heap, collected
    plain through :class:`TestTupleHeapProperties` and with telemetry on
    through :class:`TestHeapBookkeepingProfiled`."""

    def test_compaction_drops_cancelled_entries_and_preserves_order(self, sim):
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

    def test_cancel_is_idempotent_and_counted_once(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        other = sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        handle.cancel()
        assert sim.pending_events() == 1
        sim.run()
        assert other.fired

    def test_cancel_after_fire_is_noop(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending_events() == 0
        handle.cancel()
        assert sim.pending_events() == 0

    def test_cancel_inside_callback_respected(self, sim):
        """A callback cancelling a same-time event prevents its firing."""
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

    def test_compaction_during_run_keeps_schedule_intact(self, sim):
        """Mass cancellation from inside a callback (compaction mid-run)."""
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


class TestTupleHeapProperties(HeapBookkeeping):
    """Properties the tuple-heap rewrite must preserve."""

    @settings(max_examples=30, deadline=None)
    @given(
        times=st.lists(
            st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=40
        ),
        profiled=st.booleans(),
    )
    def test_fifo_among_simultaneous_events(self, times, profiled):
        """Events at equal times fire in scheduling order (stable ties)."""
        sim = make_sim(profiled, seed=0)
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
        ),
        profiled=st.booleans(),
    )
    def test_pending_count_matches_naive_scan(self, plan, profiled):
        """The O(1) live counter agrees with a full queue scan."""
        sim = make_sim(profiled, seed=0)
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


class _Fan:
    """Callbacks with short qualified names, for the dispatch-count keys."""

    def __init__(self, sim):
        self.sim = sim
        self.leaves = []

    def fan_out(self):
        for t in (2.0, 3.0, 4.0):
            self.sim.schedule_fire(t, self.leaf, t)

    def leaf(self, t):
        self.leaves.append(t)


class TestProfile:
    """What an enabled registry records, on a hand-built schedule."""

    def test_heap_depth_and_dispatch_counts(self):
        tele = Telemetry(enabled=True)
        sim = Simulator(seed=0, telemetry=tele)
        fan = _Fan(sim)
        sim.schedule_at(1.0, fan.fan_out)
        sim.schedule_at(10.0, fan.leaf, 10.0)
        sim.schedule_at(5.0, fan.leaf, 5.0).cancel()  # stays in the heap
        # Entry: 3 entries.  Popping fan_out leaves 2; it pushes 3 leaves
        # (5 at the last push); popping the first leaf leaves 4, the most
        # after any pop.  A mark taken at push would read 5.
        sim.run()
        assert tele.snapshot().gauge_value("engine.heap_depth")[1] == 4
        # Six events at entry: after the first pop 5 are left, so only
        # the entry length reaches 6.
        for t in range(11, 17):
            sim.schedule_at(float(t), fan.leaf, float(t))
        sim.run(until=20.0)
        snap = tele.snapshot()
        assert snap.gauge_value("engine.heap_depth")[1] == 6
        assert fan.leaves == [2.0, 3.0, 4.0, 10.0] + [float(t) for t in range(11, 17)]
        dispatch = {
            name: value
            for name, value in snap.counters
            if name.startswith("engine.dispatch.")
        }
        assert dispatch == {
            "engine.dispatch._Fan.fan_out": 1,
            "engine.dispatch._Fan.leaf": 10,
        }
        assert snap.counter_value("engine.events") == sim.events_processed == 11

    def test_only_an_enabled_registry_rebinds_scheduling(self):
        rebound = {"schedule_at", "schedule_fire", "schedule_reserved"}
        for telemetry in (None, Telemetry(enabled=False)):
            assert not rebound & set(vars(Simulator(seed=0, telemetry=telemetry)))
        profiled = Simulator(seed=0, telemetry=Telemetry(enabled=True))
        assert rebound <= set(vars(profiled))

    def test_reserved_events_are_dispatch_counted(self):
        tele = Telemetry(enabled=True)
        sim = Simulator(seed=0, telemetry=tele)
        fan = _Fan(sim)
        sim.reserve(0.5)  # never filled
        sim.schedule_reserved(sim.reserve(1.0), fan.leaf, 1.0)
        sim.run()
        snap = tele.snapshot()
        assert fan.leaves == [1.0]
        assert snap.counter_value("engine.dispatch._Fan.leaf") == 1
        assert snap.counter_value("engine.events") == sim.events_processed == 1


# The same cases with telemetry on: ordering, cancellation, compaction
# during a run, the event budget, re-entrancy and periodic processes
# through the wrapped scheduling path.  (The hypothesis properties draw
# the path instead: a hypothesis test cannot be inherited by a twin.)
class TestSchedulingProfiled(TestScheduling):
    profiled = True


class TestCancellationProfiled(TestCancellation):
    profiled = True


class TestPeriodicProcessProfiled(TestPeriodicProcess):
    profiled = True


class TestHeapBookkeepingProfiled(HeapBookkeeping):
    profiled = True
