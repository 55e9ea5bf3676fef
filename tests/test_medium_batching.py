"""Unit tests for the global-FIFO medium's per-frame delivery events.

Each transmitted frame is delivered by its own engine event at its
completion time plus propagation.  A frame queued behind another on its
channel waits in that channel's lane, and its event is scheduled when the
frame ahead of it is delivered.  These tests pin what that means:
delivery order, per-frame arrival clocks, the ``run(until=...)`` bound, a
channel that goes idle and busy again, per-channel independence, one heap
entry per busy channel, and the scheduling order among events due at the
same instant.  A beacon nobody can hear still books its airtime, but its
event is only scheduled if a frame queues behind it.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.radio import PROPAGATION_DELAY_S, Medium


class RecordingStation:
    """Station that records what arrives and when."""

    def __init__(self, station_id, x=0.0, y=0.0, channel=1):
        self.station_id = station_id
        self.x, self.y = x, y
        self.channel = channel
        self.sim = None
        self.received = []

    def position(self):
        return (self.x, self.y)

    def tuned_channel(self):
        return self.channel

    def accepts(self, dst):
        return dst == self.station_id

    def on_frame(self, frame, rssi):
        self.received.append((frame.src, frame.kind, frame.size, rssi, self.sim.now))


def mgmt_frame(src, dst, channel=1, size=80):
    return Frame(kind=FrameKind.BEACON, src=src, dst=dst, size=size, channel=channel)


def build(sim):
    medium = Medium(sim, loss_rate=0.0)
    rx = RecordingStation("rx", x=30.0)
    rx.sim = sim
    tx = RecordingStation("tx")
    tx.sim = sim
    medium.register(tx)
    medium.register(rx)
    return medium, tx, rx


class TestBatchedDelivery:
    def test_delivery_in_completion_time_order(self):
        sim = Simulator(seed=1)
        medium, tx, rx = build(sim)
        for i in range(4):
            medium.transmit(tx, mgmt_frame("tx", "rx", size=100))
        sim.run(until=1.0)
        times = [t for *_rest, t in rx.received]
        assert times == sorted(times)
        assert len(set(times)) == 4  # channel serialization separates them

    def test_per_frame_arrival_clock(self):
        """Each frame is delivered at its own completion time plus
        propagation, whatever else is on the air."""
        sim = Simulator(seed=2)
        medium, tx, rx = build(sim)
        done_times = [
            medium.transmit(tx, mgmt_frame("tx", "rx")) for _ in range(3)
        ]
        sim.run(until=1.0)
        arrival_times = [t for *_rest, t in rx.received]
        expected = [d + PROPAGATION_DELAY_S for d in done_times]
        assert arrival_times == pytest.approx(expected, abs=0.0)

    def test_drain_respects_run_bound(self):
        """A frame due beyond ``run(until=...)`` stays in the heap and is
        delivered by the next run."""
        sim = Simulator(seed=3)
        medium, tx, rx = build(sim)
        done = medium.transmit(tx, mgmt_frame("tx", "rx"))
        sim.run(until=done / 2)
        assert rx.received == []
        sim.run(until=done + 1.0)
        assert len(rx.received) == 1

    def test_queue_reschedules_after_going_idle(self):
        sim = Simulator(seed=4)
        medium, tx, rx = build(sim)
        medium.transmit(tx, mgmt_frame("tx", "rx"))
        sim.run(until=1.0)
        assert len(rx.received) == 1
        medium.transmit(tx, mgmt_frame("tx", "rx"))
        sim.run(until=2.0)
        assert len(rx.received) == 2

    def test_channels_are_independent_queues(self):
        sim = Simulator(seed=5)
        medium = Medium(sim, loss_rate=0.0)
        stations = {}
        for chan in (1, 6):
            rx = RecordingStation(f"rx{chan}", x=30.0, channel=chan)
            rx.sim = sim
            tx = RecordingStation(f"tx{chan}", channel=chan)
            tx.sim = sim
            medium.register(tx)
            medium.register(rx)
            stations[chan] = (tx, rx)
        for chan, (tx, rx) in stations.items():
            medium.transmit(tx, mgmt_frame(tx.station_id, rx.station_id, channel=chan))
        sim.run(until=1.0)
        for chan, (_tx, rx) in stations.items():
            assert len(rx.received) == 1

    def test_same_instant_event_scheduled_first_runs_first(self):
        """An event due at exactly a frame's delivery time, scheduled before
        that frame was transmitted, runs before the frame is delivered."""
        sim = Simulator(seed=6)
        medium, tx, rx = build(sim)
        first = mgmt_frame("tx", "rx", size=100)
        second = mgmt_frame("tx", "rx", size=200)
        medium.transmit(tx, first)
        due = (
            (0.0 + medium.airtime(first)) + medium.airtime(second)
        ) + PROPAGATION_DELAY_S
        sizes_seen = []
        sim.schedule_at(
            due, lambda: sizes_seen.append([r[2] for r in rx.received])
        )
        medium.transmit(tx, second)
        sim.run(until=1.0)
        assert sizes_seen == [[100]]
        assert [(r[2], r[4]) for r in rx.received] == [
            (100, medium.airtime(first) + PROPAGATION_DELAY_S),
            (200, due),
        ]

    def test_backlog_holds_one_heap_entry_per_channel(self):
        """A channel's backlog waits in its lane, not in the engine's
        heap: only the frame next to be delivered is an event."""
        sim = Simulator(seed=7)
        medium = Medium(sim, loss_rate=0.0)
        receivers = []
        for chan in (1, 6):
            tx = RecordingStation(f"tx{chan}", channel=chan)
            rx = RecordingStation(f"rx{chan}", x=30.0, channel=chan)
            tx.sim = rx.sim = sim
            medium.register(tx)
            medium.register(rx)
            receivers.append(rx)
            for _ in range(50):
                frame = mgmt_frame(tx.station_id, rx.station_id, channel=chan)
                medium.transmit(tx, frame)
        assert sim.pending_events() == 2
        sim.run(until=1.0)
        assert [len(rx.received) for rx in receivers] == [50, 50]
        assert sim.pending_events() == 0
        assert sim.events_processed == 100

    def test_lane_frame_is_scheduled_when_the_frame_ahead_is_delivered(self):
        """A queued frame's event is scheduled as the frame ahead of it is
        delivered, before that delivery's receivers run: an event due at
        the same instant runs first if it was scheduled earlier than that,
        even after the queued frame was transmitted, and last if a
        receiver of the frame ahead scheduled it."""
        sim = Simulator(seed=8)
        medium, tx, rx = build(sim)
        first = mgmt_frame("tx", "rx", size=100)
        second = mgmt_frame("tx", "rx", size=200)
        medium.transmit(tx, first)
        due = medium.transmit(tx, second) + PROPAGATION_DELAY_S
        order = []
        sim.schedule_at(due, lambda: order.append("scheduled before"))
        on_frame = rx.on_frame

        def on_frame_scheduling(frame, rssi):
            on_frame(frame, rssi)
            order.append(frame.size)
            if frame is first:
                sim.schedule_at(due, lambda: order.append("scheduled by rx"))

        rx.on_frame = on_frame_scheduling
        sim.run(until=1.0)
        assert order == [100, "scheduled before", 200, "scheduled by rx"]


class ApLikeStation(RecordingStation):
    """A static station that, like an access point, ignores beacons."""

    is_static = True
    accepts_only_own_id = True
    ignores_beacons = True


class FarMobile(RecordingStation):
    """A mobile 1 km out with a declared speed bound: ~90 s from range."""

    max_speed_mps = 10.0


def build_unheard(sim):
    """An AP-like beaconer, an AP-like neighbour 30 m away and a far
    mobile: nobody acts on the beaconer's beacons for the next ~90 s.
    The first beacon is delivered, which caches the beaconer's plan."""
    medium = Medium(sim, loss_rate=0.0)
    ap = ApLikeStation("ap")
    neighbour = ApLikeStation("ap2", x=30.0)
    veh = FarMobile("veh", x=1000.0)
    for station in (ap, neighbour, veh):
        station.sim = sim
        medium.register(station)
    beacon = Frame(kind=FrameKind.BEACON, src="ap", dst=BROADCAST, size=80, channel=1)
    medium.transmit(ap, beacon)
    sim.run(until=0.1)
    return medium, ap, neighbour, beacon


def data_frame(src, dst, size=200):
    return Frame(kind=FrameKind.DATA, src=src, dst=dst, size=size, channel=1)


class TestUnheardBeacons:
    def test_books_airtime_and_frames_sent_without_an_event(self):
        sim = Simulator(seed=9)
        medium, ap, neighbour, beacon = build_unheard(sim)
        events, sent = sim.events_processed, medium.frames_sent
        done = medium.transmit(ap, beacon)
        assert medium.frames_sent == sent + 1
        assert sim.pending_events() == 0
        data = data_frame("ap", "ap2")
        assert medium.transmit(ap, data) == done + medium.airtime(data)
        sim.run(until=1.0)
        assert [r[2] for r in neighbour.received] == [200]
        # The data frame queued behind the beacon, which then took its event.
        assert sim.events_processed == events + 2

    def test_adds_no_engine_event(self):
        sim = Simulator(seed=10)
        medium, ap, neighbour, beacon = build_unheard(sim)
        assert sim.events_processed == 1
        for k in range(2, 12):
            medium.transmit(ap, beacon)
            sim.run(until=0.1 * k)
        assert medium.frames_sent == 11
        assert sim.events_processed == 1
        medium.transmit(ap, data_frame("ap", "ap2"))
        sim.run(until=2.0)
        assert sim.events_processed == 2 and len(neighbour.received) == 1

    def test_frame_queued_behind_it_keeps_its_scheduling_order(self):
        """A frame queued behind an unheard beacon has its event scheduled
        when the beacon's would have run: an event due at the same
        instant, scheduled after the frame was sent but before the beacon
        was due, still runs first."""
        sim = Simulator(seed=11)
        medium, ap, neighbour, beacon = build_unheard(sim)
        medium.transmit(ap, beacon)
        due = medium.transmit(ap, data_frame("ap", "ap2")) + PROPAGATION_DELAY_S
        order = []
        sim.schedule_at(due, lambda: order.append("scheduled before"))
        neighbour.on_frame = lambda frame, rssi: order.append(frame.size)
        sim.run(until=1.0)
        assert order == ["scheduled before", 200]

    def test_beacon_event_runs_in_its_reserved_place(self):
        """Once a frame queues behind it, the beacon's event runs where it
        would have run had it been scheduled when the beacon was sent:
        before an event due at the same instant that was scheduled in
        between, so what either schedules keeps its order too."""
        sim = Simulator(seed=12)
        medium, ap, neighbour, beacon = build_unheard(sim)
        done = medium.transmit(ap, beacon)
        data = data_frame("ap", "ap2")
        due = (done + medium.airtime(data)) + PROPAGATION_DELAY_S
        order = []

        def at_the_beacons_instant():
            sim.schedule_at(due, lambda: order.append("scheduled at the beacon's instant"))

        sim.schedule_at(done + PROPAGATION_DELAY_S, at_the_beacons_instant)
        medium.transmit(ap, data)
        neighbour.on_frame = lambda frame, rssi: order.append(frame.size)
        sim.run(until=1.0)
        assert order == [200, "scheduled at the beacon's instant"]
