"""Unit tests for the medium's per-channel delivery batching.

PR 3 replaced one engine event per frame with a per-channel queue drained
from a single event.  These tests pin the queue semantics: delivery order,
per-frame arrival clocks, the event-horizon stop, the idle-flag reset, and
per-channel independence.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.frames import Frame, FrameKind
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
        """Each queued frame is delivered at its own completion time, not
        the drain event's dispatch time."""
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
        """A frame due beyond ``run(until=...)`` stays queued, exactly as a
        per-frame event would stay in the heap."""
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

