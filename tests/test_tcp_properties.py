"""Property-based robustness tests for the TCP model.

A Reno sender over a channel with arbitrary (randomized) loss episodes must
always (a) conserve bytes, (b) keep its window within bounds, and (c)
complete any finite transfer once the channel stays clean long enough.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.frames import TcpSegment
from repro.sim.tcp import TcpReceiver, TcpSender


def run_transfer(loss_windows, total_bytes=80_000, one_way_s=0.03, horizon_s=240.0):
    """Drive one transfer through a channel with the given loss windows.

    ``loss_windows`` is a list of (start, end) intervals during which all
    data segments are dropped.  Returns (sender, receiver).
    """
    sim = Simulator(seed=0)
    holder = {}

    def lossy(segment: TcpSegment) -> bool:
        return any(a <= sim.now < b for a, b in loss_windows)

    def down(segment: TcpSegment) -> None:
        if lossy(segment):
            return
        sim.schedule(one_way_s, holder["receiver"].on_segment, segment)

    def up(ack: TcpSegment) -> None:
        if lossy(ack):
            return
        sim.schedule(one_way_s, holder["sender"].on_ack, ack)

    sender = TcpSender(sim, "f", "s", "c", transmit=down, total_bytes=total_bytes)
    receiver = TcpReceiver(sim, "f", "c", "s", send_ack=up)
    holder["sender"], holder["receiver"] = sender, receiver
    sender.start()
    sim.run(until=horizon_s)
    return sender, receiver


# Loss windows: up to 3 episodes, each up to 8 s, within the first 40 s.
loss_window = st.tuples(
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
).map(lambda pair: (pair[0], pair[0] + pair[1]))


class TestUnderRandomBlackouts:
    @settings(max_examples=20, deadline=None)
    @given(windows=st.lists(loss_window, max_size=3))
    def test_transfer_always_completes(self, windows):
        sender, receiver = run_transfer(windows)
        assert receiver.bytes_delivered == 80_000
        assert sender.closed

    @settings(max_examples=20, deadline=None)
    @given(windows=st.lists(loss_window, max_size=3))
    def test_conservation_and_window_bounds(self, windows):
        sender, receiver = run_transfer(windows)
        assert receiver.bytes_delivered <= sender.snd_nxt
        assert sender.snd_una <= sender.snd_nxt
        assert 1.0 <= sender.cwnd <= sender.p.max_cwnd_segments + 1e-9
        assert sender.rto <= sender.p.rto_max_s

    @settings(max_examples=15, deadline=None)
    @given(windows=st.lists(loss_window, min_size=1, max_size=3))
    def test_receiver_never_delivers_out_of_order(self, windows):
        sim = Simulator(seed=1)
        delivered = []
        receiver = TcpReceiver(
            sim, "f", "c", "s", send_ack=lambda a: None,
            on_deliver=lambda n: delivered.append(receiver.rcv_nxt),
        )
        # Feed a randomized-but-valid segment pattern directly.
        import random

        rng = random.Random(42)
        segments = [
            TcpSegment("f", "s", "c", seq=i * 500, payload_bytes=500) for i in range(30)
        ]
        rng.shuffle(segments)
        for segment in segments:
            receiver.on_segment(segment)
        assert delivered == sorted(delivered)
        assert receiver.rcv_nxt == 15_000
