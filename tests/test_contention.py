"""Unit tests for the CSMA/CA multi-cell contention subsystem."""

from __future__ import annotations

import math
import os
import pickle

import pytest

from repro.obs.telemetry import Telemetry
from repro.sim.contention import (
    CONTENTION_ENV,
    ContentionSpec,
    ContentionState,
    resolve_contention,
)
from repro.sim.engine import Simulator
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.radio import BACKLOG_WARN_S, Medium
from repro.sim.world import World


class FakeStation:
    """Minimal Station implementation for medium tests."""

    def __init__(self, station_id, x=0.0, y=0.0, channel=1):
        self.station_id = station_id
        self.x, self.y = x, y
        self.channel = channel
        self.received = []
        self.failed = []

    def position(self):
        return (self.x, self.y)

    def tuned_channel(self):
        return self.channel

    def accepts(self, dst):
        return dst == self.station_id

    def on_frame(self, frame, rssi):
        self.received.append((frame, rssi))

    def on_delivery_failed(self, frame):
        self.failed.append(frame)


def data_frame(src, dst, channel=1, size=1452):
    return Frame(kind=FrameKind.DATA, src=src, dst=dst, size=size, channel=channel)


def mgmt_frame(src, dst, channel=1, kind=FrameKind.AUTH_REQUEST, size=80):
    return Frame(kind=kind, src=src, dst=dst, size=size, channel=channel)


def contended_medium(sim, spec=None, loss_rate=0.0):
    """A medium with the CSMA/CA model on."""
    return Medium(sim, loss_rate=loss_rate, contention=spec or ContentionSpec())


@pytest.fixture
def sim():
    return Simulator(seed=1234)


class TestContentionSpec:
    def test_defaults_validate_and_pickle(self):
        spec = ContentionSpec()
        assert spec.enabled
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slot_time_s": 0.0},
            {"slot_time_s": float("nan")},
            {"difs_s": -1e-6},
            {"difs_s": float("inf")},
            {"pifs_s": -1e-6},
            {"cw_min": 0},
            {"cw_max": 8},  # below cw_min
            {"cw_mgmt": 0},
            {"capture_ratio": 0.5},
            {"capture_ratio": float("nan")},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ContentionSpec(**kwargs)

    def test_spec_is_frozen(self):
        with pytest.raises(Exception):
            ContentionSpec().enabled = False


class TestResolveContention:
    def setup_method(self):
        self._saved = os.environ.pop(CONTENTION_ENV, None)

    def teardown_method(self):
        if self._saved is not None:
            os.environ[CONTENTION_ENV] = self._saved
        else:
            os.environ.pop(CONTENTION_ENV, None)

    def test_nothing_requested_is_none(self):
        assert resolve_contention(None) is None
        assert resolve_contention("") is None

    def test_cli_tokens(self):
        assert resolve_contention("on") == ContentionSpec()
        assert resolve_contention("off") == ContentionSpec(enabled=False)
        assert resolve_contention("on,stagger") == ContentionSpec(
            beacon_stagger=True
        )
        assert resolve_contention("off,stagger") == ContentionSpec(
            enabled=False, beacon_stagger=True
        )

    def test_bare_stagger_requires_explicit_on_off(self):
        # "stagger" is a modifier: silently implying "on" would switch
        # the whole CSMA/CA model on as a side effect of asking for
        # beacon stagger, which ContentionSpec documents as independent.
        with pytest.raises(ValueError, match="modifier"):
            resolve_contention("stagger")

    def test_env_resolves_when_no_cli(self):
        os.environ[CONTENTION_ENV] = "on"
        assert resolve_contention(None) == ContentionSpec()

    def test_cli_wins_over_env(self):
        os.environ[CONTENTION_ENV] = "on"
        assert resolve_contention("off") == ContentionSpec(enabled=False)

    def test_bad_token_raises(self):
        with pytest.raises(ValueError):
            resolve_contention("sideways")


class TestCarrierSense:
    def test_same_cell_transmissions_serialize(self, sim):
        medium = contended_medium(sim)
        a = FakeStation("a", x=10.0)
        b = FakeStation("b", x=20.0)
        rx = FakeStation("rx", x=30.0)
        for s in (a, b, rx):
            medium.register(s)
        medium.transmit(a, data_frame("a", "rx"))
        medium.transmit(b, data_frame("b", "rx"))
        sim.run(until=1.0)
        state = medium.contention
        assert state.deferrals >= 1
        assert [f.src for f, _ in rx.received] == ["a", "b"]

    def test_far_cells_reuse_the_channel_concurrently(self, sim):
        medium = contended_medium(sim)
        a = FakeStation("a", x=0.0)
        ra = FakeStation("ra", x=50.0)
        b = FakeStation("b", x=1000.0)
        rb = FakeStation("rb", x=1050.0)
        for s in (a, ra, b, rb):
            medium.register(s)
        frame = data_frame("a", "ra")
        done_a = medium.transmit(a, frame)
        done_b = medium.transmit(b, data_frame("b", "rb"))
        sim.run(until=1.0)
        state = medium.contention
        assert state.deferrals == 0
        assert state.grants == 2
        # Concurrent: both finished within one airtime + max backoff of
        # t=0 rather than back to back.
        slack = medium.airtime(frame) + ContentionSpec().cw_min * 20e-6 + 1e-3
        assert max(done_a, done_b) < slack
        assert len(ra.received) == 1 and len(rb.received) == 1

    def test_adjacent_cell_sensed_but_only_own_cell_marked(self, sim):
        medium = contended_medium(sim)
        state = medium.contention
        granted, start, done = state.acquire("a", 1, 50.0, 0.0, 0.01)
        assert granted
        # The neighbour cell sees the busy air through the 3x3 sense...
        granted2, retry_at, _ = state.acquire("b", 1, 150.0, 0.0, 0.01)
        assert not granted2
        assert retry_at >= done
        # ...but the horizon it sensed is not its own: had the deferral
        # (or the booking) marked cell 1, cell 2 would now hear it too.
        assert state._sense(1, 2, 0) == 0.0
        granted3, _, _ = state.acquire("c", 1, 250.0, 0.0, 0.01)
        assert granted3

    def test_sense_matches_scalar_neighbourhood_semantics(self, sim):
        # A booking is heard one cell away but not two.
        medium = contended_medium(sim)
        state = medium.contention
        granted, _start, done = state.acquire("a", 1, 50.0, 0.0, 0.01)
        assert granted
        assert state._sense(1, 1, 0) == done  # neighbour cell hears it
        assert state._sense(1, 0, 0) == done  # own cell too
        assert state._sense(1, 2, 0) == 0.0  # two cells out: idle air
        assert state._sense(6, 0, 0) == 0.0  # other channel: idle air


class TestHiddenTerminals:
    def geometry(self, sim, rx_x):
        """Sender cell 0, interferer cell 2 (never sensed), receiver cell 1."""
        medium = contended_medium(sim)
        a = FakeStation("a", x=95.0)
        b = FakeStation("b", x=205.0 if rx_x < 150 else 295.0)
        rx = FakeStation("rx", x=rx_x)
        far = FakeStation("far", x=b.x + 50.0)
        for s in (a, b, rx, far):
            medium.register(s)
        return medium, a, b, rx, far

    def test_overlapping_hidden_transmission_wipes_receiver(self, sim):
        # rx at 195: 100 m from a, 100 m from b at 295 — inside both.
        medium, a, b, rx, far = self.geometry(sim, rx_x=195.0)
        medium.transmit(a, data_frame("a", "rx"))
        medium.transmit(b, data_frame("b", "far"))
        sim.run(until=1.0)
        assert rx.received == []
        assert a.failed, "wiped unicast must report the missing ACK"
        assert medium.frames_collided >= 1
        assert medium.contention.collisions >= 1

    def test_capture_near_sender_survives_far_interferer(self, sim):
        # rx at 105: 10 m from a — the interferer at 205 is 100 m out,
        # far beyond capture_ratio * 10 m, so the frame decodes through.
        medium, a, b, rx, far = self.geometry(sim, rx_x=105.0)
        medium.transmit(a, data_frame("a", "rx"))
        medium.transmit(b, data_frame("b", "far"))
        sim.run(until=1.0)
        assert [f.src for f, _ in rx.received] == ["a"]
        assert a.failed == []

    def test_interference_consumes_no_loss_draw(self, sim):
        medium, a, b, rx, far = self.geometry(sim, rx_x=195.0)
        draws = []
        inner = medium._rng.random
        medium._rng.random = lambda: draws.append(1) or inner()
        medium.transmit(a, data_frame("a", "rx"))
        medium.transmit(b, data_frame("b", "far"))
        sim.run(until=1.0)
        # rx is wiped before the loss draw; only far's delivery draws.
        assert len(draws) == 1


class TestBackoffDynamics:
    def test_wiped_unicast_doubles_window_and_idle_grant_resets(self, sim):
        medium = contended_medium(sim)
        state = medium.contention
        spec = state.spec
        state.note_collision("a", frame_failed=True)
        assert state._cw["a"] == spec.cw_min * 2
        state.note_collision("a", frame_failed=True)
        assert state._cw["a"] == spec.cw_min * 4
        # Capped at cw_max.
        for _ in range(20):
            state.note_collision("a", frame_failed=True)
        assert state._cw["a"] == spec.cw_max
        # An idle grant starts a fresh exchange.
        state.acquire("a", 1, 0.0, 0.0, 0.001)
        assert state._cw["a"] == spec.cw_min

    def test_broadcast_collision_keeps_window(self, sim):
        medium = contended_medium(sim)
        state = medium.contention
        state.note_collision("a", frame_failed=False)
        assert "a" not in state._cw
        assert state.collisions == 1

    def test_priority_access_leaves_data_window_alone(self, sim):
        medium = contended_medium(sim)
        state = medium.contention
        state.note_collision("a", frame_failed=True)
        widened = state._cw["a"]
        state.acquire("a", 1, 0.0, 0.0, 0.001, priority=True)
        assert state._cw["a"] == widened

    def test_priority_deferral_wakes_earlier_than_data(self, sim):
        medium = contended_medium(sim)
        state = medium.contention
        spec = state.spec
        granted, _, done = state.acquire("a", 1, 0.0, 0.0, 0.01)
        assert granted
        _, retry_mgmt, _ = state.acquire("m", 1, 10.0, 0.0, 0.001, priority=True)
        assert retry_mgmt <= done + spec.pifs_s + spec.cw_mgmt * spec.slot_time_s


class TestNicQueue:
    def test_per_sender_fifo_keeps_data_in_order(self, sim):
        medium = contended_medium(sim)
        a = FakeStation("a", x=10.0)
        rx = FakeStation("rx", x=20.0)
        medium.register(a)
        medium.register(rx)
        for i in range(4):
            medium.transmit(a, data_frame("a", "rx", size=200 + i))
        sim.run(until=1.0)
        assert [f.size for f, _ in rx.received] == [200, 201, 202, 203]

    def test_mgmt_frame_jumps_queued_data(self, sim):
        medium = contended_medium(sim)
        a = FakeStation("a", x=10.0)
        rx = FakeStation("rx", x=20.0)
        medium.register(a)
        medium.register(rx)
        for i in range(3):
            medium.transmit(a, data_frame("a", "rx", size=300 + i))
        medium.transmit(a, mgmt_frame("a", "rx"))
        sim.run(until=1.0)
        kinds = [f.kind for f, _ in rx.received]
        # The head data frame was already granted (idle medium) and
        # cannot be recalled; the handshake overtakes the *queued* data.
        assert kinds[:2] == [FrameKind.DATA, FrameKind.AUTH_REQUEST]
        sizes = [f.size for f, _ in rx.received if f.kind is FrameKind.DATA]
        assert sizes == [300, 301, 302]

    def test_mgmt_frame_preempts_deferring_data_head(self, sim):
        medium = contended_medium(sim)
        o = FakeStation("o", x=5.0)
        a = FakeStation("a", x=10.0)
        rx = FakeStation("rx", x=20.0)
        for s in (o, a, rx):
            medium.register(s)
        # Another station holds the air, so a's data head *defers*...
        medium.transmit(o, data_frame("o", "rx", size=8000))
        medium.transmit(a, data_frame("a", "rx", size=500))
        # ...and the handshake that arrives next preempts it outright.
        medium.transmit(a, mgmt_frame("a", "rx"))
        sim.run(until=1.0)
        from_a = [f.kind for f, _ in rx.received if f.src == "a"]
        assert from_a == [FrameKind.AUTH_REQUEST, FrameKind.DATA]

    def test_stale_retry_ignores_repromoted_head(self):
        """A preempted head's surviving retry event must stay inert even
        when the head has been re-promoted and is deferring *again* when
        the event finally fires.

        Frame identity cannot catch that case — the same frame object is
        legitimately back in ``_tx_contending`` — so retries validate a
        per-sender chain generation.  Before that token existed, the
        stale event matched and forked a second concurrent contention
        chain for the head (an extra acquire/deferral off-schedule,
        perturbing the backoff model and the contention RNG stream).

        The interleaving needs the sensed world to differ between the
        head's two attempts, so the sender teleports into a far cell
        (two bins away: mutually un-sensed) where a long foreign flight
        is in progress.  Seed 11 draws a first-deferral backoff >= 1
        slot, which makes the stale event outlive the management frame's
        grant + delivery + re-promotion; the pinned deferral count below
        fails (4, not 3) without the generation check.
        """
        sim = Simulator(seed=11)
        # 1 ms slots stretch data backoff well past the mgmt frame's
        # turnaround; cw_mgmt=1 makes the mgmt grant time deterministic.
        spec = ContentionSpec(slot_time_s=1e-3, cw_mgmt=1)
        medium = contended_medium(sim, spec=spec)
        p = FakeStation("p", x=250.0)  # two cells away: hidden from cell 0
        o = FakeStation("o", x=10.0)
        a = FakeStation("a", x=12.0)
        rx = FakeStation("rx", x=20.0)
        for s in (p, o, a, rx):
            medium.register(s)
        # A long foreign flight occupies the far cell for ~0.5 s...
        medium.transmit(p, data_frame("p", "pz", size=700000))
        # ...while o holds the near cell, so a's data head defers there.
        medium.transmit(o, data_frame("o", "orx", size=5500))
        t1 = medium.contention._sense(1, 0, 0)  # o's flight end
        d = data_frame("a", "rx", size=500)
        medium.transmit(a, d)
        # The handshake preempts the deferring head: d re-queues, and the
        # retry event scheduled for d's first attempt goes stale.
        medium.transmit(a, mgmt_frame("a", "rx"))
        # Teleport a (and its receiver) into the far cell after the mgmt
        # frame's grant (t1 + 30 us) but before its delivery, so d's
        # re-promotion senses the long flight and defers again.
        def move():
            a.x = 250.0
            rx.x = 240.0

        sim.schedule_at(t1 + 40e-6, move)
        sim.run(until=2.0)
        # Exactly three deferrals: d's first attempt, the mgmt frame's,
        # and d's re-promotion.  The stale retry must not add a fourth.
        assert medium.contention.deferrals == 3
        # And d goes on the air exactly once.
        assert len([f for f, _ in rx.received if f is d]) == 1
        assert medium._tx_queues == {}
        assert medium._tx_contending == {}

    def test_stale_generation_token_no_ops(self, sim):
        """Directly firing a retry with an outdated generation does nothing."""
        medium = contended_medium(sim)
        o = FakeStation("o", x=5.0)
        a = FakeStation("a", x=10.0)
        rx = FakeStation("rx", x=20.0)
        for s in (o, a, rx):
            medium.register(s)
        medium.transmit(o, data_frame("o", "rx", size=8000))
        d = data_frame("a", "rx", size=500)
        medium.transmit(a, d)  # defers behind o's flight
        stale_gen = medium._tx_gen["a"]
        medium.transmit(a, mgmt_frame("a", "rx"))  # preempts: gen bumps
        assert medium._tx_gen["a"] == stale_gen + 1
        before = medium.contention.deferrals
        medium._retry_contended("a", d, 0.0, stale_gen)
        assert medium.contention.deferrals == before
        assert d in medium._tx_queues["a"]

    def test_unregistered_sender_drops_queue(self, sim):
        medium = contended_medium(sim)
        a = FakeStation("a", x=10.0)
        rx = FakeStation("rx", x=20.0)
        medium.register(a)
        medium.register(rx)
        for i in range(3):
            medium.transmit(a, data_frame("a", "rx"))
        medium.unregister("a")
        sim.run(until=1.0)
        assert rx.received == []
        assert medium._tx_queues == {}


class TestDeterminism:
    def run_once(self, seed):
        sim = Simulator(seed=seed)
        medium = contended_medium(sim, loss_rate=0.1)
        stations = [
            FakeStation(f"s{i}", x=30.0 * i, channel=1) for i in range(8)
        ]
        for s in stations:
            medium.register(s)
        for step in range(5):
            for s in stations:
                sim.schedule_at(
                    0.002 * step,
                    lambda s=s: medium.transmit(
                        s, data_frame(s.station_id, f"s{(int(s.station_id[1:]) + 1) % 8}")
                    ),
                )
        sim.run(until=2.0)
        state = medium.contention
        return (
            state.grants,
            state.deferrals,
            state.collisions,
            medium.frames_delivered,
            medium.frames_lost,
            sorted(state.airtime_s_by_sender.items()),
        )

    def test_same_seed_same_trace(self):
        assert self.run_once(7) == self.run_once(7)


class TestBeaconStagger:
    def test_stagger_draws_per_bssid_phases(self):
        sim = Simulator(seed=5)
        world = World(
            sim, loss_rate=0.0, contention=ContentionSpec(beacon_stagger=True)
        )
        ap_a = world.add_ap(channel=1, position=(10.0, 0.0))
        ap_b = world.add_ap(channel=1, position=(20.0, 0.0))
        assert ap_a.beacon_stagger and ap_b.beacon_stagger
        phase_a = sim.rng(f"beacon.stagger.{ap_a.bssid}")
        phase_b = sim.rng(f"beacon.stagger.{ap_b.bssid}")
        assert phase_a is not phase_b

    def test_stagger_off_matches_absent_spec(self):
        def beacon_times(contention):
            sim = Simulator(seed=5)
            world = World(sim, loss_rate=0.0, contention=contention)
            world.add_ap(channel=1, position=(10.0, 0.0))
            world.add_ap(channel=1, position=(20.0, 0.0))
            rx = FakeStation("rx", x=15.0)
            times = []
            original = rx.on_frame
            rx.on_frame = lambda f, r: times.append((sim.now, f.src)) or original(f, r)
            world.medium.register(rx)
            sim.run(until=1.0)
            return times

        assert beacon_times(None) == beacon_times(
            ContentionSpec(enabled=False, beacon_stagger=False)
        )


class TestBacklogTelemetry:
    def test_backlog_gauge_tracks_wait(self):
        sim = Simulator(seed=7, telemetry=Telemetry(enabled=True, key=("backlog", 0)))
        medium = Medium(sim, loss_rate=0.0)
        a = FakeStation("a", x=10.0)
        rx = FakeStation("rx", x=20.0)
        medium.register(a)
        medium.register(rx)
        medium.transmit(a, data_frame("a", "rx"))
        medium.transmit(a, data_frame("a", "rx"))
        assert medium._obs_backlog.high_water > 0.0

    def test_backlog_warning_trips_once_per_channel(self):
        sim = Simulator(seed=8, telemetry=Telemetry(enabled=True, key=("backlog", 1)))
        medium = Medium(sim, loss_rate=0.0)
        a = FakeStation("a", x=10.0)
        rx = FakeStation("rx", x=20.0)
        medium.register(a)
        medium.register(rx)
        # One frame occupying > BACKLOG_WARN_S of airtime, then two more
        # queued behind it: both wait past the threshold, one warning.
        big = int(medium.data_rate_bps * (BACKLOG_WARN_S + 0.5) / 8.0)
        medium.transmit(a, data_frame("a", "rx", size=big))
        medium.transmit(a, data_frame("a", "rx"))
        medium.transmit(a, data_frame("a", "rx"))
        assert medium._obs_backlog_warnings.value == 1


class TestAccounting:
    def test_airtime_and_collision_telemetry_export(self):
        tele = Telemetry(enabled=True, key=("contention", 0))
        sim = Simulator(seed=3, telemetry=tele)
        medium = contended_medium(sim)
        a = FakeStation("a", x=95.0)
        b = FakeStation("b", x=295.0)
        rx = FakeStation("rx", x=195.0)
        far = FakeStation("far", x=345.0)
        for s in (a, b, rx, far):
            medium.register(s)
        medium.transmit(a, data_frame("a", "rx"))
        medium.transmit(b, data_frame("b", "far"))
        sim.run(until=1.0)
        state = medium.contention
        assert state.airtime_s_by_channel[1] == pytest.approx(
            sum(state.airtime_s_by_sender.values())
        )
        assert state.collision_rate() > 0.0
        state.export_telemetry(1.0)
        snapshot = tele.snapshot().deterministic()
        names = {name for name, _value, _high in snapshot.gauges}
        assert "contention.airtime_share.channel.1" in names
        assert "contention.airtime_share.sender.a" in names
        # The channel/sender prefixes keep the namespaces disjoint: a
        # station that happens to be called "ch1" must not shadow the
        # channel-1 gauge.
        assert "contention.airtime_share.ch1" not in names
        assert "contention.collision_rate" in names
        assert "contention.collisions.a" in names
        assert snapshot.counter_value("contention.collisions") >= 1.0

    def test_busy_until_reports_latest_cell_horizon(self, sim):
        medium = contended_medium(sim)
        state = medium.contention
        _, _, done_near = state.acquire("a", 1, 0.0, 0.0, 0.001)
        _, _, done_far = state.acquire("b", 1, 900.0, 0.0, 0.05)
        assert medium.channel_busy_until(1) == max(done_near, done_far)
        assert medium.channel_busy_until(6) == 0.0


class TestContentionOffIsInert:
    def test_disabled_spec_builds_no_state(self, sim):
        medium = Medium(sim, contention=ContentionSpec(enabled=False))
        assert medium.contention is None
        assert medium.contention_spec == ContentionSpec(enabled=False)

    def test_contention_stream_only_exists_when_on(self):
        sim = Simulator(seed=9)
        Medium(sim, contention=None)
        assert "medium.contention" not in sim._streams
        sim2 = Simulator(seed=9)
        Medium(sim2, contention=ContentionSpec())
        assert "medium.contention" in sim2._streams
