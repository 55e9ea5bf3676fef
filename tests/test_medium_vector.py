"""Unit tests for the medium's receiver index (``repro.sim.medium_vec``).

Every delivery resolves its receivers through :class:`VectorIndex`:
cached broadcast plans for static senders, a BSSID index for unicast to
APs, and per-sender horizons (small fleets, or no numpy) or a position
snapshot (large fleets with numpy) for mobile receivers.  These tests pin
its contract at the unit level against the test-only reference walk
(``tests/reference_delivery.py``): byte-identical delivery traces across
every regime (static bins, cached plans, horizons, snapshots, the
unbounded-mobility escape, AP fail/recover cycles), frame-fate
conservation, horizon timing at the declared speed bound, and plan and
horizon invalidation when stations (un)register.  The no-numpy counter
and the constructor's parameter validation live here too.  Whole-trial
identity lives in ``tests/test_vector_determinism``.
"""

from __future__ import annotations

import math

import pytest

from reference_delivery import PATHS, ReferenceDelivery, delivery_path

from repro.core.schedule import OperationMode
from repro.experiments.common import run_town_trial
from repro.experiments.town_runs import spider_factory
from repro.obs.telemetry import Telemetry
from repro.sim import medium_vec
from repro.sim.engine import PeriodicProcess, Simulator
from repro.sim.faults import ApFlap, FaultPlan
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.medium_vec import SNAPSHOT_MIN_MOBILES, VectorIndex, argsort_scan
from repro.sim.mobility import (
    LinearMobility,
    LoopMobility,
    StaticPosition,
    VariableSpeedLoopMobility,
)
from repro.sim.nic import WifiNic
from repro.sim.radio import Medium
from repro.sim.world import World


class RecordingStation:
    """Mobile station that records what arrives and when."""

    max_speed_mps = 0.0

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


class StaticStation(RecordingStation):
    """Static station (binned like an AP; accepts only its own id)."""

    is_static = True
    accepts_only_own_id = True


class MovingStation(RecordingStation):
    """Mobile station drifting along x at a declared speed bound."""

    def __init__(self, station_id, x=0.0, y=0.0, channel=1, speed_mps=5.0):
        super().__init__(station_id, x=x, y=y, channel=channel)
        self.speed_mps = speed_mps
        self.max_speed_mps = speed_mps

    def position(self):
        return (self.x + self.speed_mps * self.sim.now, self.y)


class UnboundedStation(RecordingStation):
    """Mobile station with no usable speed bound (snapshot escape hatch)."""

    max_speed_mps = None


def mgmt_frame(src, dst, channel=1, size=80):
    return Frame(kind=FrameKind.BEACON, src=src, dst=dst, size=size, channel=channel)


def data_frame(src, dst, channel=1, size=200):
    return Frame(kind=FrameKind.DATA, src=src, dst=dst, size=size, channel=channel)


def trace_of(stations):
    return {s.station_id: s.received for s in stations}


class TestNumpyFallback:
    def test_index_engages_without_numpy(self, monkeypatch):
        """numpy only backs the large-fleet snapshot: without it the medium
        still resolves every delivery through the index."""
        monkeypatch.setattr(medium_vec, "_np", None)
        medium = Medium(Simulator(seed=0))
        assert medium.vector_delivery
        assert type(medium._vec) is VectorIndex

    def test_fallback_increments_obs_counter(self, monkeypatch):
        monkeypatch.setattr(medium_vec, "_np", None)
        tele = Telemetry(enabled=True)
        Medium(Simulator(seed=0, telemetry=tele))
        assert tele.counter("medium.vector_fallbacks").value == 1

    def test_counter_stays_zero_when_vector_engages(self):
        pytest.importorskip("numpy")
        tele = Telemetry(enabled=True)
        medium = Medium(Simulator(seed=0, telemetry=tele))
        assert medium.vector_delivery
        assert tele.counter("medium.vector_fallbacks").value == 0

    def test_counter_is_nondeterministic(self, monkeypatch):
        """The fallback count reflects installed packages, not the seed, so
        it must stay out of the deterministic telemetry projection."""
        monkeypatch.setattr(medium_vec, "_np", None)
        tele = Telemetry(enabled=True)
        Medium(Simulator(seed=0, telemetry=tele))
        names = [name for name, _ in tele.snapshot().counters]
        assert "medium.vector_fallbacks" not in names

    def test_argsort_scan_returns_none_without_numpy(self, monkeypatch):
        monkeypatch.setattr(medium_vec, "_np", None)
        assert argsort_scan([1.0, 2.0], ["a", "b"]) is None


class TestConstructorValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_loss_rate(self, bad):
        with pytest.raises(ValueError, match="loss_rate"):
            Medium(Simulator(seed=0), loss_rate=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_data_rate(self, bad):
        with pytest.raises(ValueError, match="data_rate_bps"):
            Medium(Simulator(seed=0), data_rate_bps=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -5.0])
    def test_rejects_bad_range(self, bad):
        with pytest.raises(ValueError, match="range_m"):
            Medium(Simulator(seed=0), range_m=bad)


pytestmark_numpy = pytest.mark.skipif(
    medium_vec._np is None, reason="lexsort path requires numpy"
)


class TestVectorScalarEquivalence:
    """The index and the reference walk must deliver byte-identically.

    Each world runs on the reference walk, on the index, and on the index
    without numpy (horizons instead of the mobile snapshot).  The
    ``loss_rate`` is non-zero in most cases so any divergence in receiver
    *order* (not just the set) desynchronizes the loss stream and shows up
    as a trace mismatch.
    """

    def _run(self, path, populate, drive, seed=7, loss_rate=0.3):
        sim = Simulator(seed=seed)
        with delivery_path(path):
            medium = Medium(sim, loss_rate=loss_rate)
        stations = populate(sim, medium)
        drive(sim, medium, stations)
        sim.run(until=5.0)
        return trace_of(stations), medium.frames_delivered, medium.frames_lost

    def _assert_identical(self, populate, drive, **kwargs):
        reference, *indexed = [
            self._run(path, populate, drive, **kwargs) for path in PATHS
        ]
        for result in indexed:
            assert result == reference
        return reference

    def test_static_broadcast_and_unicast(self):
        def populate(sim, medium):
            stations = [
                StaticStation(f"ap{i}", x=20.0 * i, channel=1) for i in range(10)
            ]
            sender = RecordingStation("veh", x=50.0)
            for s in stations + [sender]:
                s.sim = sim
                medium.register(s)
            return stations + [sender]

        def drive(sim, medium, stations):
            sender = stations[-1]
            medium.transmit(sender, mgmt_frame("veh", BROADCAST))
            medium.transmit(sender, data_frame("veh", "ap3"))
            medium.transmit(sender, data_frame("veh", "ap9"))  # out of range

        trace, delivered, _lost = self._assert_identical(populate, drive)
        assert delivered or any(trace.values())  # the world is not degenerate

    def test_broadcast_from_static_uses_cached_table(self):
        """Repeat beacons from the same AP hit the cached receiver table;
        the cache must not change what arrives or when."""

        def populate(sim, medium):
            aps = [StaticStation(f"ap{i}", x=15.0 * i) for i in range(9)]
            for ap in aps:
                ap.sim = sim
                medium.register(ap)
            return aps

        def drive(sim, medium, stations):
            for _ in range(4):
                medium.transmit(stations[2], mgmt_frame("ap2", BROADCAST))

        trace, _d, _l = self._assert_identical(populate, drive)
        assert any(trace.values())

    def test_mixed_static_mobile_registration_order(self):
        """Interleaved static/mobile registration: survivors must merge in
        registration-sequence order so loss draws line up."""

        def populate(sim, medium):
            stations = []
            for i in range(12):
                cls = StaticStation if i % 2 == 0 else RecordingStation
                s = cls(f"s{i}", x=8.0 * i)
                s.sim = sim
                medium.register(s)
                stations.append(s)
            return stations

        def drive(sim, medium, stations):
            for _ in range(6):
                medium.transmit(stations[5], mgmt_frame("s5", BROADCAST))

        self._assert_identical(populate, drive)

    def test_ap_fail_recover_cycle(self):
        """Unregister + re-register (AP fault injection) keeps the two
        paths in lockstep — re-registration assigns a fresh sequence
        number, which both paths must honour."""

        def populate(sim, medium):
            aps = [StaticStation(f"ap{i}", x=10.0 * i) for i in range(10)]
            veh = RecordingStation("veh", x=40.0)
            for s in aps + [veh]:
                s.sim = sim
                medium.register(s)

            def fail_recover():
                medium.unregister("ap4")
                sim.schedule(1.0, lambda: (medium.register(aps[4])))

            sim.schedule(1.0, fail_recover)
            return aps + [veh]

        def drive(sim, medium, stations):
            veh = stations[-1]
            for k in range(8):
                sim.schedule(0.5 * k, medium.transmit, veh, mgmt_frame("veh", BROADCAST))

        self._assert_identical(populate, drive)

    def test_snapshot_path_with_moving_fleet(self):
        """More than ``SNAPSHOT_MIN_MOBILES`` moving stations engage the
        snapshot + per-sender candidate cache; drift across the slack
        budget forces rebuilds mid-run."""

        def populate(sim, medium):
            fleet = [
                MovingStation(f"veh{i}", x=30.0 * i, speed_mps=10.0)
                for i in range(SNAPSHOT_MIN_MOBILES + 4)
            ]
            for s in fleet:
                s.sim = sim
                medium.register(s)
            return fleet

        def drive(sim, medium, stations):
            for k in range(10):
                sender = stations[k % len(stations)]
                sim.schedule(
                    0.45 * k,
                    lambda s=sender: medium.transmit(
                        s, mgmt_frame(s.station_id, BROADCAST)
                    ),
                )

        trace, delivered, _lost = self._assert_identical(populate, drive)
        assert delivered > 0

    def test_unbounded_mobile_disables_snapshot(self):
        """One station without a speed bound poisons the snapshot for its
        membership generation: mobile senders fall back to the exact scan
        and static senders to horizons, and both must still match."""

        def populate(sim, medium):
            fleet = [
                MovingStation(f"veh{i}", x=25.0 * i, speed_mps=8.0)
                for i in range(SNAPSHOT_MIN_MOBILES + 2)
            ]
            fleet.append(UnboundedStation("ghost", x=10.0))
            fleet.append(StaticStation("ap", x=60.0))
            for s in fleet:
                s.sim = sim
                medium.register(s)
            return fleet

        def drive(sim, medium, stations):
            for k in range(6):
                for s in (stations[0], stations[-1]):
                    sim.schedule(
                        0.5 * k,
                        lambda s=s: medium.transmit(
                            s, mgmt_frame(s.station_id, BROADCAST)
                        ),
                    )

        self._assert_identical(populate, drive)

    def test_unicast_between_mobiles(self):
        def populate(sim, medium):
            fleet = [
                MovingStation(f"veh{i}", x=12.0 * i, speed_mps=3.0)
                for i in range(SNAPSHOT_MIN_MOBILES + 2)
            ]
            for s in fleet:
                s.sim = sim
                medium.register(s)
            return fleet

        def drive(sim, medium, stations):
            for k in range(5):
                sim.schedule(
                    0.4 * k,
                    lambda: medium.transmit(stations[0], data_frame("veh0", "veh3")),
                )

        self._assert_identical(populate, drive)

    def test_cross_channel_isolation(self):
        def populate(sim, medium):
            stations = []
            for chan in (1, 6, 11):
                for i in range(4):
                    s = StaticStation(f"ap{chan}_{i}", x=20.0 * i, channel=chan)
                    s.sim = sim
                    medium.register(s)
                    stations.append(s)
            return stations

        def drive(sim, medium, stations):
            medium.transmit(stations[0], mgmt_frame("ap1_0", BROADCAST, channel=1))
            medium.transmit(stations[4], mgmt_frame("ap6_0", BROADCAST, channel=6))

        trace, _d, _l = self._assert_identical(populate, drive, loss_rate=0.0)
        # No cross-channel leakage: receivers only hear their own channel.
        for sid, received in trace.items():
            chan = sid.split("_")[0]
            assert all(src.startswith(chan) for src, *_ in received)

    def test_exact_range_boundary(self):
        """A receiver exactly at ``range_m`` is in range on both paths
        (the prefilter margin must not flip the boundary case)."""

        def populate(sim, medium):
            aps = [StaticStation(f"ap{i}", x=100.0 + i * 300.0) for i in range(8)]
            edge = StaticStation("edge", x=100.0)  # exactly range_m from sender
            veh = RecordingStation("veh", x=0.0)
            for s in aps + [edge, veh]:
                s.sim = sim
                medium.register(s)
            return aps + [edge, veh]

        def drive(sim, medium, stations):
            medium.transmit(stations[-1], mgmt_frame("veh", BROADCAST))

        trace, _d, _l = self._assert_identical(populate, drive, loss_rate=0.0)
        assert len(trace["edge"]) == 1


class CountingIndex(VectorIndex):
    """The index, also counting the reference walk's receivers per frame."""

    built = None  # set per test: every index built registers here

    def __init__(self, medium):
        super().__init__(medium)
        self.pairs = 0
        CountingIndex.built.append(self)

    def survivors(self, sender_id, frame, sx, sy):
        self.pairs += len(ReferenceDelivery.survivors(self, sender_id, frame, sx, sy))
        return super().survivors(sender_id, frame, sx, sy)


class TestFrameFateConservation:
    """On an uncontended medium every (frame, in-range receiver) pair the
    reference walk finds ends exactly once: delivered or lost."""

    @pytest.fixture
    def indexes(self, monkeypatch):
        monkeypatch.setattr(CountingIndex, "built", [])
        monkeypatch.setattr(medium_vec, "VectorIndex", CountingIndex)
        return CountingIndex.built

    def _assert_conserved(self, indexes):
        assert indexes
        for index in indexes:
            medium = index._medium
            assert medium.frames_lost > 0
            assert medium.frames_delivered + medium.frames_lost == index.pairs

    def test_town_trial_with_ap_flaps(self, indexes):
        plan = FaultPlan(events=(ApFlap(start_s=5.0, count=2, down_s=3.0, up_s=4.0),))
        run_town_trial(
            spider_factory(OperationMode.equal_split((1, 6, 11), 0.6), 4),
            "fates",
            seed=3,
            duration_s=30.0,
            faults=plan,
        )
        self._assert_conserved(indexes)

    @pytest.mark.parametrize("numpy_hidden", [False, True])
    def test_beaconing_moving_fleet(self, indexes, monkeypatch, numpy_hidden):
        if numpy_hidden:
            monkeypatch.setattr(medium_vec, "_np", None)
        sim = Simulator(seed=5)
        medium = Medium(sim, loss_rate=0.3)
        aps = [StaticStation(f"ap{i}", x=60.0 * i) for i in range(8)]
        fleet = [
            MovingStation(f"veh{i}", x=-200.0 + 20.0 * i, speed_mps=12.0)
            for i in range(SNAPSHOT_MIN_MOBILES + 2)
        ]
        for station in aps + fleet:
            station.sim = sim
            medium.register(station)
        for ap in aps:
            beacon = mgmt_frame(ap.station_id, BROADCAST)
            PeriodicProcess(sim, 0.1, lambda ap=ap, f=beacon: medium.transmit(ap, f))
        for k, veh in enumerate(fleet):
            uplink = data_frame(veh.station_id, "ap3")
            sim.schedule(0.05 + 0.3 * k, medium.transmit, veh, uplink)
        sim.run(until=8.0)
        self._assert_conserved(indexes)


class PositionCountingStation(MovingStation):
    """A moving station that logs when its position is read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = []

    def position(self):
        self.reads.append(self.sim.now)
        return super().position()


class TeleportingStation:
    """A mobile double that jumps between positions and declares no bound."""

    def __init__(self, station_id, x):
        self.station_id = station_id
        self.x = x
        self.sim = None
        self.received = []

    def position(self):
        return (self.x, 0.0)

    def tuned_channel(self):
        return 1

    def accepts(self, dst):
        return dst == self.station_id

    def on_frame(self, frame, rssi):
        self.received.append(self.sim.now)


def beaconing_world(path, mobiles, ap_x=400.0):
    """One static sender beaconing every 100 ms, lossless, on ``path``."""
    sim = Simulator(seed=3)
    with delivery_path(path):
        medium = Medium(sim, loss_rate=0.0)
    ap = StaticStation("ap", x=ap_x)
    for station in [ap, *mobiles]:
        station.sim = sim
        medium.register(station)
    PeriodicProcess(sim, 0.1, lambda: medium.transmit(ap, mgmt_frame("ap", BROADCAST)))
    return sim, medium


class TestHorizons:
    """A static sender skips a mobile until it could first be in range."""

    def test_first_beacon_at_declared_speed(self):
        """Driving straight at the AP at exactly ``max_speed_mps``: the
        first beacon arrives at the same instant on every path, and the
        index reads the position once until the horizon is due."""
        first, early_reads = {}, {}
        for path in PATHS:
            veh = PositionCountingStation("veh", x=0.0, speed_mps=10.0)
            sim, _ = beaconing_world(path, [veh])
            sim.run(until=35.0)
            first[path] = veh.received[0][4]
            early_reads[path] = sum(1 for t in veh.reads if t < 29.9)
        assert first["index"] == first["index-no-numpy"] == first["reference"]
        assert 29.9 < first["reference"] <= 30.1  # 400 m away, 100 m range
        assert early_reads["reference"] > 250
        assert early_reads["index"] == early_reads["index-no-numpy"] == 1

    @pytest.mark.parametrize("declared", ["absent", None, math.inf])
    def test_undeclared_bound_is_checked_every_frame(self, declared):
        """No finite bound: a station that teleports into range hears the
        next beacon on every path."""
        for path in PATHS:
            veh = TeleportingStation("veh", x=5000.0)
            if declared != "absent":
                veh.max_speed_mps = declared
            sim, _ = beaconing_world(path, [veh], ap_x=0.0)
            sim.run(until=1.05)
            assert veh.received == []
            veh.x = 10.0
            sim.run(until=1.15)
            assert len(veh.received) == 1, path

    def test_declared_bound_is_trusted(self):
        """A declared bound is a promise: the index does not look at a
        station again before the bound says it could be in range, so a
        station breaking its bound misses frames the reference delivers."""
        heard = {}
        for path in PATHS:
            veh = TeleportingStation("veh", x=5000.0)
            veh.max_speed_mps = 10.0
            sim, _ = beaconing_world(path, [veh], ap_x=0.0)
            sim.run(until=1.05)
            veh.x = 10.0
            sim.run(until=2.0)
            heard[path] = len(veh.received)
        assert heard == {"reference": 9, "index": 0, "index-no-numpy": 0}


class TestPlanInvalidation:
    """Registering or unregistering any station drops plans and horizons."""

    def _world(self):
        sim = Simulator(seed=0)
        world = World(sim, loss_rate=0.0)
        heard = []
        world.medium.delivery_hooks.append(
            lambda frame, receiver: heard.append((frame.src, receiver))
        )
        return sim, world, heard

    def test_ap_retune(self):
        sim, world, heard = self._world()
        a = world.add_ap(channel=1, position=(0.0, 0.0))
        b = world.add_ap(channel=6, position=(50.0, 0.0))
        sim.run(until=1.0)
        assert (a.bssid, b.bssid) not in heard
        b.retune(1)
        sim.run(until=2.0)
        assert (a.bssid, b.bssid) in heard and (b.bssid, a.bssid) in heard

    def test_ap_fail_and_recover(self):
        sim, world, heard = self._world()
        a = world.add_ap(channel=1, position=(0.0, 0.0))
        b = world.add_ap(channel=1, position=(50.0, 0.0))
        sim.run(until=1.0)
        assert (a.bssid, b.bssid) in heard
        b.fail()
        heard.clear()
        sim.run(until=2.0)
        assert heard == []
        b.recover()
        sim.run(until=3.0)
        assert (a.bssid, b.bssid) in heard and (b.bssid, a.bssid) in heard

    def test_nic_registering_mid_run(self):
        """A plan built with no mobiles must not keep a late NIC deaf."""
        sim, world, heard = self._world()
        a = world.add_ap(channel=1, position=(0.0, 0.0))
        sim.run(until=1.0)
        WifiNic(sim, world.medium, StaticPosition(30.0, 0.0), "veh", initial_channel=1)
        sim.run(until=1.2)
        assert (a.bssid, "veh") in heard

    def test_mobile_unregistering_mid_run(self):
        """Horizons are kept per mobile in registration order; dropping a
        far mobile must not hand its long horizon to a near one."""
        traces = {}
        for path in PATHS:
            far = MovingStation("far", x=5000.0, speed_mps=1.0)
            near = MovingStation("near", x=350.0, speed_mps=1.0)
            sim, medium = beaconing_world(path, [far, near])
            sim.schedule(2.0, medium.unregister, "far")
            sim.run(until=4.0)
            traces[path] = near.received
        assert traces["reference"]
        assert traces["index"] == traces["index-no-numpy"] == traces["reference"]


@pytestmark_numpy
class TestArgsortScan:
    def test_matches_python_tuple_sort(self):
        rng_entries = [
            (-50.0 - (i * 7 % 13), f"bssid{i:03d}") for i in range(80)
        ]
        rssis = [r for r, _ in rng_entries]
        bssids = [b for _, b in rng_entries]
        order = argsort_scan(rssis, bssids)
        vec_sorted = [(rssis[i], bssids[i]) for i in order]
        py_sorted = sorted(zip(rssis, bssids), key=lambda e: (-e[0], e[1]))
        assert vec_sorted == py_sorted

    def test_bssid_tie_break(self):
        rssis = [-60.0] * 5
        bssids = ["e", "a", "c", "b", "d"]
        order = argsort_scan(rssis, bssids)
        assert [bssids[i] for i in order] == ["a", "b", "c", "d", "e"]


class TestMobilityBounds:
    """The snapshot drift allowance leans on ``max_speed_mps`` being a
    true Lipschitz bound; pin the declared values and the batch API."""

    def test_declared_bounds(self):
        assert StaticPosition(1.0).max_speed_mps == 0.0
        assert LinearMobility(13.0).max_speed_mps == 13.0
        assert LoopMobility(9.0, loop_length_m=500.0).max_speed_mps == 9.0
        vs = VariableSpeedLoopMobility(
            [(5.0, 4.0), (5.0, 11.0)], loop_length_m=500.0
        )
        assert vs.max_speed_mps == 11.0

    @pytest.mark.parametrize(
        "model",
        [
            StaticPosition(3.0, y=4.0),
            LinearMobility(10.0, start_x=5.0),
            LoopMobility(8.0, loop_length_m=400.0, start_arc_m=30.0),
            VariableSpeedLoopMobility([(2.0, 3.0), (3.0, 9.0)], loop_length_m=400.0),
        ],
    )
    def test_positions_at_matches_scalar(self, model):
        ts = [0.0, 0.5, 1.25, 4.0, 9.75]
        assert model.positions_at(ts) == [model.position_at(t) for t in ts]

    @pytest.mark.parametrize(
        "model",
        [
            LinearMobility(10.0),
            LoopMobility(8.0, loop_length_m=400.0),
            VariableSpeedLoopMobility([(2.0, 3.0), (3.0, 9.0)], loop_length_m=400.0),
        ],
    )
    def test_bound_is_lipschitz(self, model):
        ts = [0.1 * k for k in range(100)]
        positions = model.positions_at(ts)
        for (x0, y0), (x1, y1), t0, t1 in zip(
            positions, positions[1:], ts, ts[1:]
        ):
            moved = math.hypot(x1 - x0, y1 - y0)
            assert moved <= model.max_speed_mps * (t1 - t0) + 1e-9
