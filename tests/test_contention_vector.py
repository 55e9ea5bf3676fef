"""The CSMA/CA state against a dict-walk reference, unit to trial scale.

:class:`~repro.sim.contention.ContentionState` keeps carrier sense in a
per-channel grid of sensed horizons and screens each receiver cell's
flights once per delivery.  Both are data-structure choices that must be
invisible: every grant, deferral, backoff draw, collision and
deterministic telemetry counter has to match the straightforward model —
a 3x3 dict walk per sense and a full flight-list walk per receiver — bit
for bit.  :class:`ReferenceContentionState` is that straightforward model,
kept here as a test-only oracle; tests install it by monkeypatching
``repro.sim.radio.ContentionState``, the name the medium builds its state
through.

The reference runs also resolve receivers through the test-only
reference walk (``tests/reference_delivery.py``) without numpy, so the
trial-scale comparisons pit the plain models of carrier sense,
interference and receiver lookup against the default platform path.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import replace

import pytest

from reference_delivery import delivery_path

from repro.sim import radio
from repro.sim.contention import ContentionSpec, ContentionState
from repro.sim.engine import Simulator
from repro.sim.frames import Frame, FrameKind
from repro.sim.radio import Medium


class ReferenceContentionState(ContentionState):
    """The dict-walk CSMA/CA state: 9-key sense, own-cell booking dict,
    and a per-receiver walk over the cell's whole flight list."""

    def __init__(self, medium, spec):
        super().__init__(medium, spec)
        #: (channel, cx, cy) -> absolute time the cell's air frees up.
        self._busy = {}
        #: channel -> latest ``done`` ever booked.
        self._chan_horizon = {}

    def _sense(self, channel, cx, cy):
        busy = self._busy
        sensed = 0.0
        for nx in (cx - 1, cx, cx + 1):
            for ny in (cy - 1, cy, cy + 1):
                t = busy.get((channel, nx, ny), 0.0)
                if t > sensed:
                    sensed = t
        return sensed

    def _book(self, channel, cx, cy, done):
        own = (channel, cx, cy)
        if self._busy.get(own, 0.0) < done:
            self._busy[own] = done
        if done > self._chan_horizon.get(channel, 0.0):
            self._chan_horizon[channel] = done

    def busy_until(self, channel):
        return self._chan_horizon.get(channel, 0.0)

    def interfered_rows(self, sender_id, channel, rows, start, done):
        return [
            self.interfered(sender_id, channel, row[4], row[5], start, done, row[6])
            for row in rows
        ]

    def _interfered(self, sender_id, channel, rx, ry, start, done, sender_distance):
        bin_m = self._bin_m
        flights = self._inflight.get((channel, int(rx // bin_m), int(ry // bin_m)))
        if not flights:
            return False
        reach = min(self.medium.range_m, self.spec.capture_ratio * sender_distance)
        for f_start, f_end, f_sender, f_x, f_y in flights:
            if (
                f_sender != sender_id
                and f_start < done
                and start < f_end
                and math.hypot(rx - f_x, ry - f_y) <= reach
            ):
                return True
        return False


@contextmanager
def reference_paths(reference):
    """With ``reference``, build media on the oracle state, the reference
    receiver walk and no numpy."""
    with pytest.MonkeyPatch.context() as mp, delivery_path(
        "reference" if reference else "index"
    ):
        if reference:
            mp.setattr(radio, "ContentionState", ReferenceContentionState)
        yield


def data_frame(src, dst, channel=1, size=1452):
    return Frame(kind=FrameKind.DATA, src=src, dst=dst, size=size, channel=channel)


class FakeStation:
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
        self.received.append((frame.src, frame.kind, rssi))

    def on_delivery_failed(self, frame):
        self.failed.append(frame.src)


def contended_medium(sim, reference=False, loss_rate=0.0):
    with reference_paths(reference):
        return Medium(sim, loss_rate=loss_rate, contention=ContentionSpec())


def test_reference_is_installed_through_the_radio_module():
    with reference_paths(True):
        medium = Medium(Simulator(seed=0), contention=ContentionSpec())
    assert type(medium.contention) is ReferenceContentionState
    medium = Medium(Simulator(seed=0), contention=ContentionSpec())
    assert type(medium.contention) is ContentionState


class TestSenseGridEquivalence:
    """Hand-built geometry: grid and dict walk must sense the same air."""

    def _states(self):
        return [
            contended_medium(Simulator(seed=3), reference=reference).contention
            for reference in (True, False)
        ]

    def test_booked_neighbourhood_senses_identically(self):
        reference, state = self._states()
        bookings = [(1, 50.0, 0.0, 0.011), (1, 350.0, 0.0, 0.007), (6, 50.0, 0.0, 0.02)]
        for channel, x, y, airtime in bookings:
            for each in (reference, state):
                granted, start, done = each.acquire("s", channel, x, y, airtime)
                assert granted
        for channel in (1, 6, 11):
            for cx in range(-2, 8):
                for cy in range(-2, 3):
                    assert reference._sense(channel, cx, cy) == state._sense(
                        channel, cx, cy
                    ), (channel, cx, cy)
            assert reference.busy_until(channel) == state.busy_until(channel)

    def test_grid_growth_preserves_bookings(self):
        _, state = self._states()
        # Book far apart so the channel grid must regrow, then re-sense
        # the original cell: growth must preserve the propagated max.
        granted, _, done_a = state.acquire("a", 1, 0.0, 0.0, 0.01)
        assert granted
        granted, _, done_b = state.acquire("b", 1, 5000.0, 5000.0, 0.02)
        assert granted
        assert state._sense(1, 0, 0) == done_a
        assert state._sense(1, 50, 50) == done_b
        assert state.busy_until(1) == max(done_a, done_b)

    def test_sense_returns_python_floats(self):
        _, state = self._states()
        state.acquire("a", 1, 0.0, 0.0, 0.01)
        sensed = state._sense(1, 0, 0)
        assert type(sensed) is float


class TestInterferenceEquivalence:
    """The screened scan must agree with the full flight walk, including
    exactly on the capture boundary."""

    def _states(self, flights):
        states = []
        for reference in (True, False):
            state = contended_medium(Simulator(seed=5), reference=reference).contention
            for cell, cell_flights in flights.items():
                state._inflight[cell] = list(cell_flights)
            states.append(state)
        return states

    def _agree(self, states, sender_id, channel, rx, ry, start, done, distance):
        reference, state = states
        a = reference.interfered(sender_id, channel, rx, ry, start, done, distance)
        b = state.interfered(sender_id, channel, rx, ry, start, done, distance)
        assert a == b, (rx, ry, distance)
        return a

    def test_exact_capture_boundary(self):
        # Sender 30 m out: capture bound = min(100, 2.5 * 30) = 75 m.
        # An interferer at exactly 75 m is inside (<=); at the next float
        # out it is not.  Both states must make the same call.
        states = self._states(
            {(1, 0, 0): [(0.0, 0.001, "far", 75.0, 0.0)]}
        )
        assert self._agree(states, "s", 1, 0.0, 0.0, 0.0, 0.0005, 30.0) is True
        states = self._states(
            {(1, 0, 0): [(0.0, 0.001, "far", math.nextafter(75.0, 100.0), 0.0)]}
        )
        assert self._agree(states, "s", 1, 0.0, 0.0, 0.0, 0.0005, 30.0) is False

    def test_colocated_sender_zero_capture(self):
        # Receiver on top of its sender: capture bound collapses to 0 —
        # only an interferer at the exact same point can wipe it.
        at_rx = {(1, 0, 0): [(0.0, 0.001, "far", 10.0, 20.0)]}
        states = self._states(at_rx)
        assert self._agree(states, "s", 1, 10.0, 20.0, 0.0, 0.0005, 0.0) is True
        near = {(1, 0, 0): [(0.0, 0.001, "far", 10.0 + 1e-9, 20.0)]}
        states = self._states(near)
        assert self._agree(states, "s", 1, 10.0, 20.0, 0.0, 0.0005, 0.0) is False

    def test_own_flights_and_nonoverlapping_windows_ignored(self):
        flights = [
            (0.0, 0.001, "s", 1.0, 0.0),  # own transmission
            (0.002, 0.003, "far", 1.0, 0.0),  # starts after done
            (-0.002, -0.001, "far", 1.0, 0.0),  # ended before start
        ]
        states = self._states({(1, 0, 0): flights})
        assert self._agree(states, "s", 1, 0.0, 0.0, 0.0, 0.0015, 40.0) is False

    def test_crowded_cell_agrees(self):
        # Sixteen overlapping foreign flights in one cell: answers must
        # agree for receivers straddling the reach boundary.
        flights = [(0.0, 0.001, f"f{i}", 200.0 + 3.0 * i, 0.0) for i in range(16)]
        reference, state = self._states({(1, 2, 0): flights})
        for rx in (200.0, 230.0, 260.0, 290.0):
            a = reference.interfered("s", 1, rx, 0.0, 0.0, 0.0005, 38.0)
            b = state.interfered("s", 1, rx, 0.0, 0.0, 0.0005, 38.0)
            assert a == b, rx

    def test_interfered_rows_matches_single_calls(self):
        flights = [(0.0, 0.001, f"f{i}", 200.0 + 3.0 * i, 0.0) for i in range(16)]
        rows = [
            (i, None, -50.0, False, rx, 0.0, d)
            for i, (rx, d) in enumerate(
                [(205.0, 10.0), (230.0, 38.0), (260.0, 38.0), (295.0, 90.0), (290.0, 4.0)]
            )
        ]
        answers = []
        for state in self._states({(1, 2, 0): flights}):
            batched = state.interfered_rows("s", 1, rows, 0.0, 0.0005)
            singles = [
                state.interfered("s", 1, r[4], r[5], 0.0, 0.0005, r[6])
                for r in rows
            ]
            assert batched == singles
            answers.append(batched)
        assert answers[0] == answers[1]
        assert True in answers[0] and False in answers[0]


class TestBusyUntilComplexity:
    class _NoIterList(list):
        """A grid row store that forbids reads."""

        def __iter__(self):  # pragma: no cover - the assertion is the point
            raise AssertionError("busy_until must not walk the grid")

        def __getitem__(self, index):  # pragma: no cover
            raise AssertionError("busy_until must not walk the grid")

    def test_scalar_busy_until_is_o_channels(self):
        state = contended_medium(Simulator(seed=9)).contention
        dones = []
        for i in range(40):
            granted, _, done = state.acquire(f"s{i}", 1, 1000.0 * i, 0.0, 0.01 + i * 1e-4)
            assert granted
            dones.append(done)
        for grid in state._grids.values():
            grid.rows = self._NoIterList(grid.rows)
        assert state.busy_until(1) == max(dones)
        assert state.busy_until(6) == 0.0

    def test_busy_until_matches_reference(self):
        results = []
        for reference in (True, False):
            state = contended_medium(Simulator(seed=9), reference=reference).contention
            for i in range(10):
                state.acquire(f"s{i}", 1, 400.0 * i, 0.0, 0.005)
                state.acquire(f"m{i}", 6, 400.0 * i, 0.0, 0.002)
            results.append((state.busy_until(1), state.busy_until(6), state.busy_until(11)))
        assert results[0] == results[1]


class TestEndToEndTraceEquality:
    """Whole contended runs on hand-built worlds, reference vs real state."""

    def _run(self, reference, loss_rate=0.3, seed=11):
        sim = Simulator(seed=seed)
        medium = contended_medium(sim, reference=reference, loss_rate=loss_rate)
        stations = []
        # A corridor of cells with hidden-terminal geometry plus two
        # bystander receivers per cell — enough traffic to defer, carry
        # flights, and wipe receivers in both states.
        for i in range(6):
            x = 95.0 + 105.0 * i
            stations.append(FakeStation(f"tx{i}", x=x))
            stations.append(FakeStation(f"rx{i}", x=x + 60.0))
        for s in stations:
            medium.register(s)
        for burst in range(3):
            for i in range(6):
                medium.transmit(
                    stations[2 * i], data_frame(f"tx{i}", f"rx{i}", size=600 + 200 * burst)
                )
        sim.run(until=2.0)
        state = medium.contention
        return (
            [(s.station_id, s.received, s.failed) for s in stations],
            medium.frames_delivered,
            medium.frames_lost,
            medium.frames_collided,
            state.grants,
            state.deferrals,
            state.collisions,
            dict(state.collisions_by_sender),
            {c: round(v, 12) for c, v in state.airtime_s_by_channel.items()},
        )

    def test_traces_identical(self):
        assert self._run(True) == self._run(False)

    def test_traces_identical_lossless(self):
        assert self._run(True, loss_rate=0.0, seed=4) == self._run(
            False, loss_rate=0.0, seed=4
        )


# ----------------------------------------------------------------------
# Trial scale: whole contended town drives, reference vs real state.

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.schedule import OperationMode  # noqa: E402
from repro.experiments.api import to_jsonable  # noqa: E402
from repro.experiments.common import TownTrialSpec, run_town_trial_spec  # noqa: E402
from repro.experiments.dense_town import (  # noqa: E402
    DenseTownSpec,
    run_dense_trial,
    run_spec,
)
from repro.experiments.town_runs import spider_factory  # noqa: E402
from repro.obs.export import build_payload, collect_snapshots  # noqa: E402
from repro.sim.faults import ApFlap, DhcpStall, FaultPlan, RandomOutages  # noqa: E402

#: Small-but-contended: dense enough that flights stack and defers fire,
#: small enough to run twice per regime.
CONTENDED_DENSE = DenseTownSpec(
    duration_s=1.5,
    town="city",
    n_vehicles=3,
    loop_length_m=1500.0,
    ap_density_per_km=80.0,
    telemetry=True,
    contention=ContentionSpec(),
)


def _dense_pair(spec, seed=0):
    """One contended dense trial per state, same seed."""
    rows = []
    for reference in (True, False):
        with reference_paths(reference):
            rows.append(run_dense_trial(spec, seed=seed))
    return rows


class TestContendedTrialBitIdentity:
    """Dense-town regimes: results AND deterministic telemetry match."""

    def _assert_identical(self, spec, seed=0):
        reference, real = _dense_pair(spec, seed=seed)
        assert reference == real  # dataclass equality: bit-for-bit floats
        assert reference.telemetry is not None
        assert reference.frames_delivered > 0

    def test_static_fleet(self):
        """Speed 0: every sender re-contends from a frozen position, so
        the sense grid and flight cells never churn spatially."""
        self._assert_identical(replace(CONTENDED_DENSE, speed_mps=0.0))

    def test_mobile_fleet(self):
        self._assert_identical(CONTENDED_DENSE, seed=1)

    def test_clustered_lossy_world(self):
        """Clustered AP drops pile flights into few cells (deep scans in
        both states) while loss draws interleave with backoff draws."""
        self._assert_identical(
            replace(CONTENDED_DENSE, clustered=True, loss_rate=0.25), seed=2
        )

    def test_staggered_vs_colocated_starts(self):
        """The stagger regime both ways: the default drive staggers
        ``start_arc_m`` around the loop; pinning the loop short packs the
        staggered vehicles into adjacent cells instead, so both the
        spread and the crowded geometry must agree."""
        self._assert_identical(replace(CONTENDED_DENSE, loop_length_m=900.0), seed=3)


class TestContendedFaultPlanIdentity:
    """A full fault plan on a contended amherst drive, both states."""

    def _run(self, reference):
        plan = FaultPlan(
            events=(
                ApFlap(start_s=5.0, count=2, down_s=3.0, up_s=4.0),
                DhcpStall(at_s=12.0, duration_s=6.0),
                RandomOutages(start_s=0.0, end_s=30.0, rate_per_min=2.0),
            )
        )
        spec = TownTrialSpec(
            factory=spider_factory(OperationMode.single_channel(1), 7),
            label="contended-faults",
            seed=2,
            duration_s=30.0,
            telemetry=True,
            contention=ContentionSpec(),
            faults=plan,
        )
        with reference_paths(reference):
            return run_town_trial_spec(spec)

    def test_fault_plan_trace_identical(self):
        import pickle

        reference = self._run(True)
        real = self._run(False)
        assert pickle.dumps(replace(reference, telemetry=None)) == pickle.dumps(
            replace(real, telemetry=None)
        )
        assert reference.telemetry is not None
        assert pickle.dumps(reference.telemetry.deterministic()) == pickle.dumps(
            real.telemetry.deterministic()
        )


class TestContendedRandomGridProperty:
    """Hypothesis: contended byte-identity over arbitrary dense grids.

    The strongest form of the contract: the whole experiment envelope
    (JSON) and the deterministic telemetry export payload are serialized
    and compared as bytes, over random world geometry, loss, clustering,
    and fleet size — the same surface users diff between runs.
    """

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=3),
        loop_length_m=st.sampled_from([1200.0, 1500.0, 1800.0]),
        ap_density_per_km=st.sampled_from([60.0, 80.0, 100.0]),
        loss_rate=st.sampled_from([0.0, 0.1, 0.25]),
        clustered=st.booleans(),
        n_vehicles=st.integers(min_value=2, max_value=3),
    )
    def test_random_contended_grid_byte_identity(
        self, seed, loop_length_m, ap_density_per_km, loss_rate, clustered, n_vehicles
    ):
        spec = DenseTownSpec(
            seeds=(seed,),
            duration_s=1.2,
            town="city",
            n_vehicles=n_vehicles,
            loop_length_m=loop_length_m,
            ap_density_per_km=ap_density_per_km,
            loss_rate=loss_rate,
            clustered=clustered,
            telemetry=True,
            contention=ContentionSpec(),
        )
        dumps = {}
        for reference in (True, False):
            with reference_paths(reference):
                envelope = run_spec(spec)
            assert envelope.ok
            dumps[reference] = (
                json.dumps(to_jsonable(envelope), sort_keys=True).encode(),
                json.dumps(
                    build_payload(collect_snapshots(envelope.value)), sort_keys=True
                ).encode(),
            )
        assert dumps[True] == dumps[False]
