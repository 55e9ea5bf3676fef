"""Unit tests for the pluggable congestion-control subsystem.

Covers the controller strategy classes (Reno arithmetic, CUBIC window
growth, BBR-lite pacing bounds), the frozen :class:`TransportSpec` bundle
and its CLI resolution, the split-connection AP proxy, and the
QUIC-style 0-RTT join-verify skip.
"""

from __future__ import annotations

import pickle
from dataclasses import asdict

import pytest

from repro.obs.telemetry import Telemetry
from repro.sim.cc import (
    BbrLiteCC,
    CC_NAMES,
    CubicCC,
    QuicZeroRttCC,
    RenoCC,
    TcpParams,
    TransportSpec,
    make_controller,
    resolve_transport,
)
from repro.sim.engine import Simulator
from repro.sim.world import StackSpec, World

from conftest import make_lab_ap


class TestRegistry:
    def test_names_cover_all_four_controllers(self):
        assert CC_NAMES == ("reno", "cubic", "bbr", "quic0rtt")

    @pytest.mark.parametrize("name", CC_NAMES)
    def test_make_controller_matches_name(self, name):
        cc = make_controller(name)
        assert cc.name == name
        assert cc.cwnd > 0 and cc.ssthresh > 0

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown congestion controller"):
            make_controller("vegas")

    def test_controllers_honour_params(self):
        params = TcpParams(initial_cwnd_segments=5.0, max_cwnd_segments=20.0)
        cc = make_controller("cubic", params)
        assert cc.cwnd == 5.0
        assert cc.p.max_cwnd_segments == 20.0


class TestReno:
    def test_slow_start_doubles_per_window(self):
        cc = RenoCC(TcpParams(initial_cwnd_segments=2.0))
        cc.on_ack(2.0, 2.0, now=0.1)
        assert cc.cwnd == 4.0

    def test_congestion_avoidance_is_sublinear(self):
        cc = RenoCC(TcpParams(initial_ssthresh_segments=2.0))
        cc.cwnd = 10.0
        cc.on_ack(1.0, 10.0, now=0.1)
        assert cc.cwnd == pytest.approx(10.1)

    def test_rto_collapses_to_one_segment(self):
        cc = RenoCC()
        cc.cwnd = 40.0
        cc.on_rto(30.0, now=1.0)
        assert cc.cwnd == 1.0
        assert cc.ssthresh == 15.0

    def test_fast_retransmit_halves(self):
        cc = RenoCC()
        cc.cwnd = 40.0
        cc.on_fast_retransmit(40.0, now=1.0)
        assert cc.cwnd == cc.ssthresh == 20.0

    def test_ssthresh_floor_is_two_segments(self):
        cc = RenoCC()
        cc.on_rto(1.0, now=1.0)
        assert cc.ssthresh == 2.0

    def test_quic0rtt_shares_reno_window_dynamics(self):
        reno, quic = RenoCC(), QuicZeroRttCC()
        for step in range(50):
            reno.on_ack(2.0, 10.0, now=0.1 * step)
            quic.on_ack(2.0, 10.0, now=0.1 * step)
        reno.on_rto(12.0, now=6.0)
        quic.on_rto(12.0, now=6.0)
        assert (reno.cwnd, reno.ssthresh) == (quic.cwnd, quic.ssthresh)
        assert quic.zero_rtt_resume and not reno.zero_rtt_resume


class TestCubic:
    def test_slow_start_matches_reno(self):
        cc = CubicCC(TcpParams(initial_cwnd_segments=2.0))
        cc.on_ack(2.0, 2.0, now=0.1)
        assert cc.cwnd == 4.0

    def test_loss_multiplies_by_beta(self):
        cc = CubicCC()
        cc.cwnd = 50.0
        cc.ssthresh = 10.0
        cc.on_fast_retransmit(50.0, now=1.0)
        assert cc.cwnd == pytest.approx(35.0)  # 50 * 0.7
        assert cc.ssthresh == pytest.approx(35.0)

    def test_window_plateaus_near_w_max_then_probes_past(self):
        """The defining CUBIC shape: concave recovery toward w_max, a
        plateau, then convex probing beyond it."""
        cc = CubicCC(TcpParams(max_cwnd_segments=10_000.0))
        cc.cwnd = 100.0
        cc.ssthresh = 100.0
        cc.on_fast_retransmit(100.0, now=0.0)
        trace = []
        now = 0.0
        for _ in range(4000):
            now += 0.01
            cc.on_ack(1.0, cc.cwnd, now)
            trace.append(cc.cwnd)
        # Monotone non-decreasing growth after the loss...
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        # ...that crosses the old maximum and keeps probing.
        assert trace[0] < 100.0 < trace[-1]
        # Growth near w_max (the plateau) is slower than the late convex
        # probing phase.
        mid = min(range(len(trace)), key=lambda i: abs(trace[i] - 100.0))
        window = 200
        plateau_rate = trace[mid + window] - trace[mid]
        late_rate = trace[-1] - trace[-1 - window]
        assert late_rate > plateau_rate

    def test_rto_resets_to_one_segment(self):
        cc = CubicCC()
        cc.cwnd = 30.0
        cc.on_rto(30.0, now=2.0)
        assert cc.cwnd == 1.0

    def test_capped_by_max_cwnd(self):
        cc = CubicCC(TcpParams(max_cwnd_segments=16.0))
        cc.cwnd = 16.0
        cc.ssthresh = 1.0
        for step in range(1000):
            cc.on_ack(4.0, 16.0, now=0.05 * step)
            assert cc.cwnd <= 16.0


class TestBbrLite:
    def feed(self, cc, rtt_s, rate_segments_per_s, acks=64, start=0.0):
        """Feed a steady ACK clock: `rate` segments/s spaced evenly."""
        gap = 1.0 / rate_segments_per_s
        now = start
        for _ in range(acks):
            now += gap
            cc.on_rtt_sample(rtt_s, now)
            cc.on_ack(1.0, cc.cwnd, now)
        return now

    def test_cwnd_converges_to_gain_times_bdp(self):
        cc = BbrLiteCC(TcpParams(max_cwnd_segments=1000.0))
        # 100 segments/s at 100 ms RTT -> BDP = 10 segments.
        self.feed(cc, rtt_s=0.1, rate_segments_per_s=100.0)
        assert cc.bdp == pytest.approx(10.0)
        assert cc.cwnd == pytest.approx(cc.CWND_GAIN * 10.0)

    def test_pacing_bound_invariant(self):
        """Once the filters hold data, cwnd never exceeds the pacing bound
        max(GAIN * BDP, MIN_CWND), and always stays in [MIN_CWND, max]."""
        cc = BbrLiteCC(TcpParams(max_cwnd_segments=64.0))
        now = self.feed(cc, rtt_s=0.05, rate_segments_per_s=200.0)
        for step in range(200):
            now += 0.01
            cc.on_ack(1.0, cc.cwnd, now)
            bound = max(cc.CWND_GAIN * cc.bdp, cc.MIN_CWND)
            assert cc.cwnd <= bound + 1e-9
            assert cc.MIN_CWND <= cc.cwnd <= cc.p.max_cwnd_segments

    def test_rto_floors_at_min_cwnd_not_one(self):
        cc = BbrLiteCC()
        self.feed(cc, rtt_s=0.1, rate_segments_per_s=100.0)
        cc.on_rto(10.0, now=100.0)
        assert cc.cwnd == cc.MIN_CWND  # 4.0 — not Reno's collapse to 1

    def test_rate_filter_reset_after_rto(self):
        """The off-channel gap must not register as a huge ACK interval."""
        cc = BbrLiteCC()
        now = self.feed(cc, rtt_s=0.1, rate_segments_per_s=100.0)
        bw_before = cc.btl_bw
        cc.on_rto(10.0, now=now)
        # First ACK after the gap contributes no rate sample.
        cc.on_ack(1.0, 4.0, now + 30.0)
        assert cc.btl_bw == bw_before

    def test_min_rtt_window_expires_old_samples(self):
        cc = BbrLiteCC()
        cc.on_rtt_sample(0.01, now=0.0)
        cc.on_rtt_sample(0.5, now=5.0)
        assert cc.min_rtt == 0.01
        cc.on_rtt_sample(0.4, now=11.0)  # 0.01 sample now older than 10 s
        assert cc.min_rtt == 0.4

    def test_fast_retransmit_dents_mildly(self):
        cc = BbrLiteCC()
        cc.cwnd = 40.0
        cc.on_fast_retransmit(40.0, now=1.0)
        assert cc.cwnd == pytest.approx(34.0)  # 0.85x, not 0.5x


class TestTransportSpec:
    def test_default_is_reno_no_split(self):
        spec = TransportSpec()
        assert spec.cc == "reno" and not spec.split
        assert not spec.zero_rtt
        assert isinstance(spec.controller(), RenoCC)

    def test_params_round_trip(self):
        params = TcpParams(mss=1200, rto_min_s=0.3)
        spec = TransportSpec(cc="bbr", split=True, **asdict(params))
        assert spec.params() == params
        assert spec.cc == "bbr" and spec.split

    def test_rejects_unknown_cc(self):
        with pytest.raises(ValueError, match="unknown congestion controller"):
            TransportSpec(cc="vegas")

    def test_frozen_and_picklable(self):
        spec = TransportSpec(cc="cubic", split=True)
        with pytest.raises(Exception):
            spec.cc = "reno"  # type: ignore[misc]
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_zero_rtt_only_for_quic(self):
        assert TransportSpec(cc="quic0rtt").zero_rtt
        for name in ("reno", "cubic", "bbr"):
            assert not TransportSpec(cc=name).zero_rtt

    def test_controller_instances_are_fresh(self):
        spec = TransportSpec(cc="cubic")
        a, b = spec.controller(), spec.controller()
        a.cwnd = 99.0
        assert b.cwnd != 99.0


class TestResolveTransport:
    def test_nothing_requested_returns_none(self, monkeypatch):
        # The environment has no say: only the flags choose a transport.
        monkeypatch.setenv("REPRO_CC", "cubic")
        monkeypatch.setenv("REPRO_SPLIT", "1")
        assert resolve_transport() is None

    def test_cli_args_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "cubic")
        monkeypatch.setenv("REPRO_SPLIT", "1")
        spec = resolve_transport(cc="bbr", split=False)
        assert spec == TransportSpec(cc="bbr", split=False)
        assert resolve_transport(split=True) == TransportSpec(split=True)


class _LabClient:
    """Minimal joined client: associate+DHCP by hand, then open a flow."""

    def __init__(self, sim, world, ap, loss=None):
        from repro.sim.dhcp import DhcpClient
        from repro.sim.mac import Associator
        from repro.sim.mobility import StaticPosition
        from repro.sim.nic import WifiNic

        self.sim = sim
        self.world = world
        self.ap = ap
        self.nic = WifiNic(sim, world.medium, StaticPosition(0, 0), "cli",
                           initial_channel=ap.channel)
        self.iface = self.nic.add_interface()
        self.joined = False

        def on_assoc(elapsed):
            DhcpClient(
                sim,
                self.iface,
                server_bssid=ap.bssid,
                on_success=self._on_lease,
                on_failure=lambda: None,
            ).start()

        Associator(
            sim,
            self.iface,
            bssid=ap.bssid,
            channel=ap.channel,
            on_success=on_assoc,
            on_failure=lambda reason: None,
        ).start()

    def _on_lease(self, ip, gateway, elapsed, used_cache):
        self.iface.ip = ip
        self.iface.routable = True
        self.joined = True

    def open_flow(self, total_bytes, transport=None):
        from repro.sim.traffic import ClientFlow

        assert self.joined
        return ClientFlow(
            self.sim, self.world, self.iface,
            total_bytes=total_bytes, transport=transport,
        )


class TestSplitProxy:
    def build(self, loss_rate, transport):
        """Join over a clean channel, then apply ``loss_rate`` to the data
        phase (the join handshake has its own retry story, tested
        elsewhere)."""
        sim = Simulator(seed=7)
        world = World(sim, loss_rate=0.0, stack=StackSpec(transport=transport))
        ap = make_lab_ap(world, x=5.0)
        client = _LabClient(sim, world, ap)
        sim.run(until=3.0)
        assert client.joined
        world.medium.loss_rate = loss_rate
        world.medium._one_minus_loss = 1.0 - loss_rate
        return sim, world, ap, client

    def test_proxy_registered_and_relays_all_bytes(self):
        transport = TransportSpec(split=True)
        sim, world, ap, client = self.build(0.0, transport)
        flow = client.open_flow(total_bytes=120_000)
        sim.run(until=2.0)
        assert ap.split_proxies  # proxy engaged mid-flow
        sim.run(until=40.0)
        assert flow.bytes_delivered == 120_000
        assert not ap.split_proxies  # closed after completion

    def test_client_stream_is_in_order_and_exact(self):
        """Relay ordering: the client's receiver sees a clean in-order
        prefix-closed byte stream even under heavy wireless loss."""
        transport = TransportSpec(split=True)
        sim, world, ap, client = self.build(0.25, transport)
        flow = client.open_flow(total_bytes=80_000)
        deliveries = []
        flow.receiver.on_deliver = deliveries.append
        sim.run(until=120.0)
        assert flow.bytes_delivered == 80_000
        assert flow.receiver.rcv_nxt == 80_000
        assert all(n > 0 for n in deliveries)

    def test_wired_sender_shielded_from_wireless_loss(self):
        """The point of splitting: wireless loss damages only the relay's
        window; the origin (wired-side) sender sees a clean path."""
        transport = TransportSpec(split=True)
        sim, world, ap, client = self.build(0.3, transport)
        flow = client.open_flow(total_bytes=60_000)
        sim.run(until=1.5)
        proxy = ap.split_proxies[flow.flow_id]
        relay = proxy.relay
        origin = flow.sender
        sim.run(until=120.0)
        assert flow.bytes_delivered == 60_000
        # The relay fought the lossy last hop; the origin never lost a
        # segment on the wired path.
        assert relay.timeouts + relay.fast_retransmits > 0
        assert origin.timeouts == 0 and origin.fast_retransmits == 0

    def test_no_split_leaves_ap_proxyless(self):
        sim, world, ap, client = self.build(0.0, TransportSpec(split=False))
        client.open_flow(total_bytes=40_000)
        sim.run(until=20.0)
        assert not ap.split_proxies

    def test_ap_failure_closes_proxies(self):
        transport = TransportSpec(split=True)
        sim, world, ap, client = self.build(0.0, transport)
        client.open_flow(total_bytes=10_000_000)
        sim.run(until=2.0)
        assert ap.split_proxies
        ap.fail()
        assert not ap.split_proxies


class TestZeroRttJoin:
    def make_spider(self, transport):
        from repro.core.link_manager import LinkManager, SpiderConfig
        from repro.core.schedule import OperationMode
        from repro.sim.mobility import StaticPosition
        from repro.sim.nic import WifiNic

        tele = Telemetry()
        sim = Simulator(seed=11, telemetry=tele)
        world = World(sim, loss_rate=0.0, stack=StackSpec(transport=transport))
        ap = make_lab_ap(world, x=5.0)
        nic = WifiNic(sim, world.medium, StaticPosition(0, 0), "veh",
                      initial_channel=ap.channel)
        config = SpiderConfig.spider_defaults(
            OperationMode.single_channel(ap.channel), num_interfaces=1
        )
        lmm = LinkManager(sim, world, nic, config)
        return sim, world, ap, lmm, tele

    def drop_and_rejoin(self, sim, lmm):
        link = lmm._links[0]
        lmm._teardown_link(link, blacklist_s=0.0)
        sim.run(until=sim.now + 10.0)

    def test_rejoin_skips_verify_span_with_quic0rtt(self):
        sim, world, ap, lmm, tele = self.make_spider(TransportSpec(cc="quic0rtt"))
        sim.run(until=8.0)
        assert lmm.established_count == 1
        self.drop_and_rejoin(sim, lmm)
        assert lmm.established_count == 1
        snap = tele.snapshot()
        verify_spans = [s for s in snap.spans if s.name == "join.verify"]
        assert len(verify_spans) == 1  # first join only; rejoin skipped it
        assert snap.counter_value("join.zero_rtt_resumes") == 1.0
        # Both joins completed fully (associated, leased, verified).
        assert sum(1 for a in lmm.join_log.attempts if a.verified) == 2

    def test_reno_rejoin_still_verifies(self):
        sim, world, ap, lmm, tele = self.make_spider(TransportSpec(cc="reno"))
        sim.run(until=8.0)
        assert lmm.established_count == 1
        self.drop_and_rejoin(sim, lmm)
        snap = tele.snapshot()
        verify_spans = [s for s in snap.spans if s.name == "join.verify"]
        assert len(verify_spans) == 2
        assert snap.counter_value("join.zero_rtt_resumes") == 0.0

    def test_zero_rtt_only_for_previously_verified_ap(self):
        sim, world, ap, lmm, tele = self.make_spider(TransportSpec(cc="quic0rtt"))
        sim.run(until=8.0)
        snap = tele.snapshot()
        # First-contact join must still run the verify probe.
        assert [s for s in snap.spans if s.name == "join.verify"]
        assert snap.counter_value("join.zero_rtt_resumes") == 0.0
