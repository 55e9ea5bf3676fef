"""Spider's user-space link-management module (LMM).

The LMM (§3.2.2) owns connection policy:

* it assigns idle virtual interfaces to APs chosen by the join-success
  utility heuristic (no two interfaces ever bind the same AP),
* it drives the three-step join pipeline — link-layer association, DHCP
  lease acquisition (with per-BSSID lease caching), and end-to-end
  connectivity verification,
* it scores every attempt into the utility tracker (``va``/``vb``/``vc``
  staged rewards),
* it monitors established links with 10 Hz pings and tears a link down
  after 30 consecutive misses, notifying the application layer through
  ``on_link_down`` (the paper's RAM-disk shared flag), and
* it enforces the IP-collision rule: if two interfaces end up with the same
  address, only the most recently assigned one is kept, and
* it hardens against misbehaving infrastructure: repeated failures against
  one AP earn exponentially longer blacklist terms (decaying after a quiet
  period), a DHCP NAK invalidates the cached lease immediately, and a fully
  disconnected client paroles the least-recently-failed AP rather than
  sitting out an inflated term with zero links.

Timeout handling follows §2.2.1: with *default* timers a failed DHCP
attempt idles the AP for 60 s; Spider's reduced-timer configurations retry
after a short backoff instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..sim import dhcp as dhcp_mod
from ..sim import mac as mac_mod
from ..sim.engine import PeriodicProcess, Simulator
from ..sim.frames import FrameKind
from ..sim.metrics import JoinAttempt, JoinLog
from ..sim.nic import ScanEntry, VirtualInterface, WifiNic
from ..sim.traffic import LivenessMonitor, PingService
from ..sim.world import World
from .ap_selection import JoinOutcome, UtilityTracker, select_aps
from .schedule import OperationMode

__all__ = ["SpiderConfig", "LinkManager"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpiderConfig:
    """All LMM policy knobs in one immutable bundle."""

    mode: OperationMode
    num_interfaces: int = 7
    #: Per-message link-layer timeout (stock 1 s; Spider reduces to 100 ms).
    ll_timeout_s: float = mac_mod.REDUCED_LL_TIMEOUT_S
    ll_retries: int = 3
    #: DHCP retransmission timeout (stock 1 s; swept 200/400/600 ms).
    dhcp_timeout_s: float = 0.2
    #: Total time budget for one DHCP attempt.  Spider gives up sooner than
    #: the stock 3 s — moving on to another AP beats waiting out a slow
    #: server when encounters last seconds (it costs more outright
    #: failures, Table 3, but faster successes, Fig. 14).
    dhcp_budget_s: float = 2.4
    #: Back-off after a failed DHCP attempt (stock clients idle 60 s).
    dhcp_idle_after_failure_s: float = 5.0
    use_lease_cache: bool = True
    #: End-to-end verification ping deadline and retry count.
    verify_ping_timeout_s: float = 1.0
    verify_retries: int = 2
    #: Back-off after an association failure.
    join_blacklist_s: float = 3.0
    #: Back-off after a liveness death (AP departed).
    dead_blacklist_s: float = 2.0
    #: Consecutive failures against one AP inflate its blacklist term by
    #: this factor per failure (1.0 disables exponential backoff).
    blacklist_backoff: float = 2.0
    #: Ceiling on a backoff-inflated blacklist term.  Never applied below
    #: the base duration, so a long deliberate idle (stock 60 s) survives.
    blacklist_cap_s: float = 30.0
    #: A failure streak is forgotten after this long without a new failure.
    blacklist_decay_s: float = 60.0
    #: When fully disconnected and every visible AP is blacklisted, parole
    #: the entry that has served its base term — backoff inflation should
    #: never strand a client with zero links.
    parole_when_disconnected: bool = True
    lmm_tick_s: float = 0.25
    #: 'utility' (Spider), 'rssi', or 'random' — the ablation axis.
    selection_policy: str = "utility"

    def with_mode(self, mode: OperationMode) -> "SpiderConfig":
        """Copy of the configuration with a different operation mode."""
        return replace(self, mode=mode)

    @classmethod
    def spider_defaults(cls, mode: OperationMode, num_interfaces: int = 7) -> "SpiderConfig":
        """Spider's tuned configuration (reduced timers, caching on)."""
        return cls(mode=mode, num_interfaces=num_interfaces)

    @classmethod
    def stock_timers(cls, mode: OperationMode, num_interfaces: int = 7) -> "SpiderConfig":
        """Default link-layer/DHCP timers (the '100% default' curves)."""
        return cls(
            mode=mode,
            num_interfaces=num_interfaces,
            ll_timeout_s=mac_mod.DEFAULT_LL_TIMEOUT_S,
            dhcp_timeout_s=dhcp_mod.DEFAULT_DHCP_TIMEOUT_S,
            dhcp_budget_s=dhcp_mod.DEFAULT_ATTEMPT_BUDGET_S,
            dhcp_idle_after_failure_s=dhcp_mod.DEFAULT_IDLE_AFTER_FAILURE_S,
            use_lease_cache=False,
        )


class _JoinPipeline:
    """One interface's in-flight join to one AP."""

    def __init__(self, manager: "LinkManager", iface: VirtualInterface, entry: ScanEntry):
        self.manager = manager
        self.iface = iface
        self.bssid = entry.bssid
        self.channel = entry.channel
        self.attempt: JoinAttempt = manager.join_log.new_attempt(
            entry.bssid, entry.channel, manager.sim.now
        )
        self.cancelled = False
        self._associator: Optional[mac_mod.Associator] = None
        self._dhcp: Optional[dhcp_mod.DhcpClient] = None
        self._verify_service: Optional[PingService] = None
        self._verify_tries = 0
        # Phase spans mirror the paper's join decomposition (assoc → DHCP
        # → verify) under one parent "join" span; each ends where the
        # corresponding JoinAttempt field is written, so span counts by
        # status reconcile with JoinLog.failure_breakdown().
        self._span = None
        self._assoc_span = None
        self._dhcp_span = None
        self._verify_span = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the component."""
        config = self.manager.config
        obs = self.manager.obs
        self._span = obs.begin_span("join", ap=self.bssid, channel=self.channel)
        self._assoc_span = obs.begin_span("join.assoc", ap=self.bssid)
        self._associator = mac_mod.Associator(
            self.manager.sim,
            self.iface,
            bssid=self.bssid,
            channel=self.channel,
            timeout_s=config.ll_timeout_s,
            max_retries=config.ll_retries,
            on_success=self._on_associated,
            on_failure=self._on_assoc_failed,
        )
        self._associator.start()

    def cancel(self) -> None:
        """Cancel outstanding work."""
        self.cancelled = True
        if self._associator is not None:
            self._associator.abort()
        if self._dhcp is not None:
            self._dhcp.abort()
        if self._verify_service is not None:
            self._verify_service.close()
        self._end_spans("cancelled")

    def _end_spans(self, status: str, stage: Optional[str] = None) -> None:
        """Close any still-open phase spans, then the parent (idempotent)."""
        for child in (self._assoc_span, self._dhcp_span, self._verify_span):
            if child is not None:
                child.end(status)
        if self._span is not None:
            if stage is not None:
                self._span.end(status, stage=stage)
            else:
                self._span.end(status)

    # ------------------------------------------------------------------
    def _on_assoc_failed(self, reason: str) -> None:
        if self.cancelled:
            return
        self.attempt.failure_reason = f"association: {reason}"
        if self._assoc_span is not None:
            self._assoc_span.end("failed", reason=reason)
        self._end_spans("failed", stage="assoc")
        self.manager._join_finished(
            self, JoinOutcome.FAILED, self.manager.config.join_blacklist_s
        )

    def _on_associated(self, elapsed: float) -> None:
        if self.cancelled:
            return
        self.attempt.associated = True
        self.attempt.association_time_s = elapsed
        self.iface.link_associated = True
        config = self.manager.config
        manager = self.manager
        if self._assoc_span is not None:
            self._assoc_span.end("ok")
        manager._obs_assoc_time.observe(elapsed)
        cached = None
        if config.use_lease_cache:
            cached = manager.lease_cache.get(self.bssid)
            (manager._obs_cache_hits if cached is not None
             else manager._obs_cache_misses).inc()
        self._dhcp_span = manager.obs.begin_span(
            "join.dhcp", ap=self.bssid, cached=cached is not None
        )
        self._dhcp = dhcp_mod.DhcpClient(
            manager.sim,
            self.iface,
            server_bssid=self.bssid,
            timeout_s=config.dhcp_timeout_s,
            attempt_budget_s=config.dhcp_budget_s,
            cached=cached,
            on_success=self._on_leased,
            on_failure=self._on_dhcp_failed,
            on_nak=self._on_nak,
            telemetry=manager.obs,
        )
        self._dhcp.start()

    def _on_nak(self) -> None:
        if self.cancelled:
            return
        self.attempt.nak_received = True
        # The server refused the binding we asked for; whatever we remembered
        # for this AP is stale regardless of how the attempt ends.
        self.manager.lease_cache.invalidate(self.bssid)

    def _on_dhcp_failed(self, reason: str) -> None:
        if self.cancelled:
            return
        self.attempt.failure_reason = f"dhcp: {reason}"
        if self._dhcp_span is not None:
            self._dhcp_span.end("failed", reason=reason)
        self._end_spans("failed", stage="dhcp")
        self.manager.lease_cache.invalidate(self.bssid)
        self.manager._join_finished(
            self,
            JoinOutcome.ASSOCIATED,
            self.manager.config.dhcp_idle_after_failure_s,
        )

    def _on_leased(self, ip: str, gateway: str, elapsed: float, used_cache: bool) -> None:
        if self.cancelled:
            return
        self.attempt.leased = True
        self.attempt.dhcp_time_s = elapsed
        self.attempt.used_cache = used_cache
        self.attempt.join_time_s = self.manager.sim.now - self.attempt.started_at
        if self._dhcp_span is not None:
            self._dhcp_span.end("ok", used_cache=used_cache)
        manager = self.manager
        manager._obs_dhcp_time.observe(elapsed)
        manager.lease_cache.put(self.bssid, ip, gateway, lease_time_s=600.0)
        # The ping service outlives the pipeline either way: a successful
        # join hands it to the established link's liveness monitor.
        self._verify_service = PingService(
            manager.sim, self.iface, target_ip=manager.world.server.ip
        )
        if manager.world.stack.transport.zero_rtt and self.bssid in manager._resumable:
            # 0-RTT resumption: this client verified this AP before, so the
            # session resumes without the probe — no join.verify span is
            # ever begun (the skip is what the span's absence measures).
            self.attempt.verified = True
            self._end_spans("ok")
            manager._obs_join_time.observe(self.attempt.join_time_s or 0.0)
            if manager._obs_zero_rtt is not None:
                manager._obs_zero_rtt.inc()
            manager._join_succeeded(self)
            return
        self._verify_span = manager.obs.begin_span("join.verify", ap=self.bssid)
        self._verify_tries = 0
        self._verify_once()

    def _verify_once(self) -> None:
        if self.cancelled or self._verify_service is None:
            return
        self._verify_tries += 1
        self._verify_service.probe(
            self.manager.config.verify_ping_timeout_s, self._on_verify_result
        )

    def _on_verify_result(self, reachable: bool) -> None:
        if self.cancelled:
            return
        if reachable:
            self.attempt.verified = True
            self._end_spans("ok")
            self.manager._obs_join_time.observe(self.attempt.join_time_s or 0.0)
            self.manager._join_succeeded(self)
            return
        if self._verify_tries <= self.manager.config.verify_retries:
            self._verify_once()
            return
        self.attempt.failure_reason = "verify: end-to-end ping failed"
        self._end_spans("failed", stage="verify")
        if self._verify_service is not None:
            self._verify_service.close()
            self._verify_service = None
        self.manager._join_finished(
            self, JoinOutcome.LEASED, self.manager.config.join_blacklist_s
        )


class _EstablishedLink:
    """A fully joined interface with liveness monitoring attached."""

    def __init__(self, manager: "LinkManager", iface: VirtualInterface, ping: PingService):
        self.manager = manager
        self.iface = iface
        self.bssid: str = iface.bssid  # type: ignore[assignment]
        self.ping = ping
        self.established_at = manager.sim.now
        self.monitor = LivenessMonitor(
            manager.sim, ping, on_dead=self._on_dead
        )

    def _on_dead(self) -> None:
        self.manager._link_died(self)

    def teardown(self) -> None:
        """Tear the link down and stop its monitors."""
        self.monitor.stop()
        self.ping.close()


class LinkManager:
    """The LMM: policy engine above the driver."""

    def __init__(
        self,
        sim: Simulator,
        world: World,
        nic: WifiNic,
        config: SpiderConfig,
        on_link_up: Optional[Callable[[VirtualInterface], None]] = None,
        on_link_down: Optional[Callable[[VirtualInterface], None]] = None,
        telemetry=None,
    ):
        self.sim = sim
        self.world = world
        self.nic = nic
        self.config = config
        # Telemetry scope: SpiderClient passes its per-client scope so a
        # fleet's vehicles keep distinct name prefixes; default to the
        # simulator-global registry (the null one when telemetry is off).
        self.obs = telemetry if telemetry is not None else sim.telemetry
        self._obs_ticks = self.obs.counter("scan.rounds")
        self._obs_candidates = self.obs.histogram(
            "scan.candidates", bounds=(0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)
        )
        self._obs_cache_hits = self.obs.counter("join.lease_cache_hits")
        self._obs_cache_misses = self.obs.counter("join.lease_cache_misses")
        self._obs_assoc_time = self.obs.histogram("join.assoc_time_s")
        self._obs_dhcp_time = self.obs.histogram("join.dhcp_time_s")
        self._obs_join_time = self.obs.histogram("join.join_time_s")
        # QUIC-style 0-RTT resumption: with a zero-RTT transport selected,
        # rejoining an AP this client has already verified end-to-end skips
        # the verify phase outright (a resumed session needs no probe
        # before first payload).  The instrument is registered only in that
        # non-default mode so default telemetry stays byte-identical.
        self._resumable: Set[str] = set()
        self._obs_zero_rtt = (
            self.obs.counter("join.zero_rtt_resumes")
            if world.stack.transport.zero_rtt
            else None
        )
        self.on_link_up = on_link_up
        self.on_link_down = on_link_down
        self.tracker = UtilityTracker()
        self.lease_cache = dhcp_mod.LeaseCache(sim)
        self.join_log = JoinLog()
        self._blacklist: Dict[str, float] = {}
        #: When each blacklisted AP finishes its *base* (un-inflated) term —
        #: the point at which a disconnected client may parole it.
        self._blacklist_base_end: Dict[str, float] = {}
        #: bssid -> (consecutive failures, time of the last one).
        self._fail_streak: Dict[str, Tuple[int, float]] = {}
        self._in_use: Set[str] = set()
        self._pipelines: Dict[int, _JoinPipeline] = {}
        self._links: Dict[int, _EstablishedLink] = {}
        self._rng = sim.rng("lmm.selection")
        while len(nic.interfaces) < config.num_interfaces:
            nic.add_interface()
        self._tick_process = PeriodicProcess(
            sim, config.lmm_tick_s, self._tick, phase=config.lmm_tick_s / 2.0
        )

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def established_count(self) -> int:
        """Number of fully verified links right now."""
        return len(self._links)

    def established_ifaces(self) -> List[VirtualInterface]:
        """Interfaces with fully verified links."""
        return [link.iface for link in self._links.values()]

    def stop(self) -> None:
        """Stop the component and release its resources."""
        self._tick_process.stop()
        for pipeline in list(self._pipelines.values()):
            pipeline.cancel()
        self._pipelines.clear()
        for link in list(self._links.values()):
            link.teardown()
        self._links.clear()

    # ------------------------------------------------------------------
    # The periodic policy tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        stale = [b for b, until in self._blacklist.items() if until <= now]
        for bssid in stale:
            del self._blacklist[bssid]
            self._blacklist_base_end.pop(bssid, None)
        idle = [
            iface
            for iface in self.nic.interfaces
            if not iface.bound and iface.index not in self._pipelines
        ]
        if not idle:
            return
        candidates = self.nic.scan_table.fresh_entries(
            now, channels=self.config.mode.channels
        )
        self._obs_ticks.inc()
        self._obs_candidates.observe(float(len(candidates)))
        if not candidates:
            return
        exclude = self._in_use | set(self._blacklist)
        started = False
        for iface in idle:
            chosen = self._choose(candidates, exclude)
            if chosen is None:
                break
            exclude.add(chosen.bssid)
            self._start_join(iface, chosen)
            started = True
        if started or self._links or self._pipelines:
            return
        self._maybe_parole(idle[0], candidates, now)

    def _maybe_parole(
        self, iface: VirtualInterface, candidates: List[ScanEntry], now: float
    ) -> None:
        """Fully disconnected with every candidate blacklisted: retry early.

        Exponential backoff must not strand a client — once a blacklisted
        AP has served its base (un-inflated) term, the inflation is waived
        and a join is attempted.  The failure streak is kept, so another
        failure re-blacklists with a longer term again.
        """
        if not self.config.parole_when_disconnected:
            return
        eligible = [
            e
            for e in candidates
            if e.bssid in self._blacklist
            and now >= self._blacklist_base_end.get(e.bssid, 0.0)
        ]
        if not eligible:
            return
        entry = min(eligible, key=lambda e: (self._blacklist[e.bssid], e.bssid))
        del self._blacklist[entry.bssid]
        self._blacklist_base_end.pop(entry.bssid, None)
        logger.debug("paroling blacklisted %s at t=%.1f", entry.bssid, now)
        self._start_join(iface, entry)

    def _choose(self, candidates: List[ScanEntry], exclude: Set[str]) -> Optional[ScanEntry]:
        policy = self.config.selection_policy
        if policy == "utility":
            picks = select_aps(candidates, self.tracker, 1, exclude=exclude)
            return picks[0] if picks else None
        usable = [e for e in candidates if e.bssid not in exclude]
        if not usable:
            return None
        if policy == "rssi":
            return max(usable, key=lambda e: (e.rssi, e.bssid))
        if policy == "random":
            return self._rng.choice(usable)
        raise ValueError(f"unknown selection policy {policy!r}")

    def _start_join(self, iface: VirtualInterface, entry: ScanEntry) -> None:
        self._in_use.add(entry.bssid)
        pipeline = _JoinPipeline(self, iface, entry)
        self._pipelines[iface.index] = pipeline
        pipeline.start()

    # ------------------------------------------------------------------
    # Blacklisting with exponential backoff
    # ------------------------------------------------------------------
    def _current_streak(self, bssid: str) -> int:
        record = self._fail_streak.get(bssid)
        if record is None:
            return 0
        count, last_fail = record
        if self.sim.now - last_fail >= self.config.blacklist_decay_s:
            del self._fail_streak[bssid]
            return 0
        return count

    def _next_blacklist_s(self, bssid: str, base_s: float) -> float:
        """Blacklist term the next failure against ``bssid`` would earn."""
        cfg = self.config
        duration = base_s * (cfg.blacklist_backoff ** self._current_streak(bssid))
        return min(duration, max(cfg.blacklist_cap_s, base_s))

    def _blacklist_ap(self, bssid: str, base_s: float) -> None:
        """Record a failure and blacklist with a backoff-inflated term."""
        now = self.sim.now
        duration = self._next_blacklist_s(bssid, base_s)
        self._fail_streak[bssid] = (self._current_streak(bssid) + 1, now)
        if base_s > 0:
            self._blacklist[bssid] = now + duration
            self._blacklist_base_end[bssid] = now + base_s

    # ------------------------------------------------------------------
    # Pipeline callbacks
    # ------------------------------------------------------------------
    def _join_finished(self, pipeline: _JoinPipeline, outcome: str, blacklist_s: float) -> None:
        """A pipeline ended short of full success."""
        self.tracker.record(pipeline.bssid, outcome)
        self._blacklist_ap(pipeline.bssid, blacklist_s)
        self._in_use.discard(pipeline.bssid)
        self._pipelines.pop(pipeline.iface.index, None)
        pipeline.iface.reset_binding()

    def _join_succeeded(self, pipeline: _JoinPipeline) -> None:
        self.tracker.record(pipeline.bssid, JoinOutcome.VERIFIED)
        self._resumable.add(pipeline.bssid)
        self._fail_streak.pop(pipeline.bssid, None)
        self._pipelines.pop(pipeline.iface.index, None)
        iface = pipeline.iface
        iface.routable = True
        self._enforce_ip_uniqueness(iface)
        ping = pipeline._verify_service
        assert ping is not None
        link = _EstablishedLink(self, iface, ping)
        self._links[iface.index] = link
        logger.debug(
            "link up: %s via %s ip=%s at t=%.1f",
            iface.mac, iface.bssid, iface.ip, self.sim.now,
        )
        if self.on_link_up is not None:
            self.on_link_up(iface)

    def _enforce_ip_uniqueness(self, newest: VirtualInterface) -> None:
        """IP collision: keep only the most recently assigned interface."""
        for index, link in list(self._links.items()):
            if link.iface is newest:
                continue
            if link.iface.ip == newest.ip:
                logger.debug(
                    "ip collision on %s: dropping older %s", newest.ip, link.iface.mac
                )
                self._teardown_link(link, blacklist_s=0.0)

    # ------------------------------------------------------------------
    # Link death
    # ------------------------------------------------------------------
    def _link_died(self, link: _EstablishedLink) -> None:
        logger.debug(
            "link down: %s via %s at t=%.1f", link.iface.mac, link.bssid, self.sim.now
        )
        self._teardown_link(link, blacklist_s=self.config.dead_blacklist_s)

    def _teardown_link(self, link: _EstablishedLink, blacklist_s: float) -> None:
        iface = link.iface
        self._links.pop(iface.index, None)
        link.teardown()
        if self.on_link_down is not None:
            self.on_link_down(iface)
        if iface.bssid is not None:
            iface.send_mgmt(FrameKind.DISASSOC, iface.bssid)
            if blacklist_s > 0:
                self._blacklist_ap(iface.bssid, blacklist_s)
            self._in_use.discard(iface.bssid)
        iface.reset_binding()
