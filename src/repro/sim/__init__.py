"""Discrete-event wireless network substrate.

Everything the paper's testbed provided in hardware, rebuilt as a
timing-faithful simulator: an event engine, an 802.11 medium with channels
and loss, APs with DHCP servers / PSM buffering / backhaul bottlenecks
(plus optional split-connection TCP proxies), a packet-level TCP model with
pluggable congestion control (Reno/CUBIC/BBR-lite/QUIC-0RTT), mobility,
client NIC virtualization, and the stock-driver baseline.
"""

from .engine import Event, PeriodicProcess, Simulator
from .frames import BROADCAST, DhcpMessage, Frame, FrameKind, TcpSegment
from .mobility import (
    LinearMobility,
    LoopMobility,
    MobilityModel,
    StaticPosition,
    VariableSpeedLoopMobility,
    circle_point,
    ring_distance,
)
from .radio import Medium, rssi_from_distance
from .nic import ScanEntry, ScanTable, VirtualInterface, WifiNic
from .mac import Associator, AssociationState
from .dhcp import DhcpClient, DhcpServer, LeaseCache
from .ap import AccessPoint, BackhaulLink, SplitTcpProxy
from .cc import (
    BbrLiteCC,
    CC_NAMES,
    CongestionController,
    CubicCC,
    QuicZeroRttCC,
    RenoCC,
    TransportSpec,
    make_controller,
    resolve_transport,
)
from .tcp import TcpParams, TcpReceiver, TcpSender
from .world import ServerHost, StackSpec, World
from .faults import (
    ApFlap,
    ApOutage,
    BurstyLoss,
    DhcpNakBurst,
    DhcpStall,
    FaultInjector,
    FaultPlan,
    GilbertElliottLoss,
    LeaseExhaustion,
    RandomOutages,
    install_faults,
)
from .traffic import ClientFlow, LivenessMonitor, PingService
from .metrics import JoinAttempt, JoinLog, ThroughputRecorder, segment_lengths
from .tracing import FrameTrace, TraceRecord
from .stock_client import StockClient

__all__ = [
    "Event",
    "PeriodicProcess",
    "Simulator",
    "BROADCAST",
    "DhcpMessage",
    "Frame",
    "FrameKind",
    "TcpSegment",
    "LinearMobility",
    "LoopMobility",
    "MobilityModel",
    "StaticPosition",
    "VariableSpeedLoopMobility",
    "circle_point",
    "ring_distance",
    "Medium",
    "rssi_from_distance",
    "ScanEntry",
    "ScanTable",
    "VirtualInterface",
    "WifiNic",
    "Associator",
    "AssociationState",
    "DhcpClient",
    "DhcpServer",
    "LeaseCache",
    "AccessPoint",
    "BackhaulLink",
    "SplitTcpProxy",
    "BbrLiteCC",
    "CC_NAMES",
    "CongestionController",
    "CubicCC",
    "QuicZeroRttCC",
    "RenoCC",
    "TransportSpec",
    "make_controller",
    "resolve_transport",
    "TcpParams",
    "TcpReceiver",
    "TcpSender",
    "ServerHost",
    "StackSpec",
    "World",
    "ApFlap",
    "ApOutage",
    "BurstyLoss",
    "DhcpNakBurst",
    "DhcpStall",
    "FaultInjector",
    "FaultPlan",
    "GilbertElliottLoss",
    "LeaseExhaustion",
    "RandomOutages",
    "install_faults",
    "ClientFlow",
    "LivenessMonitor",
    "PingService",
    "JoinAttempt",
    "JoinLog",
    "ThroughputRecorder",
    "segment_lengths",
    "StockClient",
    "FrameTrace",
    "TraceRecord",
]
