"""Striping a single logical transfer across concurrent links.

The paper's related-work section observes that "most of these data striping
approaches [PERM, MAR, Horde] can be built into Spider to enhance mobile
user performance": Spider gives you one TCP flow per joined AP, and a
striper turns those per-link flows into one logical download.

:class:`StripedDownload` implements the client side:

* it opens one chunk-fetching flow per established interface as links come
  and go (Spider's ``on_link_up``/``on_link_down`` callbacks drive it),
* the logical object is divided into fixed-size chunks; each link fetches
  the next unclaimed chunk (work stealing — fast links fetch more),
* chunks in flight on a dying link are re-queued, so AP churn costs only
  the unfinished chunk, and
* completion fires when every chunk has been delivered, however many links
  it took.

This is deliberately an *application-layer* striper (like Horde): it needs
no kernel or driver support beyond Spider's one-interface-per-AP design.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..sim.engine import Simulator
from ..sim.nic import VirtualInterface
from ..sim.traffic import ClientFlow
from ..sim.world import World

__all__ = ["StripedDownload", "ChunkState"]

logger = logging.getLogger(__name__)

_stripe_ids = itertools.count(1)


@dataclass
class ChunkState:
    """Bookkeeping for one chunk of the logical object."""

    index: int
    size: int
    completed: bool = False
    assigned_iface: Optional[int] = None
    attempts: int = 0


class StripedDownload:
    """One logical download striped over Spider's concurrent links."""

    def __init__(
        self,
        sim: Simulator,
        world: World,
        total_bytes: int,
        chunk_bytes: int = 256_000,
        on_complete: Optional[Callable[[float], None]] = None,
        on_bytes: Optional[Callable[[int], None]] = None,
    ):
        if total_bytes <= 0 or chunk_bytes <= 0:
            raise ValueError("total_bytes and chunk_bytes must be positive")
        self.sim = sim
        self.world = world
        self.total_bytes = total_bytes
        self.chunk_bytes = chunk_bytes
        self.on_complete = on_complete
        self.on_bytes = on_bytes
        self.stripe_id = next(_stripe_ids)
        self.started_at = sim.now
        self.completed_at: Optional[float] = None
        self.chunks: List[ChunkState] = []
        offset = 0
        index = 0
        while offset < total_bytes:
            size = min(chunk_bytes, total_bytes - offset)
            self.chunks.append(ChunkState(index=index, size=size))
            offset += size
            index += 1
        self._active_flows: Dict[int, ClientFlow] = {}  # iface.index -> flow
        self._active_chunk: Dict[int, ChunkState] = {}  # iface.index -> chunk
        self._idle_ifaces: Dict[int, VirtualInterface] = {}
        self.chunk_retries = 0

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether every chunk has been delivered."""
        return self.completed_at is not None

    @property
    def bytes_completed(self) -> int:
        """Bytes of the object delivered so far (completed chunks)."""
        return sum(c.size for c in self.chunks if c.completed)

    def progress(self) -> float:
        """Completed fraction of the object in [0, 1]."""
        return self.bytes_completed / self.total_bytes

    def elapsed_s(self) -> Optional[float]:
        """Seconds from start to completion, or None if unfinished."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    # ------------------------------------------------------------------
    # Link lifecycle (wire these to SpiderClient callbacks)
    # ------------------------------------------------------------------
    def attach_link(self, iface: VirtualInterface) -> None:
        """A verified link is available: start fetching on it."""
        if self.done or iface.index in self._active_flows:
            return
        self._idle_ifaces[iface.index] = iface
        self._dispatch(iface)

    def detach_link(self, iface: VirtualInterface) -> None:
        """The link died: re-queue its in-flight chunk."""
        self._idle_ifaces.pop(iface.index, None)
        flow = self._active_flows.pop(iface.index, None)
        if flow is not None:
            flow.close()
        chunk = self._active_chunk.pop(iface.index, None)
        if chunk is not None and not chunk.completed:
            chunk.assigned_iface = None
            self.chunk_retries += 1
            logger.debug(
                "stripe %d: chunk %d re-queued after link loss",
                self.stripe_id, chunk.index,
            )
            # Hand the orphaned chunk to any idle link immediately.
            for other in list(self._idle_ifaces.values()):
                if other.index not in self._active_flows:
                    self._dispatch(other)
                    break

    # ------------------------------------------------------------------
    def _next_chunk(self) -> Optional[ChunkState]:
        for chunk in self.chunks:
            if not chunk.completed and chunk.assigned_iface is None:
                return chunk
        return None

    def _dispatch(self, iface: VirtualInterface) -> None:
        if self.done or iface.index in self._active_flows:
            return
        if not iface.routable or iface.ip is None:
            return
        chunk = self._next_chunk()
        if chunk is None:
            return
        chunk.assigned_iface = iface.index
        chunk.attempts += 1

        def chunk_bytes_seen(n: int) -> None:
            if self.on_bytes is not None:
                self.on_bytes(n)

        flow = ClientFlow(
            self.sim,
            self.world,
            iface,
            on_bytes=chunk_bytes_seen,
            total_bytes=chunk.size,
        )
        self._active_flows[iface.index] = flow
        self._active_chunk[iface.index] = chunk
        # Chunk completion is the sender's completion (all bytes ACKed).
        flow.sender.on_complete = lambda: self._chunk_finished(iface, chunk)

    def _chunk_finished(self, iface: VirtualInterface, chunk: ChunkState) -> None:
        chunk.completed = True
        flow = self._active_flows.pop(iface.index, None)
        self._active_chunk.pop(iface.index, None)
        if flow is not None:
            flow.close()
        logger.debug(
            "stripe %d: chunk %d done via %s (%.0f%%)",
            self.stripe_id, chunk.index, iface.mac, 100 * self.progress(),
        )
        if all(c.completed for c in self.chunks):
            self.completed_at = self.sim.now
            for remaining in list(self._active_flows.values()):
                remaining.close()
            self._active_flows.clear()
            if self.on_complete is not None:
                self.on_complete(self.completed_at - self.started_at)
            return
        if iface.index in self._idle_ifaces:
            self._dispatch(iface)

    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Cancel outstanding work."""
        for flow in list(self._active_flows.values()):
            flow.close()
        self._active_flows.clear()
        self._active_chunk.clear()
