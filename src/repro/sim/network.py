"""Store-and-forward message delivery over a :class:`Topology`.

Delivery time of a message along a route is computed hop by hop:

    arrival(hop k) = max(arrival(hop k-1), link.busy_until)
                     + size / link.bandwidth + link.latency

i.e. each link serializes messages FIFO at its bandwidth and then adds
propagation latency.  The whole journey is computed when the message is
sent (no per-hop events), which keeps large simulations cheap while
still charging every traversed link its bytes — the quantity the
paper's bandwidth arguments are about.

Failure semantics:
- if no live route exists at send time, the message is dropped;
- lossy links drop the message with their loss probability;
- if the destination host is dead at delivery time, the message is
  dropped;
- an installed :class:`~repro.sim.faults.WireFaultModel` may corrupt,
  truncate, duplicate or reorder messages per link (``net.corrupted.*``
  metrics) — the wire is allowed to be hostile, not just lossy.

Higher layers that need reliability (the ORB, the cohesion protocol)
implement timeouts and retries on top, exactly as TCP/GIOP would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from repro.sim.kernel import Environment, Timeout
from repro.sim.rng import RngRegistry
from repro.sim.stats import MetricRegistry
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError

#: Fixed per-message header overhead (transport + GIOP-ish framing), bytes.
HEADER_BYTES = 64


@dataclass(slots=True)
class Message:
    """A unit of network transfer."""

    #: per-network sequence number (an int: nothing consumes message
    #: ids, so the hot path skips formatting an id string per message)
    msg_id: int
    src: str
    dst: str
    port: str           # logical service name on the destination host
    payload: Any
    size: int           # payload size in bytes (headers added by Network)
    sent_at: float = 0.0
    #: optional out-of-band metadata; None (not a fresh dict) by default
    #: so the hot send path skips an allocation per message.
    headers: Optional[dict[str, Any]] = None
    #: logical messages carried in this transfer (> 1 for a pipelined
    #: multi-frame transmission; the payload still travels as one unit).
    frames: int = 1


Handler = Callable[[Message], None]


class NetworkInterface:
    """A host's attachment point: named ports dispatch inbound messages."""

    def __init__(self, network: "Network", host_id: str) -> None:
        self.network = network
        self.host_id = host_id
        self._handlers: dict[str, Handler] = {}

    def bind(self, port: str, handler: Handler) -> None:
        """Register *handler* for messages addressed to *port*."""
        if port in self._handlers:
            raise ConfigurationError(
                f"port {port!r} already bound on host {self.host_id!r}"
            )
        self._handlers[port] = handler

    def unbind(self, port: str) -> None:
        self._handlers.pop(port, None)

    def send(self, dst: str, port: str, payload: Any, size: int) -> Message:
        """Fire-and-forget send; returns the Message (possibly dropped)."""
        return self.network.send(self.host_id, dst, port, payload, size)

    def _dispatch(self, msg: Message) -> None:
        handler = self._handlers.get(msg.port)
        if handler is None:
            self.network.metrics.counter("net.unrouted").inc()
            return
        handler(msg)


class Network:
    """Message fabric over a topology, driven by the sim environment."""

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        rngs: Optional[RngRegistry] = None,
        metrics: Optional[MetricRegistry] = None,
        wire_faults=None,
    ) -> None:
        self.env = env
        self.topology = topology
        self.rngs = rngs or RngRegistry(0)
        self.metrics = metrics or MetricRegistry()
        self._msg_seq = 0
        self._interfaces: dict[str, NetworkInterface] = {}
        self._loss_rng = self.rngs.stream("net.loss")
        # Hot-path metric handles, resolved once instead of per message.
        self._ctr_messages = self.metrics.counter("net.messages")
        self._ctr_logical = self.metrics.counter("net.logical")
        self._ctr_local = self.metrics.counter("net.local")
        self._ctr_bytes = self.metrics.counter("net.bytes")
        self._ctr_hops = self.metrics.counter("net.hops")
        self._ctr_delivered = self.metrics.counter("net.delivered")
        self._ctr_backbone = self.metrics.counter("net.bytes.backbone")
        self._link_bytes = self.metrics.labelled_family("net.link_bytes")
        #: id(link) -> (label, is_backbone), computed once per link.
        self._link_meta: dict[int, tuple[str, bool]] = {}
        #: host_id -> Host, memoized: hosts are never removed from a
        #: topology (liveness is a flag on the Host object itself), so
        #: the mapping is stable for the life of the network.
        self._host_memo: dict[str, Any] = {}
        #: optional :class:`~repro.sim.faults.WireFaultModel`: when set,
        #: messages may arrive corrupted, truncated, duplicated or
        #: reordered.  Assignable after construction as well.
        self.wire_faults = wire_faults

    def interface(self, host_id: str) -> NetworkInterface:
        """Return (creating if needed) the interface for *host_id*."""
        iface = self._interfaces.get(host_id)
        if iface is None:
            self.topology.host(host_id)  # validate
            iface = NetworkInterface(self, host_id)
            self._interfaces[host_id] = iface
        return iface

    # -- sending ---------------------------------------------------------
    def send(self, src: str, dst: str, port: str, payload: Any, size: int,
             frames: int = 1) -> Message:
        """Send *payload* of *size* bytes from *src* to *dst*:*port*.

        *frames* counts the logical messages the payload carries (1 for
        an ordinary send; the per-destination frame count for a
        pipelined multi-frame transmission, which is charged as *one*
        header and one link transfer — the coalescing saving).

        Always returns the Message object; whether it arrives depends on
        routes, loss and destination liveness.
        """
        if size < 0:
            raise ConfigurationError(f"negative message size {size}")
        env = self.env
        self._msg_seq += 1
        msg = Message(self._msg_seq, src, dst, port, payload,
                      int(size), env._now)
        if frames != 1:
            msg.frames = frames
        self._ctr_messages.value += 1
        self._ctr_logical.value += frames

        src_host = self._host_memo.get(src)
        if src_host is None:
            src_host = self._host_memo[src] = self.topology.host(src)
        if not src_host.alive:
            self.metrics.counter("net.dropped.src_dead").inc()
            return msg

        if src == dst:
            # Local delivery: loopback costs nothing on the wire.
            self._ctr_local.value += 1
            Timeout(env, 0.0, msg).callbacks.append(self._deliver)
            return msg

        if dst not in self.topology:
            # Destination addresses are data-plane payload (IORs travel
            # the wire and can arrive corrupted): an address naming no
            # real host is dropped like any unroutable packet, and the
            # sender's reply deadline deals with it — it must never
            # blow back into the sending process as a config error.
            self.metrics.counter("net.dropped.unknown_dst").inc()
            return msg

        links = self.topology.route_links(src, dst)
        if links is None:
            self.metrics.counter("net.dropped.unreachable").inc()
            return msg

        arrival = env._now
        total = msg.size + HEADER_BYTES
        link_meta = self._link_meta
        link_bytes = self._link_bytes
        for link in links:
            if not link.up:
                self.metrics.counter("net.dropped.link_down").inc()
                return msg
            cls = link.link_class
            if cls.loss > 0 and self._loss_rng.random() < cls.loss:
                # Charge the bytes up to and including the lossy link —
                # they were transmitted, then lost.
                self.metrics.counter("net.dropped.loss").inc()
                self._charge(link, total)
                return msg
            start = link.busy_until
            if arrival > start:
                start = arrival
            tx = total / cls.bandwidth
            link.busy_until = start + tx
            arrival = start + tx + cls.latency
            # _charge inlined: this runs once per link per message.
            meta = link_meta.get(id(link))
            if meta is None:
                meta = (f"{link.a}|{link.b}", cls.name != "lan")
                link_meta[id(link)] = meta
            label, backbone = meta
            link_bytes[label] = link_bytes.get(label, 0.0) + total
            if backbone:
                self._ctr_backbone.value += total

        self._ctr_bytes.value += total
        self._ctr_hops.value += len(links)
        base_delay = arrival - env._now
        if self.wire_faults is not None:
            for payload, extra in self.wire_faults.apply(msg.payload, links):
                delivery = msg if payload is msg.payload else replace(
                    msg, payload=payload)
                self._schedule_delivery(delivery, delay=base_delay + extra)
            return msg
        # The message rides as the timeout's value — no per-message
        # closure, and no _schedule_delivery frame on the common path.
        Timeout(env, base_delay, msg).callbacks.append(self._deliver)
        return msg

    def _charge(self, link, nbytes: int) -> None:
        meta = self._link_meta.get(id(link))
        if meta is None:
            meta = (f"{link.a}|{link.b}", link.link_class.name != "lan")
            self._link_meta[id(link)] = meta
        label, backbone = meta
        bucket = self._link_bytes
        bucket[label] = bucket.get(label, 0.0) + nbytes
        if backbone:
            self._ctr_backbone.value += nbytes

    def _schedule_delivery(self, msg: Message, delay: float) -> None:
        # The message rides as the timeout's value — no per-message
        # closure allocation on the hot path.
        Timeout(self.env, delay, msg).callbacks.append(self._deliver)

    def _deliver(self, ev) -> None:
        msg = ev._value
        host = self._host_memo.get(msg.dst)
        if host is None:
            host = self._host_memo[msg.dst] = self.topology.host(msg.dst)
        if not host.alive:
            self.metrics.counter("net.dropped.dst_dead").inc()
            return
        iface = self._interfaces.get(msg.dst)
        if iface is None:
            self.metrics.counter("net.unrouted").inc()
            return
        self._ctr_delivered.value += 1
        handler = iface._handlers.get(msg.port)
        if handler is None:
            self.metrics.counter("net.unrouted").inc()
            return
        handler(msg)

    # -- convenience -----------------------------------------------------
    def bytes_sent(self) -> float:
        return self.metrics.get("net.bytes")

    def messages_sent(self) -> float:
        return self.metrics.get("net.messages")
