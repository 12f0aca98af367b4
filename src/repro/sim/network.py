"""Simulated message-passing network.

Semantics, chosen to match what the paper's GCS assumes of its transport:

* **FIFO per ordered pair** — delivery time is forced to be monotone per
  ``(sender, receiver)`` even when the latency model draws out of order.
* **Reliable while connected** — a message is delivered iff the topology
  permits ``sender -> receiver`` *both* when it is sent and when it would
  arrive, and the receiving process is up on arrival.  Messages in flight
  across a partition onset are therefore lost, exactly the window in which
  the GCS's view-change flush has to reconcile state.
* **No duplication, no corruption** — losses only, per the above.

The chaos engine (:mod:`repro.chaos`) can deliberately weaken the last two
guarantees through :meth:`Network.set_duplication` (a message may be
delivered twice) and :meth:`Network.set_reordering` (a message may bypass
the per-pair FIFO clamp with a bounded extra delay), and can inflate
individual links via :meth:`Network.set_link_delay` — the gray-failure
vocabulary Section 4's risk analysis worries about but hand-written fault
schedules could not express.  All adversity draws come from a dedicated
seeded ``chaos_rng`` stream, so a chaotic run stays bit-reproducible.

The network also keeps per-node send/receive accounting by message *kind*,
which experiment E2 (server load vs. configuration parameters) reads, and
per-*reason* drop counters (``random-loss``, ``disconnected-in-flight``,
``receiver-down``, ...) so chaos runs and tests can assert why messages
died rather than only how many.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:
    import numpy as np

from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency, LatencyModel
from repro.sim.topology import NodeId, Topology
from repro.sim.trace import TraceLog


@dataclass(frozen=True, slots=True)
class Message:
    """One network message.

    ``kind`` is a short string used for accounting and tracing (for example
    ``"heartbeat"``, ``"sequenced"``, ``"response"``); ``size`` is an
    abstract byte count used by the load metrics.  Slotted: the network
    allocates one of these per send, making it one of the hottest
    allocation sites in the simulator.
    """

    sender: NodeId
    receiver: NodeId
    payload: Any
    kind: str
    size: int
    send_time: float
    msg_id: int


@dataclass(slots=True)
class LinkStats:
    sent: int = 0
    received: int = 0
    dropped: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    dropped_by_reason: dict[str, int] = field(default_factory=dict)

    def record_drop(self, reason: str) -> None:
        self.dropped += 1
        self.dropped_by_reason[reason] = self.dropped_by_reason.get(reason, 0) + 1


class Network:
    """Connects :class:`~repro.sim.process.Process` instances through the
    simulator.

    Processes register themselves via :meth:`attach`; messages are scheduled
    as simulator events with a latency drawn from ``latency_model``.
    """

    __slots__ = (
        "sim",
        "topology",
        "latency_model",
        "trace",
        "loss_probability",
        "_loss_rng",
        "_chaos_rng",
        "duplicate_probability",
        "reorder_probability",
        "reorder_window",
        "_link_extra_delay",
        "total_duplicated",
        "total_reordered",
        "_handlers",
        "_is_up",
        "_msg_ids",
        "_last_delivery",
        "_last_send",
        "_stats_sent",
        "_stats_received",
        "total_sent",
        "total_delivered",
        "total_dropped",
        "dropped_by_reason",
    )

    def __init__(
        self,
        sim: Simulator,
        topology: Topology | None = None,
        latency_model: LatencyModel | None = None,
        trace: TraceLog | None = None,
        loss_probability: float = 0.0,
        loss_rng: np.random.Generator | None = None,
        chaos_rng: np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if loss_probability > 0.0 and loss_rng is None:
            raise ValueError("a seeded loss_rng is required when losses are on")
        self.sim = sim
        self.topology = topology if topology is not None else Topology()
        self.latency_model = latency_model or FixedLatency(0.001)
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.loss_probability = loss_probability
        self._loss_rng = loss_rng
        # chaos adversity (all off by default; see repro.chaos)
        self._chaos_rng = chaos_rng
        self.duplicate_probability = 0.0
        self.reorder_probability = 0.0
        self.reorder_window = 0.0
        self._link_extra_delay: dict[tuple[NodeId, NodeId], float] = {}
        self.total_duplicated = 0
        self.total_reordered = 0
        self._handlers: dict[NodeId, Callable[[Message], None]] = {}
        self._is_up: dict[NodeId, Callable[[], bool]] = {}
        self._msg_ids = itertools.count()
        self._last_delivery: dict[tuple[NodeId, NodeId], float] = {}
        self._last_send: dict[tuple[NodeId, NodeId], float] = {}
        self._stats_sent: dict[NodeId, dict[str, LinkStats]] = defaultdict(
            lambda: defaultdict(LinkStats)
        )
        self._stats_received: dict[NodeId, dict[str, LinkStats]] = defaultdict(
            lambda: defaultdict(LinkStats)
        )
        self.total_sent = 0
        self.total_delivered = 0
        self.total_dropped = 0
        self.dropped_by_reason: dict[str, int] = {}

    # ------------------------------------------------------------------
    # chaos adversity controls (all deterministic given chaos_rng's seed)
    # ------------------------------------------------------------------
    def _require_chaos_rng(self) -> None:
        if self._chaos_rng is None:
            raise ValueError(
                "a seeded chaos_rng is required for duplication/reordering"
            )

    def set_duplication(self, probability: float) -> None:
        """Deliver each unicast twice with the given probability (the
        second copy lands shortly after the first, FIFO-exempt)."""
        if not 0.0 <= probability < 1.0:
            raise ValueError("duplicate probability must be in [0, 1)")
        if probability > 0.0:
            self._require_chaos_rng()
        self.duplicate_probability = probability

    def set_reordering(self, probability: float, window: float = 0.05) -> None:
        """With the given probability, delay a message by up to ``window``
        extra seconds *and* exempt it from the per-pair FIFO clamp, so it
        can arrive after messages sent later on the same link."""
        if not 0.0 <= probability < 1.0:
            raise ValueError("reorder probability must be in [0, 1)")
        if window < 0.0:
            raise ValueError("reorder window must be >= 0")
        if probability > 0.0:
            self._require_chaos_rng()
        self.reorder_probability = probability
        self.reorder_window = window

    def set_link_delay(
        self, a: NodeId, b: NodeId, extra: float, symmetric: bool = True
    ) -> None:
        """Add ``extra`` seconds of one-way delay to the ``a -> b`` link
        (a transient congestion spike; pass ``extra=0`` via
        :meth:`clear_link_delay` to lift it)."""
        if extra < 0.0:
            raise ValueError("extra link delay must be >= 0")
        self._link_extra_delay[(a, b)] = extra
        if symmetric:
            self._link_extra_delay[(b, a)] = extra

    def clear_link_delay(self, a: NodeId, b: NodeId, symmetric: bool = True) -> None:
        self._link_extra_delay.pop((a, b), None)
        if symmetric:
            self._link_extra_delay.pop((b, a), None)

    def clear_adversity(self) -> None:
        """Lift every chaos-induced weakening (delay, duplication,
        reordering); connectivity is left as it is."""
        self.duplicate_probability = 0.0
        self.reorder_probability = 0.0
        self.reorder_window = 0.0
        self._link_extra_delay.clear()

    # ------------------------------------------------------------------
    # connectivity faults: the rest of the fault-verb surface
    # (repro.faults.injector), shared with the live FaultPlane
    # ------------------------------------------------------------------
    def partition(self, *components: Iterable[NodeId]) -> None:
        self.topology.partition(*components)

    def heal_partition(self) -> None:
        self.topology.heal_partition()

    def cut_link(self, a: NodeId, b: NodeId, symmetric: bool = True) -> None:
        self.topology.cut_link(a, b, symmetric=symmetric)

    def restore_link(self, a: NodeId, b: NodeId, symmetric: bool = True) -> None:
        self.topology.restore_link(a, b, symmetric=symmetric)

    def clear_all(self) -> None:
        """Lift every fault: adversity, partitions and link cuts."""
        self.clear_adversity()
        self.topology.heal_partition()
        self.topology.restore_all_links()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def attach(
        self,
        node: NodeId,
        handler: Callable[[Message], None],
        is_up: Callable[[], bool],
    ) -> None:
        """Register a node's delivery handler and liveness predicate."""
        self._handlers[node] = handler
        self._is_up[node] = is_up
        self.topology.add_node(node)

    def detach(self, node: NodeId) -> None:
        self._handlers.pop(node, None)
        self._is_up.pop(node, None)
        self.topology.remove_node(node)

    @property
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(self._handlers)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(
        self,
        sender: NodeId,
        receiver: NodeId,
        payload: Any,
        kind: str = "msg",
        size: int = 1,
    ) -> Message:
        """Send one message; returns the :class:`Message` envelope.

        Drops (with accounting) if the topology forbids the send right now.
        Delivery is still conditional on connectivity and receiver liveness
        at arrival time.
        """
        message = Message(
            sender=sender,
            receiver=receiver,
            payload=payload,
            kind=kind,
            size=size,
            send_time=self.sim.now,
            msg_id=next(self._msg_ids),
        )
        self.total_sent += 1
        self._last_send[(sender, receiver)] = self.sim.now
        sent_stats = self._stats_sent[sender][kind]
        sent_stats.sent += 1
        sent_stats.bytes_sent += size

        if not self.topology.connected(sender, receiver):
            self._drop(message, reason="disconnected-at-send")
            return message
        if (
            self.loss_probability > 0.0
            and sender != receiver
            and self._loss_rng.random() < self.loss_probability
        ):
            self._drop(message, reason="random-loss")
            return message

        latency = self.latency_model.sample(sender, receiver)
        latency += self._link_extra_delay.get((sender, receiver), 0.0)
        arrival = self.sim.now + latency
        reordered = (
            self.reorder_probability > 0.0
            and sender != receiver
            and self._chaos_rng.random() < self.reorder_probability
        )
        key = (sender, receiver)
        if reordered:
            # FIFO-exempt: an extra bounded delay without advancing the
            # pair's monotone clamp, so later sends can overtake this one.
            arrival += float(self._chaos_rng.uniform(0.0, self.reorder_window))
            self.total_reordered += 1
        else:
            # Enforce FIFO per ordered pair.
            previous = self._last_delivery.get(key, -1.0)
            if arrival <= previous:
                arrival = previous + 1e-9
            self._last_delivery[key] = arrival
        self.sim.schedule_at(
            arrival, lambda: self._deliver(message), label=f"deliver:{kind}"
        )
        if (
            self.duplicate_probability > 0.0
            and sender != receiver
            and self._chaos_rng.random() < self.duplicate_probability
        ):
            # the duplicate trails the original and skips the FIFO clamp
            echo = arrival + float(self._chaos_rng.uniform(0.0, 0.002))
            self.total_duplicated += 1
            self.sim.schedule_at(
                echo, lambda: self._deliver(message), label=f"deliver-dup:{kind}"
            )
        return message

    def multicast(
        self,
        sender: NodeId,
        receivers: list[NodeId],
        payload: Any,
        kind: str = "msg",
        size: int = 1,
        include_self: bool = True,
    ) -> None:
        """Send ``payload`` point-to-point to each receiver (no IP multicast
        is assumed; the GCS builds its guarantees above this)."""
        for receiver in receivers:
            if receiver == sender and not include_self:
                continue
            self.send(sender, receiver, payload, kind=kind, size=size)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _deliver(self, message: Message) -> None:
        receiver = message.receiver
        if not self.topology.connected(message.sender, receiver):
            self._drop(message, reason="disconnected-in-flight")
            return
        is_up = self._is_up.get(receiver)
        handler = self._handlers.get(receiver)
        if handler is None or is_up is None or not is_up():
            self._drop(message, reason="receiver-down")
            return
        self.total_delivered += 1
        stats = self._stats_received[receiver][message.kind]
        stats.received += 1
        stats.bytes_received += message.size
        self.trace.record(
            self.sim.now,
            receiver,
            "net.deliver",
            sender=message.sender,
            kind=message.kind,
        )
        handler(message)

    def _drop(self, message: Message, reason: str) -> None:
        self.total_dropped += 1
        self.dropped_by_reason[reason] = self.dropped_by_reason.get(reason, 0) + 1
        self._stats_sent[message.sender][message.kind].record_drop(reason)
        self.trace.record(
            self.sim.now,
            message.sender,
            "net.drop",
            receiver=message.receiver,
            kind=message.kind,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # accounting (read by experiment E2)
    # ------------------------------------------------------------------
    def dropped_count(
        self, reason: str | None = None, node: NodeId | None = None
    ) -> int:
        """Messages dropped, optionally filtered by drop reason and/or by
        the sending node (chaos oracles assert *why* messages died)."""
        if node is None:
            if reason is None:
                return self.total_dropped
            return self.dropped_by_reason.get(reason, 0)
        stats = self._stats_sent.get(node, {})
        if reason is None:
            return sum(s.dropped for s in stats.values())
        return sum(s.dropped_by_reason.get(reason, 0) for s in stats.values())

    def drop_reasons(self) -> dict[str, int]:
        """All drop reasons seen so far with their counts."""
        return dict(self.dropped_by_reason)

    def sent_count(self, node: NodeId, kind: str | None = None) -> int:
        stats = self._stats_sent.get(node, {})
        if kind is not None:
            return stats[kind].sent if kind in stats else 0
        return sum(s.sent for s in stats.values())

    def received_count(self, node: NodeId, kind: str | None = None) -> int:
        stats = self._stats_received.get(node, {})
        if kind is not None:
            return stats[kind].received if kind in stats else 0
        return sum(s.received for s in stats.values())

    def sent_kind_stats(self, node: NodeId) -> dict[str, tuple[int, int]]:
        """Per-kind ``(frames, abstract_bytes)`` sent by ``node`` — the
        source for the liveness-vs-data traffic split in stats reports
        and the membership bench."""
        return {
            kind: (stats.sent, stats.bytes_sent)
            for kind, stats in self._stats_sent.get(node, {}).items()
        }

    def received_bytes(self, node: NodeId, kind: str | None = None) -> int:
        stats = self._stats_received.get(node, {})
        if kind is not None:
            return stats[kind].bytes_received if kind in stats else 0
        return sum(s.bytes_received for s in stats.values())

    def last_sent_at(self, sender: NodeId, receiver: NodeId) -> float:
        """Simulation time of ``sender``'s most recent send to ``receiver``
        (``-inf`` if it never sent one).  This is transport-level metadata:
        the GCS heartbeat layer uses it to suppress an explicit heartbeat
        to a peer that recent protocol traffic already covers."""
        return self._last_send.get((sender, receiver), float("-inf"))

    def kinds_received(self, node: NodeId) -> dict[str, int]:
        """Per-kind received message counts for ``node``."""
        return {
            kind: stats.received
            for kind, stats in self._stats_received.get(node, {}).items()
        }

    def reset_stats(self) -> None:
        """Zero the accounting (used to exclude warm-up from measurements)."""
        self._stats_sent.clear()
        self._stats_received.clear()
        self.total_sent = 0
        self.total_delivered = 0
        self.total_dropped = 0
        self.dropped_by_reason.clear()
        self.total_duplicated = 0
        self.total_reordered = 0


__all__ = ["LinkStats", "Message", "Network"]
