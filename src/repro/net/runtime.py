"""The runtime adapter: unchanged protocol code over real sockets.

Two pieces make the simulator's process model run live:

* :class:`LiveNetwork` subclasses :class:`repro.sim.network.Network`.
  Locally attached nodes (normally just the one this network belongs to)
  are delivered through the parent's scheduling path; every other
  receiver is wrapped in a :class:`~repro.net.codec.WireEnvelope`,
  encoded, and handed to a :class:`~repro.net.transport.MeshTransport`.
  Inbound frames are decoded and re-enter through the parent's
  ``_deliver`` — so daemons, servers and clients run byte-for-byte the
  same code as in simulation, including ``send``/``multicast``/
  ``set_timer`` semantics and all accounting.
* :class:`LiveRuntime` paces a real :class:`~repro.sim.engine.Simulator`
  against the asyncio wall clock: ``run_until(elapsed)`` executes every
  due timer and delivery, then the pacer sleeps until the next protocol
  deadline (or an inbound frame wakes it).  Simulation time therefore
  *is* wall time, one second per second — protocol timeouts mean what
  they say, while every handler still executes inside the deterministic
  event loop with a consistent ``sim.now``.

Adversity on the live wire comes from :mod:`repro.net.faults`: wrapping
the transport in a :class:`~repro.net.faults.FaultyTransport` lets the
chaos engine partition, delay, drop, duplicate, and reorder real socket
traffic (DESIGN.md §13 — this retired the old §11 caveat that loopback
could not partition).

Ingress is two-phase for replayability: the socket callback only
*schedules* the frame (fixing its ``(time, seq)`` heap coordinates), and
recording into an :class:`~repro.net.replay.IngressLog`, decoding and
delivery all happen inside the event.  Since the arrival schedule is the
single wall-clock input to an otherwise deterministic event loop, a
recorded log replayed through ``Simulator.inject_at`` reproduces the
run bit-for-bit (see DESIGN.md §13).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.net.codec import (
    CodecError,
    WireEnvelope,
    decode_frame,
    encode_envelope_frame,
    encode_frame,
    encode_payload,
)
from repro.net.transport import MeshTransport
from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency
from repro.sim.network import Message, Network
from repro.sim.topology import NodeId, Topology
from repro.sim.trace import TraceLog

#: Callback invoked, from inside its event, for every ingress frame that
#: runs, with the frame's heap coordinates: ``(node, event_time,
#: event_seq, raw_frame)``.  The live chaos runner installs
#: :meth:`repro.net.replay.IngressLog.record` here.
IngressRecorder = Callable[[NodeId, float, int, bytes], None]


class LiveNetwork(Network):
    """A per-node :class:`Network` whose remote links are real sockets.

    Every node of a live deployment owns one ``LiveNetwork`` (all of them
    may share one :class:`Simulator` when colocated in a process): sends
    to locally attached nodes use the inherited simulated path with zero
    latency, sends to anyone else cross the transport as encoded frames.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: MeshTransport,
        trace: TraceLog | None = None,
        wake: Callable[[], None] | None = None,
        node_id: NodeId = "?",
        recorder: "IngressRecorder | None" = None,
    ) -> None:
        super().__init__(
            sim, Topology(), FixedLatency(0.0), trace=trace
        )
        self.transport = transport
        transport.on_frame = self._ingress
        self._wake = wake if wake is not None else lambda: None
        self.node_id = node_id
        self.recorder = recorder
        self.frames_rejected = 0
        #: actual encoded bytes per message kind, both directions — the
        #: calibration source for the abstract ``size`` estimates
        self.actual_bytes_sent: dict[str, int] = {}
        self.actual_bytes_received: dict[str, int] = {}
        # identity-keyed cache of recent payload encodings: a broadcast
        # constructs ONE message object and sends it to every peer, so the
        # payload is encoded once and only the envelope shell differs per
        # receiver.  Safe because wire messages are frozen and never
        # mutated after sending (the protocol convention the codec's
        # round-trip contract already relies on).
        self._encode_cache: list[tuple[Any, bytes]] = []
        self.encode_cache_hits = 0

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------
    def send(
        self,
        sender: NodeId,
        receiver: NodeId,
        payload: Any,
        kind: str = "msg",
        size: int = 1,
    ) -> Message:
        if receiver in self._handlers:
            return super().send(sender, receiver, payload, kind=kind, size=size)
        message = Message(
            sender=sender,
            receiver=receiver,
            payload=payload,
            kind=kind,
            size=size,
            send_time=self.sim.now,
            msg_id=next(self._msg_ids),
        )
        # mirror the parent's sender-side accounting so higher layers
        # (heartbeat piggybacking, E2 load metrics) see one coherent view
        self.total_sent += 1
        self._last_send[(sender, receiver)] = self.sim.now
        sent_stats = self._stats_sent[sender][kind]
        sent_stats.sent += 1
        sent_stats.bytes_sent += size
        frame = encode_envelope_frame(
            sender, receiver, kind, size, self._payload_bytes(payload)
        )
        self.actual_bytes_sent[kind] = self.actual_bytes_sent.get(kind, 0) + len(frame)
        self.transport.send(receiver, frame)
        return message

    def _payload_bytes(self, payload: Any) -> bytes:
        """Encode ``payload`` once per object: rebroadcasts hit the cache."""
        for cached, raw in self._encode_cache:
            if cached is payload:
                self.encode_cache_hits += 1
                return raw
        raw = encode_payload(payload)
        self._encode_cache.append((payload, raw))
        if len(self._encode_cache) > 8:
            self._encode_cache.pop(0)
        return raw

    def measure_frame(self, payload: Any) -> int:
        """Actual encoded byte size of ``payload`` on this wire.

        The framework's byte accounting calls this (when present) instead
        of trusting ``size_estimate``."""
        return len(encode_frame(payload))

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def _ingress(self, data: bytes) -> None:
        """One raw frame off the socket: schedule it, wake the pacer.

        This callback is the only place wall-clock timing enters the
        event loop, so it does the *minimum*: give the frame its heap
        coordinates and defer everything else — decoding, accounting,
        delivery — into the scheduled event, where replay can reproduce
        it exactly.  The recorder is called from inside that event, with
        the coordinates assigned here, so the log holds only frames that
        actually ran: one landing after the pacer's last slice (while
        the run shuts down) is never logged, just as it never executes.
        """
        recorder = self.recorder
        if recorder is None:
            self.sim.schedule(0.0, lambda: self._ingest(data), label="live:frame")
        else:

            def run() -> None:
                recorder(self.node_id, event.time, event.seq, data)
                self._ingest(data)

            event = self.sim.schedule(0.0, run, label="live:frame")
        self._wake()

    def _ingest(self, data: bytes) -> None:
        """Decode and deliver one raw frame (runs inside the event loop,
        so handlers always see a consistent ``sim.now``; the unknown
        remote sender is "connected" by the topology's default-component
        rule)."""
        try:
            envelope = decode_frame(data)
        except CodecError:
            self.frames_rejected += 1
            self.trace.record(self.sim.now, "net", "live.frame_rejected", bytes=len(data))
            return
        if not isinstance(envelope, WireEnvelope):
            self.frames_rejected += 1
            self.trace.record(
                self.sim.now,
                "net",
                "live.frame_rejected",
                type=type(envelope).__name__,
            )
            return
        kind = envelope.kind
        self.actual_bytes_received[kind] = self.actual_bytes_received.get(
            kind, 0
        ) + len(data)
        message = Message(
            sender=envelope.sender,
            receiver=envelope.receiver,
            payload=envelope.payload,
            kind=kind,
            size=envelope.size,
            send_time=self.sim.now,
            msg_id=next(self._msg_ids),
        )
        self._deliver(message)


class LiveRuntime:
    """Paces one :class:`Simulator` against the asyncio wall clock.

    ``io_slice`` bounds how much sim time one synchronous ``run_until``
    may replay before yielding to the event loop.  Without the bound, a
    stall (GC pause, scheduler hiccup) is replayed in one blocking call:
    failure-detector timers inside the stalled window fire while the
    peers' heartbeats from that same window still sit unread in kernel
    socket buffers — every node suspects every peer at once and the
    cluster fragments into singleton views for no reason.  Slicing the
    catch-up lets inbound frames land between slices, so liveness
    evidence is ingested before the suspicion deadlines it refutes.
    """

    def __init__(
        self, sim: Simulator, max_tick: float = 0.05, io_slice: float = 0.01
    ) -> None:
        self.sim = sim
        self.max_tick = max_tick
        self.io_slice = io_slice
        self._wake = asyncio.Event()
        self._stopped = False

    def wake(self) -> None:
        """Interrupt the pacer's sleep (an inbound frame was scheduled)."""
        self._wake.set()

    def stop(self) -> None:
        self._stopped = True
        self._wake.set()

    async def run(self, duration: float) -> None:
        """Advance the simulator in lock-step with the wall clock for
        ``duration`` seconds (of both)."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        origin = self.sim.now
        end = origin + duration
        while not self._stopped:
            target = min(origin + (loop.time() - started), end)
            while target > self.sim.now and not self._stopped:
                self.sim.run_until(min(self.sim.now + self.io_slice, target))
                if self.sim.now >= target:
                    break
                # catching up a long gap: drain inbound frames between
                # slices so heartbeats refute suspicions in time order
                await asyncio.sleep(0)
                target = min(origin + (loop.time() - started), end)
            if self.sim.now >= end:
                break
            upcoming = self.sim.next_event_time()
            behind = origin + (loop.time() - started)
            if upcoming is None:
                delay = self.max_tick
            else:
                delay = min(max(upcoming - behind, 0.0), self.max_tick)
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=delay)
            except (TimeoutError, asyncio.TimeoutError):
                pass


__all__ = ["IngressRecorder", "LiveNetwork", "LiveRuntime"]
