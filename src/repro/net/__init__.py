"""Live runtime: the framework's protocol stack over real asyncio sockets.

The simulator and the live runtime share every protocol module byte for
byte — ``repro.net`` only supplies what a real deployment needs below
them:

* :mod:`repro.net.codec` — a self-describing binary codec for every
  frozen wire dataclass (length-prefixed framing, version byte, strict
  rejection of unknown types and truncated frames);
* :mod:`repro.net.transport` — a TCP mesh between daemons plus a UDP
  loopback mode, with per-peer bounded queues, capped-backoff reconnect
  and oldest-drop backpressure counters;
* :mod:`repro.net.runtime` — a :class:`~repro.sim.network.Network`
  subclass that routes remote traffic through a transport and a pacer
  that runs the deterministic simulator against the wall clock, so
  ``send``/``multicast``/``set_timer`` keep their exact sim semantics;
* :mod:`repro.net.cluster` — the live builder (the framework's one
  cluster type over per-node live networks; used by ``repro cluster``,
  ``repro serve``, live chaos and replay) and the scripted VoD workload
  ``python -m repro cluster`` drives (kill/restart mid-run,
  session-audit report);
* :mod:`repro.net.faults` — a fault-injecting transport wrapper
  (sever/delay/duplicate/reorder real links, WAN latency profiles, a
  JSON-lines runtime control channel) that gives live clusters the same
  fault vocabulary as the simulated topology;
* :mod:`repro.net.replay` — the ingress frame log and null transport
  that make a recorded live run bit-reproducible in pure simulation.
"""

from repro.net.codec import (
    CodecError,
    FrameDecoder,
    TruncatedFrameError,
    UnknownTypeError,
    WireEnvelope,
    decode_frame,
    encode_frame,
    frame_size,
    registered_types,
)
from repro.net.faults import (
    WAN_PROFILES,
    FaultControlServer,
    FaultPlane,
    FaultyTransport,
    WanProfile,
    wan_profile,
)
from repro.net.replay import IngressLog, IngressRecord, ReplayTransport
from repro.net.runtime import LiveNetwork, LiveRuntime

__all__ = [
    "CodecError",
    "FaultControlServer",
    "FaultPlane",
    "FaultyTransport",
    "FrameDecoder",
    "IngressLog",
    "IngressRecord",
    "LiveNetwork",
    "LiveRuntime",
    "ReplayTransport",
    "WAN_PROFILES",
    "WanProfile",
    "wan_profile",
    "TruncatedFrameError",
    "UnknownTypeError",
    "WireEnvelope",
    "decode_frame",
    "encode_frame",
    "frame_size",
    "registered_types",
]
