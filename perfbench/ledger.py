"""The per-layer cost ledger: which wrappers a traced run installs, and
how their spans and the program's own counters become layer metrics.

:data:`LAYERS` is the declared map from each layer's metrics to the
end-to-end metric and workload it should move; the traced report prints
every measured value next to that declaration.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

import repro.chaos.runner as chaos_runner
import repro.net.runtime as net_runtime
from repro.core.client import ServiceClient
from repro.core.context import BackupContext, PrimaryContext
from repro.core.server import FrameworkServer
from repro.core.wire import ContextUpdate, ResponseMsg
from repro.gcs.client_api import GcsClient
from repro.gcs.daemon import GcsDaemon
from repro.gcs.failure_detector import FailureDetector
from repro.gcs.messages import Propose, SyncReply
from repro.metrics.collectors import is_liveness_kind
from repro.net.runtime import LiveRuntime
from repro.net.transport import UdpLoopbackTransport
from repro.sim.engine import Simulator

from measure import percentile
from tracing import Tracer

# ----------------------------------------------------------------------
# the declared ledger
# ----------------------------------------------------------------------
#: (layer, [(metric, unit)], what it should move)
LAYERS: list[tuple[str, list[tuple[str, str]], str]] = [
    (
        "net.codec",
        [
            ("codec.encode_calls", "count"),
            ("codec.encode_ms", "ms"),
            ("codec.encode_bytes", "B"),
            ("codec.decode_calls", "count"),
            ("codec.decode_ms", "ms"),
            ("codec.cache_hit_ratio", "ratio"),
        ],
        "cpu_ms_per_req, capacity_qps on search_open; takeover_ms_p50 on "
        "vod_failover (SyncReply/StateExchange encodes); zero on sim_sweep",
    ),
    (
        "net.transport",
        [
            ("transport.frames_sent", "count"),
            ("transport.writes", "count"),
            ("transport.frames_per_write", "ratio"),
            ("transport.bytes_sent", "B"),
            ("transport.drops", "count"),
            ("transport.send_ms", "ms"),
        ],
        "frame_gap_ms_p99, cpu_ms_per_req on vod_failover; zero on sim_sweep",
    ),
    (
        "net.runtime (pacer)",
        [
            ("pacer.lag_ms_p99", "ms"),
            ("pacer.busy_share", "ratio"),
            ("pacer.slices", "count"),
        ],
        "busy_share predicts the knee: reply_ms_p99, capacity_qps on "
        "search_open, frame_gap_ms_p99 on vod_failover; zero on sim_sweep",
    ),
    (
        "sim.engine",
        [
            ("engine.events", "count"),
            ("engine.events_per_s", "1/s"),
            ("engine.pending_max", "count"),
            ("engine.run_until_ms", "ms"),
        ],
        "sim_s_per_wall_s on sim_sweep; a small share of cpu_ms_per_req live",
    ),
    (
        "sim.network",
        [
            *[(f"network.msgs_per_req.{k}", "count") for k in ("ordering", "liveness", "membership", "ptp")],
            *[(f"network.bytes_per_req.{k}", "B") for k in ("ordering", "liveness", "membership", "ptp")],
            ("network.drops", "count"),
        ],
        "cpu_ms_per_req on search_open, sim_s_per_wall_s on sim_sweep",
    ),
    (
        "gcs.ordering / gcs.daemon",
        [
            ("gcs.order_ms_p50", "ms"),
            ("gcs.order_ms_p99", "ms"),
            ("gcs.batch_size_mean", "count"),
            ("gcs.client_retries", "count"),
        ],
        "reply_ms_p50 on search_open; little work on vod_failover",
    ),
    (
        "gcs.membership / gcs.failure_detector",
        [
            ("membership.attempts", "count"),
            ("membership.installs", "count"),
            ("membership.install_ratio", "ratio"),
            ("membership.sync_reply_bytes", "B"),
            ("membership.view_change_ms", "ms"),
            ("membership.suspicions_of_live", "count"),
        ],
        "takeover_ms_p50 on vod_failover; capacity_qps/failed_share at the "
        "upper rungs of search_open (thrash sets the cliff); ~0 at the "
        "search_open base rate",
    ),
    (
        "core.server",
        [
            ("server.group_msg_ms", "ms"),
            ("server.propagations_full", "count"),
            ("server.propagations_delta", "count"),
            ("server.propagation_bytes", "B"),
            ("server.responses_sent", "count"),
            ("server.handoffs", "count"),
            ("server.state_exchanges", "count"),
        ],
        "cpu_ms_per_req on both live workloads, takeover_ms_p50",
    ),
    (
        "core.context",
        [
            ("context.snapshot_ms", "ms"),
            ("context.delta_ms", "ms"),
            ("context.effective_ms", "ms"),
        ],
        "takeover_ms_p50 on vod_failover",
    ),
    (
        "services (application)",
        [
            ("app.apply_ms", "ms"),
            ("app.respond_ms", "ms"),
            ("app.next_responses_ms", "ms"),
        ],
        "the control: framework-only changes leave it flat",
    ),
    (
        "core.client",
        [
            ("client.replies", "count"),
            ("client.sends_failed", "count"),
            ("client.unacked_end", "count"),
        ],
        "feeds failed_share",
    ),
    (
        "chaos.runner / sim.trace",
        [
            ("chaos.digest_ms", "ms"),
            ("chaos.oracle_ms", "ms"),
            ("trace.records", "count"),
        ],
        "sim_s_per_wall_s, peak_rss_mb on sim_sweep; zero live",
    ),
    (
        "request stages",
        [
            ("stage.generator_ms_p50", "ms"),
            ("stage.order_ms_p50", "ms"),
            ("stage.apply_ms_p50", "ms"),
            ("stage.return_ms_p50", "ms"),
        ],
        "decompose reply_ms_p50: generator lag, client send -> primary "
        "delivery, delivery -> reply sent, reply sent -> client handled",
    ),
    (
        "tracing itself",
        [
            ("trace.coverage", "ratio"),
            ("trace.cpu_ms_per_req", "ms"),
            ("trace.sim_s_per_wall_s", "s/s"),
        ],
        "overhead = traced minus untraced cpu_ms_per_req / sim_s_per_wall_s; "
        "coverage = share of engine busy time inside child spans",
    ),
]

UNITS = {name: unit for _, metrics, _ in LAYERS for name, unit in metrics}

#: ledger metrics that read zero by construction on a workload declared
#: in BENCHMARK.json (no takeover in search_open; the chaos runner only
#: runs in sim_sweep); the ledger prints them but BENCHMARK.json, whose
#: per-run metrics must be real measurements, does not declare them
UNDECLARED = (
    "context.effective_ms",
    "app.next_responses_ms",
    "chaos.digest_ms",
    "chaos.oracle_ms",
    "trace.records",
)
DECLARED = [name for name in UNITS if name not in UNDECLARED]

KIND_CLASSES = ("ordering", "liveness", "membership", "ptp")
_MEMBERSHIP_KINDS = frozenset(
    {"gcs.propose", "gcs.install", "gcs.nack", "gcs.sync", "gcs.resync"}
)


def kind_class(kind: str) -> str:
    if is_liveness_kind(kind):
        return "liveness"
    if kind in _MEMBERSHIP_KINDS:
        return "membership"
    if kind == "gcs.ptp":
        return "ptp"
    return "ordering"


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _p(values: list[float], pct: float) -> float:
    return percentile(values, pct) if values else 0.0


# ----------------------------------------------------------------------
# counters read from the program's public state
# ----------------------------------------------------------------------
def cluster_counters(
    networks: list[tuple[Any, list[Any]]],
    servers: Iterable[FrameworkServer],
    clients: Iterable[ServiceClient],
    sim: Simulator,
    transports: Iterable[Any] = (),
    live: bool = False,
) -> dict[str, float]:
    """Flat snapshot of every counter the ledger differences.

    ``networks`` pairs each network with the nodes whose sends it
    accounts (one node per :class:`LiveNetwork`, every node of a
    simulated cluster).  Live byte counts are real encoded bytes; the
    simulator's are its calibrated size estimates."""
    out: dict[str, float] = {"engine.events": sim.executed_events}
    for cls in KIND_CLASSES:
        out[f"msgs.{cls}"] = 0
        out[f"bytes.{cls}"] = 0
    out["network.drops"] = 0
    out["codec.cache_hits"] = 0
    for network, nodes in networks:
        for node in nodes:
            for kind, (frames, abstract) in network.sent_kind_stats(node).items():
                out[f"msgs.{kind_class(kind)}"] += frames
                if not live:
                    out[f"bytes.{kind_class(kind)}"] += abstract
        if live:
            for kind, size in network.actual_bytes_sent.items():
                out[f"bytes.{kind_class(kind)}"] += size
            out["codec.cache_hits"] += network.encode_cache_hits
        out["network.drops"] += network.total_dropped
    for transport in transports:
        stats = transport.stats
        out["transport.frames_sent"] = out.get("transport.frames_sent", 0) + stats.frames_sent
        out["transport.writes"] = out.get("transport.writes", 0) + stats.writes
        out["transport.bytes_sent"] = out.get("transport.bytes_sent", 0) + stats.bytes_sent
        out["transport.drops"] = out.get("transport.drops", 0) + (
            stats.dropped_oldest + stats.dropped_oversize + stats.dropped_unroutable
        )
    for server in servers:
        counters = server.counters
        for key, name in (
            ("propagations_full", "server.propagations_full"),
            ("propagations_delta", "server.propagations_delta"),
            ("propagation_bytes_sent", "server.propagation_bytes"),
            ("responses_sent", "server.responses_sent"),
            ("handoffs_sent", "server.handoffs"),
            ("exchanges_started", "server.state_exchanges"),
        ):
            out[name] = out.get(name, 0) + counters.get(key, 0)
    for client in clients:
        handles = client.sessions.values()
        out["client.replies"] = out.get("client.replies", 0) + sum(
            len(h.received) for h in handles
        )
        out["client.sends_failed"] = out.get("client.sends_failed", 0) + sum(
            h.failed_sends for h in handles
        )
        out["client.unacked_end"] = out.get("client.unacked_end", 0) + client.gcs.unacked_count
        out["client.mcast_frames"] = out.get("client.mcast_frames", 0) + dict(
            client.gcs.network.sent_kind_stats(client.client_id)
        ).get("gcs.client_mcast", (0, 0))[0]
    return out


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    keys = set(after) | set(before)
    return {k: after.get(k, 0) - before.get(k, 0) for k in keys}


def add(total: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value


# ----------------------------------------------------------------------
# the traced run's probes
# ----------------------------------------------------------------------
class Ledger:
    """Installs the layer wrappers and turns their spans into metrics.

    ``live`` selects the clock request stages are timed on: the wall
    clock on a live cluster, the simulator's clock in a sweep (where
    wall time between two events means nothing)."""

    def __init__(self, live: bool) -> None:
        self.live = live
        self.tracer = Tracer()
        self.epoch = 0  # distinguishes request ids of successive sim runs
        self.in_pacer = 0
        self.pacer_busy = 0.0
        self.pending_max = 0
        self.nodes: dict[Any, Any] = {}
        self.mcast_calls = 0
        self.batch_sizes: list[int] = []
        self.attempts: set[tuple] = set()
        self.installs: set[tuple] = set()
        self.view_changes: list[float] = []
        self._attempt_since: float | None = None
        self.sync_reply_bytes = 0
        self._sync_before = 0
        self.suspicions_of_live = 0
        # request stage timestamps, keyed (epoch, session_id, counter)
        self.sent: dict[tuple, float] = {}
        self.ordered: dict[tuple, float] = {}
        self.replied: dict[tuple, float] = {}
        self.handled: dict[tuple, float] = {}
        self.intended: dict[tuple, float] = {}

    def now(self, process: Any) -> float:
        return time.perf_counter() if self.live else process.sim.now

    # ------------------------------------------------------------------
    def install(self, app_class: type) -> None:
        t = self.tracer
        ledger = self

        def encoded(result: bytes, *_args: Any) -> None:
            t.counts["codec.encode_bytes"] += len(result)

        def payload_encoded(result: bytes, *_args: Any) -> None:
            t.counts["codec.payload_encodes"] += 1
            t.counts["codec.encode_bytes"] += len(result)

        # codec: wrapped where the live network binds the names
        t.wrap(net_runtime, "encode_payload", "codec.encode", on_result=payload_encoded)
        t.wrap(net_runtime, "encode_envelope_frame", "codec.encode", on_result=encoded)
        t.wrap(net_runtime, "encode_frame", "codec.encode", on_result=encoded)
        t.wrap(net_runtime, "decode_frame", "codec.decode")
        # transport: enqueue (coalescing) and the datagram write itself
        t.wrap(UdpLoopbackTransport, "send", "transport.send")
        t.wrap(UdpLoopbackTransport, "_flush", "transport.send")

        # pacer and engine: every run_until is an engine slice; those the
        # pacer drives are also pacer slices
        original_run = LiveRuntime.__dict__["run"]

        async def paced(runtime: LiveRuntime, duration: float) -> None:
            ledger.in_pacer += 1
            try:
                await original_run(runtime, duration)
            finally:
                ledger.in_pacer -= 1

        t.replace(LiveRuntime, "run", paced)
        original_run_until = Simulator.__dict__["run_until"]

        def run_until(sim: Simulator, until: float, max_events: int | None = None) -> None:
            frame = t.begin("engine.run_until")
            try:
                original_run_until(sim, until, max_events)
            finally:
                duration = t.end(frame)
                if ledger.in_pacer:
                    t.counts["pacer.slices"] += 1
                    ledger.pacer_busy += duration
                pending = sim.pending_events
                if pending > ledger.pending_max:
                    ledger.pending_max = pending

        t.replace(Simulator, "run_until", run_until)

        # framework server and GCS
        def group_rid(server: FrameworkServer, group: str, origin: Any, payload: Any, seq: int):
            if isinstance(payload, ContextUpdate):
                key = (ledger.epoch, payload.session_id, payload.counter)
                if payload.session_id in server.primaries and key not in ledger.ordered:
                    ledger.ordered[key] = ledger.now(server)
                return (payload.session_id, payload.counter)
            return None

        t.wrap(FrameworkServer, "on_group_message", "server.group_msg", rid_of=group_rid)

        def ptp_rid(daemon: GcsDaemon, dest: Any, payload: Any, size: int = 1):
            if isinstance(payload, ResponseMsg):
                key = (ledger.epoch, payload.session_id, payload.based_on_update)
                if key not in ledger.replied:
                    ledger.replied[key] = ledger.now(daemon)
                return (payload.session_id, payload.based_on_update)
            return None

        t.wrap(GcsDaemon, "send_ptp", "gcs.send_ptp", rid_of=ptp_rid)

        original_send_protocol = GcsDaemon.__dict__["send_protocol"]

        def send_protocol(daemon: GcsDaemon, dest: Any, payload: Any, kind: str, size: int = 1) -> None:
            if ledger.live and isinstance(payload, SyncReply):
                ledger._sync_before = daemon.network.actual_bytes_sent.get(kind, 0)
            original_send_protocol(daemon, dest, payload, kind, size)
            if isinstance(payload, Propose):
                attempt = (ledger.epoch, payload.attempt.counter, str(payload.attempt.coordinator))
                if attempt not in ledger.attempts:
                    ledger.attempts.add(attempt)
                    if ledger._attempt_since is None:
                        ledger._attempt_since = ledger.now(daemon)
            elif isinstance(payload, SyncReply):
                if ledger.live:
                    sent = daemon.network.actual_bytes_sent.get(kind, 0)
                    ledger.sync_reply_bytes += sent - ledger._sync_before
                else:
                    ledger.sync_reply_bytes += size

        t.replace(GcsDaemon, "send_protocol", send_protocol)

        def installed(_result: Any, daemon: GcsDaemon, install: Any) -> None:
            view = (ledger.epoch, str(install.view_id))
            if view not in ledger.installs:
                ledger.installs.add(view)
                if ledger._attempt_since is not None:
                    ledger.view_changes.append(ledger.now(daemon) - ledger._attempt_since)
                    ledger._attempt_since = None

        t.wrap(GcsDaemon, "apply_install", "membership.install", on_result=installed)

        original_batch = GcsDaemon.__dict__["_on_sequenced_batch"]

        def on_batch(daemon: GcsDaemon, batch: Any) -> None:
            ledger.batch_sizes.append(len(batch.messages))
            original_batch(daemon, batch)

        t.replace(GcsDaemon, "_on_sequenced_batch", on_batch)

        original_check = FailureDetector.__dict__["check"]

        def check(fd: FailureDetector) -> None:
            before = fd.alive_set()
            original_check(fd)
            lost = before - fd.alive_set()
            for peer in lost:
                process = ledger.nodes.get(peer)
                if process is not None and process.is_up():
                    ledger.suspicions_of_live += 1

        t.replace(FailureDetector, "check", check)

        def started(_result: Any, process: Any) -> None:
            node = getattr(process, "server_id", None) or process.client_id
            ledger.nodes[node] = process

        t.wrap(FrameworkServer, "start", "server.start", on_result=started)
        t.wrap(ServiceClient, "start", "client.start", on_result=started)

        def mcast_called(_result: Any, *_args: Any) -> None:
            ledger.mcast_calls += 1

        t.wrap(GcsClient, "mcast", "gcs.client_mcast", on_result=mcast_called)

        # context propagation and takeover
        t.wrap(PrimaryContext, "snapshot", "context.snapshot")
        t.wrap(PrimaryContext, "delta", "context.delta")
        t.wrap(BackupContext, "effective", "context.effective")

        # the application (the control layer)
        t.wrap(app_class, "apply_update", "app.apply")
        t.wrap(app_class, "respond_to_update", "app.respond")
        t.wrap(app_class, "next_responses", "app.next_responses")

        # the client: request send and reply handling
        def update_sent(counter: int, client: ServiceClient, handle: Any, update: Any) -> None:
            ledger.sent.setdefault((ledger.epoch, handle.session_id, counter), ledger.now(client))

        t.wrap(ServiceClient, "send_update", "client.send_update", on_result=update_sent)

        def handled_rid(client: ServiceClient, sender: Any, payload: Any):
            if isinstance(payload, ResponseMsg):
                key = (ledger.epoch, payload.session_id, payload.based_on_update)
                if key not in ledger.handled:
                    ledger.handled[key] = ledger.now(client)
                return (payload.session_id, payload.based_on_update)
            return None

        t.wrap(ServiceClient, "on_ptp", "client.on_ptp", rid_of=handled_rid)

        # the chaos runner's digest and oracles, where the runner binds them
        t.wrap(chaos_runner, "trace_digest", "chaos.digest")
        t.wrap(chaos_runner, "run_oracles", "chaos.oracle")

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def reset_spans(self) -> None:
        """Start the span aggregates afresh (the measured phase begins)."""
        self.tracer.totals.clear()
        self.tracer.counts.clear()
        self.tracer.spans.clear()
        self.pacer_busy = 0.0
        self.pending_max = 0
        self.batch_sizes.clear()
        self.mcast_calls = 0
        self.sync_reply_bytes = 0
        self.suspicions_of_live = 0

    # ------------------------------------------------------------------
    def metrics(
        self,
        counters: dict[str, float],
        requests: int,
        wall: float,
        lag_ms: list[float],
        cpu_ms_per_req: float,
        sim_s_per_wall_s: float,
        trace_records: int = 0,
    ) -> dict[str, float]:
        """Every ledger metric, from the spans plus counter deltas.

        ``requests`` normalises the per-request figures; ``wall`` is the
        measured phase's wall time (the pacer's busy-share base)."""
        t = self.tracer
        per = max(requests, 1)
        out: dict[str, float] = {}
        payload_encodes = t.counts["codec.payload_encodes"]
        hits = counters.get("codec.cache_hits", 0)
        out["codec.encode_calls"] = t.count("codec.encode")
        out["codec.encode_ms"] = _ms(t.self_time("codec.encode"))
        out["codec.encode_bytes"] = t.counts["codec.encode_bytes"]
        out["codec.decode_calls"] = t.count("codec.decode")
        out["codec.decode_ms"] = _ms(t.self_time("codec.decode"))
        out["codec.cache_hit_ratio"] = hits / (hits + payload_encodes) if hits + payload_encodes else 0.0
        frames = counters.get("transport.frames_sent", 0)
        writes = counters.get("transport.writes", 0)
        out["transport.frames_sent"] = frames
        out["transport.writes"] = writes
        out["transport.frames_per_write"] = frames / writes if writes else 0.0
        out["transport.bytes_sent"] = counters.get("transport.bytes_sent", 0)
        out["transport.drops"] = counters.get("transport.drops", 0)
        out["transport.send_ms"] = _ms(t.self_time("transport.send"))
        out["pacer.lag_ms_p99"] = _p(lag_ms, 99.0)
        out["pacer.busy_share"] = self.pacer_busy / wall if wall > 0 else 0.0
        out["pacer.slices"] = t.counts["pacer.slices"]
        events = counters.get("engine.events", 0)
        engine_s = t.total("engine.run_until")
        out["engine.events"] = events
        out["engine.events_per_s"] = events / engine_s if engine_s > 0 else 0.0
        out["engine.pending_max"] = self.pending_max
        out["engine.run_until_ms"] = _ms(engine_s)
        for cls in KIND_CLASSES:
            out[f"network.msgs_per_req.{cls}"] = counters.get(f"msgs.{cls}", 0) / per
            out[f"network.bytes_per_req.{cls}"] = counters.get(f"bytes.{cls}", 0) / per
        out["network.drops"] = counters.get("network.drops", 0)
        scale = 1e3  # stage clocks are seconds (wall live, simulated in a sweep)
        order = [
            (self.ordered[k] - self.sent[k]) * scale
            for k in self.ordered
            if k in self.sent and self.ordered[k] >= self.sent[k]
        ]
        out["gcs.order_ms_p50"] = _p(order, 50.0)
        out["gcs.order_ms_p99"] = _p(order, 99.0)
        out["gcs.batch_size_mean"] = (
            sum(self.batch_sizes) / len(self.batch_sizes) if self.batch_sizes else 0.0
        )
        out["gcs.client_retries"] = max(0, counters.get("client.mcast_frames", 0) - self.mcast_calls)
        attempts = len(self.attempts)
        out["membership.attempts"] = attempts
        out["membership.installs"] = len(self.installs)
        out["membership.install_ratio"] = len(self.installs) / attempts if attempts else 0.0
        out["membership.sync_reply_bytes"] = self.sync_reply_bytes
        out["membership.view_change_ms"] = _p([v * scale for v in self.view_changes], 50.0)
        out["membership.suspicions_of_live"] = self.suspicions_of_live
        out["server.group_msg_ms"] = _ms(t.self_time("server.group_msg"))
        for name in (
            "server.propagations_full",
            "server.propagations_delta",
            "server.propagation_bytes",
            "server.responses_sent",
            "server.handoffs",
            "server.state_exchanges",
        ):
            out[name] = counters.get(name, 0)
        out["context.snapshot_ms"] = _ms(t.total("context.snapshot"))
        out["context.delta_ms"] = _ms(t.total("context.delta"))
        out["context.effective_ms"] = _ms(t.total("context.effective"))
        out["app.apply_ms"] = _ms(t.self_time("app.apply"))
        out["app.respond_ms"] = _ms(t.self_time("app.respond"))
        out["app.next_responses_ms"] = _ms(t.self_time("app.next_responses"))
        out["client.replies"] = counters.get("client.replies", 0)
        out["client.sends_failed"] = counters.get("client.sends_failed", 0)
        out["client.unacked_end"] = counters.get("client.unacked_end", 0)
        out["chaos.digest_ms"] = _ms(t.total("chaos.digest"))
        out["chaos.oracle_ms"] = _ms(t.total("chaos.oracle"))
        out["trace.records"] = trace_records
        stages = self.stages()
        for name, values in stages.items():
            out[f"stage.{name}_ms_p50"] = _p(values, 50.0)
        out["trace.coverage"] = (
            1.0 - t.self_time("engine.run_until") / engine_s if engine_s > 0 else 0.0
        )
        out["trace.cpu_ms_per_req"] = cpu_ms_per_req
        out["trace.sim_s_per_wall_s"] = sim_s_per_wall_s
        return out

    def stages(self) -> dict[str, list[float]]:
        """Per-request stage durations in ms: generator lag, client send
        -> primary delivery, delivery -> reply sent, reply sent -> client."""
        out: dict[str, list[float]] = {"generator": [], "order": [], "apply": [], "return": []}
        for key, sent in self.sent.items():
            due = self.intended.get(key)
            if due is not None:
                out["generator"].append(max(0.0, sent - due) * 1e3)
            ordered = self.ordered.get(key)
            replied = self.replied.get(key)
            handled = self.handled.get(key)
            if ordered is None or replied is None or handled is None:
                continue
            out["order"].append((ordered - sent) * 1e3)
            out["apply"].append((replied - ordered) * 1e3)
            out["return"].append((handled - replied) * 1e3)
        return out


__all__ = [
    "DECLARED",
    "LAYERS",
    "Ledger",
    "UNDECLARED",
    "UNITS",
    "add",
    "cluster_counters",
    "delta",
    "kind_class",
]
