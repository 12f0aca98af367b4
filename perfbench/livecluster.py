"""One in-process live cluster: 3 servers + 1 client over UDP loopback.

Built from the public live-runtime API (``LiveNetwork``, ``LiveRuntime``,
``FrameworkServer``, ``ServiceClient``) the way ``repro cluster`` builds
its own, but hosting whichever application a workload needs.  Every
node owns its own socket, so every message between nodes is encoded,
crosses the kernel loopback and is decoded again; one shared simulator
is paced against the wall clock.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.core.client import ServiceClient, SessionHandle
from repro.core.config import AvailabilityPolicy
from repro.core.server import FrameworkServer
from repro.core.wire import content_group
from repro.gcs.spec import SpecMonitor
from repro.net.cluster import LiveCluster, resolve_profile
from repro.net.runtime import LiveNetwork, LiveRuntime
from repro.net.transport import create_transport
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog

SERVERS = ("s0", "s1", "s2")
CLIENT = "c0"
PROFILE = "default"
#: trace categories the session audit reads (primary intervals, crashes);
#: everything else stays unrecorded so the trace costs almost nothing
AUDIT_CATEGORIES = ("fw.promote", "fw.demote", "process.crash")


async def boot(
    unit: str,
    application: Any,
    policy: AvailabilityPolicy,
    audit: bool = False,
) -> LiveCluster:
    """Bind one UDP socket per node, wire the address book and start
    every process (timers arm at sim t=0; nothing runs until paced)."""
    sim = Simulator()
    trace = TraceLog(enabled=audit, categories=AUDIT_CATEGORIES)
    monitor = SpecMonitor()
    runtime = LiveRuntime(sim)
    transports = {}
    networks = {}
    for node in (*SERVERS, CLIENT):
        transport = create_transport("udp", node)
        await transport.start("127.0.0.1", 0)
        transports[node] = transport
        networks[node] = LiveNetwork(
            sim, transport, trace=trace, wake=runtime.wake, node_id=node
        )
    for node, transport in transports.items():
        for peer, other in transports.items():
            if peer != node:
                transport.set_peer(peer, *other.address)
    settings = resolve_profile(PROFILE)
    servers = {
        server_id: FrameworkServer(
            server_id=server_id,
            network=networks[server_id],
            world=list(SERVERS),
            hosted_units=[unit],
            applications={unit: application},
            catalog={unit: content_group(unit)},
            policy=policy,
            settings=settings,
            monitor=monitor,
        )
        for server_id in SERVERS
    }
    client = ServiceClient(
        CLIENT, networks[CLIENT], contact_servers=list(SERVERS), settings=settings
    )
    for server in servers.values():
        server.start()
    client.start()
    return LiveCluster(
        sim=sim,
        runtime=runtime,
        trace=trace,
        monitor=monitor,
        transports=transports,
        networks=networks,
        servers=servers,
        client=client,
    )


async def run_until(cluster: LiveCluster, done: Callable[[], bool], timeout: float) -> bool:
    """Pace in 10 ms steps until ``done()`` holds or ``timeout`` passes."""
    deadline = time.monotonic() + timeout
    while not done():
        if time.monotonic() >= deadline:
            return False
        await cluster.runtime.run(0.01)
    return True


def content_ready(cluster: LiveCluster) -> bool:
    """All servers up and agreeing on a full configuration view."""
    views = {
        server.daemon.config.view_id
        for server in cluster.servers.values()
        if server.is_up()
    }
    return len(views) == 1 and all(
        len(server.daemon.config.members) == len(SERVERS)
        for server in cluster.servers.values()
    )


async def first_session(cluster: LiveCluster, unit: str, timeout: float = 20.0) -> SessionHandle:
    """Wait for the views to form, then start sessions until one is
    confirmed (an attempt refused while the content group forms is
    retried).  Raises when none is confirmed within ``timeout``."""
    deadline = time.monotonic() + timeout
    if not await run_until(cluster, lambda: content_ready(cluster), timeout):
        raise RuntimeError("the live cluster never formed a full view")
    client: ServiceClient = cluster.client
    while time.monotonic() < deadline:
        handle = client.start_session(unit)
        await run_until(
            cluster,
            lambda: handle.started or handle.denied_reason is not None,
            min(1.0, max(0.0, deadline - time.monotonic())),
        )
        if handle.started:
            return handle
    raise RuntimeError("no session was confirmed on the live cluster")


async def close(cluster: LiveCluster) -> None:
    cluster.runtime.stop()
    await cluster.close()
