"""Cluster builder: wires the simulator, network(s), servers, placement
and clients into a runnable service deployment — simulated here, live
and replayed through :mod:`repro.net.cluster`, one cluster type for all.

This is the entry point examples, tests and experiments use::

    cluster = ServiceCluster.build(
        n_servers=4,
        units={"movie-1": vod_app},
        replication=3,
        policy=AvailabilityPolicy(num_backups=1, propagation_period=0.5),
        seed=7,
    )
    client = cluster.add_client("c0")
    cluster.run(1.0)
    handle = client.start_session("movie-1")
    cluster.run(60.0)
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.core.application import ServiceApplication
from repro.core.client import ServiceClient
from repro.core.config import AvailabilityPolicy
from repro.core.server import FrameworkServer
from repro.core.wire import content_group
from repro.faults.injector import FaultSurface
from repro.gcs.settings import GcsSettings
from repro.gcs.spec import SpecMonitor
from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency, lan_latency, wan_latency
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import NodeId, Topology
from repro.sim.trace import TraceLog


def place_units(
    unit_ids: list[str], server_ids: list[str], replication: int
) -> dict[str, list[str]]:
    """Round-robin partial replication: unit *i* lives on ``replication``
    consecutive servers starting at ``i`` (mod cluster size).  Partial, not
    total, replication — as the paper requires."""
    replication = min(replication, len(server_ids))
    placement: dict[str, list[str]] = {}
    for index, unit in enumerate(sorted(unit_ids)):
        placement[unit] = [
            server_ids[(index + k) % len(server_ids)] for k in range(replication)
        ]
    return placement


class ServiceCluster:
    """A deployment of the framework: servers, clients and the networks
    between them.

    One type for every backend.  A simulated cluster (:meth:`build`)
    shares one :class:`Network` among all nodes; a live cluster
    (:func:`repro.net.cluster.live_cluster`) gives each node its own
    :class:`~repro.net.runtime.LiveNetwork` over a socket transport, and
    a replayed one the same over null transports.  Every backend builds
    its processes through :meth:`add_nodes`, and ``faults`` is the fault
    surface the dispatcher drives (:mod:`repro.faults.injector`): the
    shared network, a live :class:`~repro.net.faults.FaultPlane`, or
    ``None`` when there is no wire to perturb.
    """

    def __init__(
        self,
        sim: Simulator,
        trace: TraceLog,
        monitor: SpecMonitor | None = None,
        servers: dict[str, FrameworkServer] | None = None,
        networks: dict[NodeId, Network] | None = None,
        client: ServiceClient | None = None,
        *,
        units: Mapping[str, ServiceApplication] | None = None,
        placement: dict[str, list[str]] | None = None,
        policy: AvailabilityPolicy | None = None,
        settings: GcsSettings | None = None,
        network: Network | None = None,
        faults: FaultSurface | None = None,
        rngs: RngRegistry | None = None,
        runtime: Any = None,
        transports: dict[NodeId, Any] | None = None,
    ) -> None:
        self.sim = sim
        self.trace = trace
        self.monitor = monitor
        self.servers: dict[str, FrameworkServer] = servers if servers is not None else {}
        #: each node's own network (every entry is ``network`` in simulation)
        self.networks: dict[NodeId, Network] = networks if networks is not None else {}
        self.clients: dict[str, ServiceClient] = {}
        if client is not None:
            self.clients[client.client_id] = client
        self.units = dict(units or {})
        self.placement = placement if placement is not None else {}
        self.policy = policy or AvailabilityPolicy()
        self.settings = settings or GcsSettings()
        #: the network every node shares (simulated clusters only)
        self.network = network
        self.faults = faults
        self.rngs = rngs
        #: live only: the wall-clock pacer and each node's socket transport
        self.runtime = runtime
        self.transports: dict[NodeId, Any] = transports if transports is not None else {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def build(
        n_servers: int,
        units: dict[str, ServiceApplication],
        replication: int = 2,
        policy: AvailabilityPolicy | None = None,
        settings: GcsSettings | None = None,
        seed: int = 0,
        latency: str = "lan",
        trace: bool = True,
        placement: dict[str, list[str]] | None = None,
        loss_probability: float = 0.0,
    ) -> "ServiceCluster":
        """Build a simulated cluster of ``n_servers`` hosting ``units``.

        ``latency`` is ``"lan"``, ``"wan"`` or ``"zero"``; GCS timeouts are
        left at their LAN defaults unless explicit ``settings`` are given.
        ``loss_probability`` drops that fraction of network messages
        uniformly (the GCS recovers ordered traffic via NACKs; raw
        point-to-point responses are simply lost, as on a real UDP path).
        """
        rngs = RngRegistry(seed)
        sim = Simulator()
        trace_log = TraceLog(enabled=trace)
        if latency == "lan":
            model = lan_latency(rngs.stream("latency"))
        elif latency == "wan":
            model = wan_latency(rngs.stream("latency"))
        else:
            model = FixedLatency(0.0005)
        network = Network(
            sim,
            Topology(),
            model,
            trace=trace_log,
            loss_probability=loss_probability,
            loss_rng=rngs.stream("loss") if loss_probability > 0 else None,
            # dedicated stream so chaos adversity (duplication/reordering)
            # never perturbs the latency/loss draws of existing experiments
            chaos_rng=rngs.stream("chaos-net"),
        )
        server_ids = [f"s{i}" for i in range(n_servers)]
        cluster = ServiceCluster(
            sim,
            trace_log,
            SpecMonitor(),
            units=units,
            placement=(
                placement
                if placement is not None
                else place_units(list(units), server_ids, replication)
            ),
            policy=policy,
            settings=settings,
            network=network,
            faults=network,
            rngs=rngs,
        )
        cluster.add_nodes(server_ids)
        return cluster

    def add_nodes(
        self,
        server_ids: Sequence[str] = (),
        client_ids: Sequence[str] = (),
        world: list[str] | None = None,
    ) -> None:
        """Construct and start servers and clients: the one place a
        deployment's processes are made, for every backend.

        Servers are constructed in the given order, then clients, then
        all are started in that same order — the order is part of the
        determinism contract (timers and sequence numbers follow it).
        Each server hosts the units ``placement`` assigns it; ``world``
        (default ``server_ids``) is the server list new servers heartbeat
        and new clients contact.
        """
        world = list(server_ids) if world is None else world
        catalog = {unit: content_group(unit) for unit in self.units}
        for server_id in server_ids:
            hosted = [u for u, hosts in self.placement.items() if server_id in hosts]
            self.servers[server_id] = FrameworkServer(
                server_id=server_id,
                network=self._network_of(server_id),
                world=world,
                hosted_units=hosted,
                applications={u: self.units[u] for u in hosted},
                catalog=catalog,
                policy=self.policy,
                settings=self.settings,
                monitor=self.monitor,
            )
        for client_id in client_ids:
            self.clients[client_id] = ServiceClient(
                client_id,
                self._network_of(client_id),
                contact_servers=world,
                settings=self.settings,
                response_log_cap=self.policy.response_log_cap,
            )
        for server_id in server_ids:
            self.servers[server_id].start()
        for client_id in client_ids:
            self.clients[client_id].start()

    def _network_of(self, node: NodeId) -> Network:
        """The node's own network; in simulation, the shared one."""
        return self.networks.setdefault(node, self.network)

    def spawn_server(
        self, server_id: str, hosted_units: list[str] | None = None
    ) -> FrameworkServer:
        """Bring a brand-new server into the running service.

        This is the mechanism behind the paper's availability-management
        future work ([Mishra & Pang 1999]): when the manager decides more
        capacity or replication is needed, a fresh server joins the
        world, starts heartbeating, and the join-type view change absorbs
        it (state exchange + rebalance) with no client involvement.

        ``hosted_units`` defaults to every unit in the service (full
        replication on the newcomer).
        """
        if server_id in self.servers:
            raise ValueError(f"server id {server_id!r} already exists")
        world = sorted(self.servers) + [server_id]
        # existing daemons must learn to heartbeat the newcomer
        for existing in self.servers.values():
            if server_id not in existing.daemon.world:
                existing.daemon.world.append(server_id)
        if hosted_units is None:
            hosted_units = sorted(self.placement)
        for unit in hosted_units:
            hosts = self.placement.setdefault(unit, [])
            if server_id not in hosts:
                hosts.append(server_id)
        self.add_nodes([server_id], world=world)
        return self.servers[server_id]

    def add_client(self, client_id: str) -> ServiceClient:
        self.add_nodes(client_ids=[client_id], world=sorted(self.servers))
        return self.clients[client_id]

    @property
    def client(self) -> ServiceClient:
        """The first client (scripted live runs have exactly one)."""
        return next(iter(self.clients.values()))

    async def close(self) -> None:
        """Close every live transport (nothing to do in simulation)."""
        for transport in self.transports.values():
            await transport.close()

    # ------------------------------------------------------------------
    # running and fault control
    # ------------------------------------------------------------------
    def run(self, duration: float, max_events: int | None = 20_000_000) -> None:
        self.sim.run_until(self.sim.now + duration, max_events=max_events)

    def settle(self) -> None:
        """Let membership and allocations converge after startup/faults."""
        self.run(3.0)

    def crash_server(self, server_id: str) -> None:
        self.servers[server_id].crash()

    def recover_server(self, server_id: str) -> None:
        self.servers[server_id].recover()

    def partition(self, *components: Iterable[str]) -> None:
        self.faults.partition(*components)

    def heal(self) -> None:
        self.faults.heal_partition()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def live_servers(self) -> list[str]:
        return [sid for sid, server in self.servers.items() if server.is_up()]

    def hosts_of(self, unit_id: str) -> list[str]:
        return list(self.placement[unit_id])

    def primaries_of(self, session_id: str) -> list[str]:
        """All live servers currently claiming the primary role for the
        session (the unique-primary design goal says this should be one)."""
        return [
            server_id
            for server_id, server in self.servers.items()
            if server.is_up() and session_id in server.primary_sessions()
        ]

    def trace_log(self) -> TraceLog:
        return self.trace


__all__ = ["ServiceCluster", "place_units"]
