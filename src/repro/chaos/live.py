"""Chaos on the live wire: real-socket runs of chaos schedules.

``run_live_schedule`` executes the same ``(config, seed, schedule)``
triple as the simulator runner, but against a cluster of real asyncio
loopback sockets wrapped in :class:`~repro.net.faults.FaultyTransport`:
partitions sever actual links, link-delay spikes hold actual frames, and
duplicate/reorder perturb actual datagrams.  The same clean-window
algebra and invariant oracles judge the run, so a schedule that fails in
simulation and one that fails live produce the same kind of artifact.

**Determinism.**  A live run is *not* reproducible from its seed alone —
the kernel schedules sockets.  It is reproducible from its **ingress
frame log**: the pacer always advances the clock to its exact target,
every internal event time derives from scheduled workload times and
protocol delays, and the single wall-clock input is the ``(time, seq)``
coordinate each inbound frame's delivery event receives.  Recording
those coordinates plus the raw bytes (:class:`~repro.net.replay.IngressLog`)
makes :func:`replay_live` exact: rebuild the identical cluster on null
transports, fence the recorded seqs off the simulator's counter, inject
every frame at its recorded coordinate, and run — the event heap pops in
the identical order and the trace digest matches bit-for-bit.

**One stack, one dispatcher.**  The cluster is the framework's one
cluster type, built by :func:`repro.net.cluster.live_cluster` over
fault-injecting UDP transports (live) or null transports (replay);
faults go through the one dispatcher (:mod:`repro.faults.injector`),
which drives the :class:`~repro.net.faults.FaultPlane` live and, in a
replay, traces wire faults and skips them — their effect is already in
the frame log.  The heal sweep and the clean-window/oracle/digest
evaluation are the sim runner's own (:mod:`repro.chaos.runner`).

**Phasing.**  Everything — client connects, session starts, workload
interactions, every fault, the heal sweep — is pre-scheduled as
simulator events before the pacer takes its first step, exactly like the
scripted live cluster (:mod:`repro.net.cluster`).  There is no
imperative phase interleaving to race against the wall clock::

    0 ──── _BOOT ──── inject_t0 ──────── heal_time ───────── end
    boot    sessions    faults fire        heal sweep          oracles
            + workload  (schedule times    (stop workloads,
            streaming    relative to        clear faults,
                         inject_t0)         recover crashed)
"""

from __future__ import annotations

import asyncio

from repro.chaos.config import ChaosConfig
from repro.chaos.runner import evaluate, heal_sweep, start_viewer, vod_units
from repro.core.client import SessionHandle
from repro.core.service import ServiceCluster
from repro.faults.injector import inject
from repro.faults.schedule import FaultSchedule
from repro.gcs.settings import GcsSettings
from repro.net.cluster import live_cluster, open_mesh
from repro.net.faults import FaultPlane, FaultyTransport, wan_profile
from repro.net.replay import IngressLog, ReplayTransport
from repro.net.runtime import IngressRecorder, LiveRuntime
from repro.net.transport import MeshTransport, UdpLoopbackTransport
from repro.services.workload import VodViewerWorkload
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

#: Wall seconds between pacer start and client connects/session starts —
#: long enough for the first view to form under live_lan timings.
_BOOT = 1.5


#: Chaos runs scale the live-LAN timings up: the stock 30 ms suspect
#: timeout is fine for one scripted run, but a chaos exploration re-runs
#: the cluster dozens of times on a loaded box, and a single event-loop
#: stall past the timeout manufactures a spurious suspicion that the
#: oracles (or a settings-layer plant) can't tell from a real fault.
_CHAOS_SETTINGS_FACTOR = 2.0


def _live_settings(config: ChaosConfig) -> GcsSettings:
    """The GCS timing constants for one live chaos run: the live-LAN
    preset, scaled up when a WAN profile stretches the links, weakened
    when the config carries a settings-layer plant."""
    factor = _CHAOS_SETTINGS_FACTOR
    if config.wan_profile is not None:
        factor = wan_profile(config.wan_profile).settings_factor
    settings = GcsSettings.live_lan().scaled(factor)
    return config.apply_plant_settings(settings)


def _assemble(
    config: ChaosConfig,
    sim: Simulator,
    transports: dict[str, MeshTransport],
    runtime: LiveRuntime | None = None,
    recorder: IngressRecorder | None = None,
    faults: FaultPlane | None = None,
) -> ServiceCluster:
    """The chaos cluster over already-created transports, shared by the
    live run and the replay so that construction order — and therefore
    every RNG stream, timer, and sequence-number allocation — is
    identical in both."""
    return live_cluster(
        sim,
        transports,
        config.server_ids,
        vod_units(config),
        config.build_policy(),
        _live_settings(config),
        runtime=runtime,
        recorder=recorder,
        faults=faults,
    )


# ----------------------------------------------------------------------
# phase scheduling (identical in live and replay)
# ----------------------------------------------------------------------
def _schedule_phases(
    cluster: ServiceCluster,
    config: ChaosConfig,
    seed: int,
    schedule: FaultSchedule,
) -> tuple[list[SessionHandle], float, float, float]:
    """Pre-schedule the whole run as simulator events.

    Returns ``(handles, inject_t0, heal_time, end)``; ``handles`` fills
    in as the session-start events fire.
    """
    sim = cluster.sim
    rngs = RngRegistry(seed)
    handles: list[SessionHandle] = []
    workloads: list[VodViewerWorkload] = []

    for client_id in config.client_ids:
        sim.schedule_at(
            _BOOT * 0.5, cluster.clients[client_id].connect, label="chaos:connect"
        )

    for index in range(config.n_sessions):
        sim.schedule_at(
            _BOOT,
            lambda i=index: start_viewer(cluster, config, rngs, i, handles, workloads),
            label="chaos:start-session",
        )

    inject_t0 = _BOOT + config.establish
    inject(cluster, schedule, offset=inject_t0)
    heal_time = inject_t0 + config.duration
    sim.schedule_at(
        heal_time,
        lambda: heal_sweep(cluster, config, workloads, handles),
        label="chaos:heal",
    )
    end = heal_time + config.settle
    return handles, inject_t0, heal_time, end


# ----------------------------------------------------------------------
# the live run
# ----------------------------------------------------------------------
async def _run_live(
    config: ChaosConfig, seed: int, schedule: FaultSchedule, keep_cluster: bool
):
    sim = Simulator()
    runtime = LiveRuntime(sim)
    log = IngressLog()
    plane = FaultPlane()
    transports = await open_mesh(
        [*config.server_ids, *config.client_ids],
        lambda node: FaultyTransport(UdpLoopbackTransport(node), seed=seed),
    )
    for node, transport in transports.items():
        plane.adopt(node, transport)
    if config.wan_profile is not None:
        wan_profile(config.wan_profile).install(plane)

    cluster = _assemble(
        config, sim, transports, runtime=runtime, recorder=log.record, faults=plane
    )
    try:
        handles, inject_t0, heal_time, end = _schedule_phases(
            cluster, config, seed, schedule
        )
        await runtime.run(end)
    finally:
        await cluster.close()
    return evaluate(
        cluster, config, seed, schedule, handles, inject_t0, heal_time, end,
        keep_cluster, mode="live", replay_log=log.to_blob(),
    )


def run_live_schedule(
    config: ChaosConfig, seed: int, schedule: FaultSchedule, keep_cluster: bool = False
):
    """Execute one chaos run on real sockets (blocking; takes roughly
    ``_BOOT + establish + duration + settle`` wall seconds)."""
    return asyncio.run(_run_live(config, seed, schedule, keep_cluster))


# ----------------------------------------------------------------------
# bit-identical replay from the ingress frame log
# ----------------------------------------------------------------------
def replay_live(
    config: ChaosConfig,
    seed: int,
    schedule: FaultSchedule,
    log_blob: str,
    keep_cluster: bool = False,
):
    """Re-execute a recorded live run without sockets.

    Pure simulation: the recorded ingress frames are injected at their
    recorded ``(time, seq)`` coordinates, so the event heap — and hence
    every handler, timer, trace record, and oracle verdict — reproduces
    the original run exactly.  A digest match against the recorded run
    is the witness.  A live run logs only frames that ran, so a logged
    frame that does not run here means the log and the run disagree:
    that raises ``ValueError``.
    """
    log = IngressLog.from_blob(log_blob)
    sim = Simulator()
    sim.reserve_seqs(log.seqs())
    transports: dict[str, MeshTransport] = {
        node: ReplayTransport(node)
        for node in [*config.server_ids, *config.client_ids]
    }
    cluster = _assemble(config, sim, transports)
    handles, inject_t0, heal_time, end = _schedule_phases(
        cluster, config, seed, schedule
    )
    ran = 0

    def feed(network, frame: bytes) -> None:
        nonlocal ran
        ran += 1
        network._ingest(frame)

    for record in log.records:
        network = cluster.networks.get(record.node)
        if network is None:
            raise ValueError(f"ingress log names unknown node {record.node!r}")
        sim.inject_at(
            record.time,
            record.seq,
            (lambda n=network, data=record.frame: feed(n, data)),
            label="live:frame",
        )
    sim.run_until(end)
    if ran != len(log.records):
        raise ValueError(
            f"{len(log.records) - ran} of {len(log.records)} logged ingress "
            f"frames did not run before the replay ended at t={end}"
        )
    return evaluate(
        cluster, config, seed, schedule, handles, inject_t0, heal_time, end,
        keep_cluster, mode="live", replay_log=log_blob,
    )


__all__ = ["replay_live", "run_live_schedule"]
