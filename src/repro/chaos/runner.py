"""Deterministic execution of one chaos run.

``run_schedule(config, seed, schedule)`` builds a fresh cluster, streams
live VoD sessions, injects the schedule, heals everything, settles, and
evaluates the oracles.  Everything is a pure function of ``(config, seed,
schedule)`` — the simulator is deterministic, every RNG hangs off the
cluster's seeded registry, and faults are applied at exact simulated
times — which is what makes delta-debugging re-runs and ``--replay``
artifacts reproduce a failure bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.chaos.config import ChaosConfig
from repro.chaos.oracles import RunObservation, Violation, run_oracles
from repro.core.client import SessionHandle
from repro.core.service import ServiceCluster
from repro.faults.injector import inject
from repro.faults.schedule import FaultSchedule
from repro.gcs.settings import GcsSettings
from repro.metrics.windows import (
    Interval,
    merge_intervals,
    pad_intervals,
    subtract_intervals,
)
from repro.services import VodApplication, build_movie
from repro.sim.rng import RngRegistry
from repro.services.workload import VodViewerWorkload


@dataclass
class RunResult:
    """Outcome of one deterministic chaos run."""

    seed: int
    schedule: FaultSchedule
    violations: list[Violation]
    digest: str
    clean_windows: list[Interval] = field(default_factory=list)
    responses: int = 0
    updates: int = 0
    end_time: float = 0.0
    mode: str = "sim"
    #: live runs only: the serialized ingress frame log
    #: (:meth:`repro.net.replay.IngressLog.to_blob`) that lets
    #: ``--replay`` reproduce the run bit-for-bit without sockets
    replay_log: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def oracle_names(self) -> frozenset[str]:
        return frozenset(v.oracle for v in self.violations)


# ----------------------------------------------------------------------
# disruption windows
# ----------------------------------------------------------------------
#: fault kinds that open a disruption, and the kind that closes it
_CLOSERS = {
    "crash": "recover",
    "slowdown": "restore_speed",
    "partition": "heal",
    "cut_link": "restore_link",
    "delay_link": "restore_delay",
}


def _same_scope(opener, closer) -> bool:
    if opener.kind in ("crash", "slowdown"):
        return closer.target == opener.target
    if opener.kind in ("cut_link", "delay_link"):
        pair = {opener.args.get("a"), opener.args.get("b")}
        return {closer.args.get("a"), closer.args.get("b")} == pair
    return True  # partition/heal are global


def disruption_spans(
    schedule: FaultSchedule, t0: float, heal_time: float
) -> list[Interval]:
    """Absolute-time intervals during which some fault is active.

    Each opener runs until its matching closer or ``heal_time`` (when the
    runner force-heals everything).  ``duplicate``/``reorder`` windows
    close at the event that sets their probability back to zero.  A
    ``crash_at`` trap is conservatively treated as disrupting from arming
    to ``heal_time`` — it may fire at any point in between.
    """
    events = schedule.sorted_events()
    spans: list[Interval] = []
    for index, event in enumerate(events):
        start = t0 + event.time
        if event.kind in _CLOSERS:
            closer_kind = _CLOSERS[event.kind]
            end = heal_time
            for later in events[index + 1 :]:
                if later.kind == closer_kind and _same_scope(event, later):
                    end = t0 + later.time
                    break
            spans.append((start, end))
        elif event.kind in ("duplicate", "reorder"):
            if float(event.args.get("probability", 0.0)) <= 0.0:
                continue
            end = heal_time
            for later in events[index + 1 :]:
                if (
                    later.kind == event.kind
                    and float(later.args.get("probability", 0.0)) <= 0.0
                ):
                    end = t0 + later.time
                    break
            spans.append((start, end))
        elif event.kind == "crash_at":
            spans.append((start, heal_time))
    return merge_intervals(spans)


# ----------------------------------------------------------------------
# trace digest (determinism witness)
# ----------------------------------------------------------------------
def _stable(value) -> str:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_stable(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted((str(k), _stable(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(_stable(v) for v in value)) + "}"
    # objects with data-class reprs are stable; anything else degrades to
    # its type name rather than an id()-bearing default repr
    text = repr(value)
    return text if "0x" not in text else f"<{type(value).__name__}>"


def trace_digest(trace) -> str:
    """SHA-256 over the full event trace: two runs are *the same run*
    iff their digests match (times, nodes, categories and details)."""
    digest = hashlib.sha256()
    for event in trace.events:
        line = (
            f"{event.time!r}|{event.node}|{event.category}|"
            + _stable(event.detail)
        )
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# the run itself
# ----------------------------------------------------------------------
def vod_units(config: ChaosConfig) -> dict[str, VodApplication]:
    """Every unit of a chaos cluster, served by one shared VoD app."""
    movies = {
        unit: build_movie(unit, duration_seconds=600.0, frame_rate=10.0)
        for unit in config.unit_ids
    }
    app = VodApplication(movies)
    return {unit: app for unit in movies}


def run_schedule(
    config: ChaosConfig,
    seed: int,
    schedule: FaultSchedule,
    keep_cluster: bool = False,
):
    """Execute one chaos run; returns a :class:`RunResult` (and the final
    :class:`RunObservation` when ``keep_cluster`` is set, for debugging).

    ``config.mode == "live"`` dispatches to :mod:`repro.chaos.live`,
    which runs the identical schedule/oracle pipeline against a real
    asyncio socket cluster wrapped in fault-injecting transports.
    """
    if getattr(config, "mode", "sim") == "live":
        # local import: repro.chaos.live imports this module for the
        # shared viewer, heal and evaluation steps
        from repro.chaos.live import run_live_schedule

        return run_live_schedule(config, seed, schedule, keep_cluster=keep_cluster)
    cluster = ServiceCluster.build(
        n_servers=config.n_servers,
        units=vod_units(config),
        replication=config.n_servers,
        policy=config.build_policy(),
        settings=config.apply_plant_settings(GcsSettings()),
        seed=seed,
    )
    cluster.settle()

    handles = []
    workloads = []
    for index in range(config.n_sessions):
        cluster.add_client(config.client_ids[index])
        start_viewer(cluster, config, cluster.rngs, index, handles, workloads)
    cluster.run(config.establish)

    inject_t0 = cluster.sim.now
    inject(cluster, schedule)
    cluster.run(config.duration)

    # --- heal phase: lift every fault, then let the cluster converge ---
    heal_time = cluster.sim.now
    heal_sweep(cluster, config, workloads, handles)
    cluster.run(config.settle)
    return evaluate(
        cluster, config, seed, schedule, handles, inject_t0, heal_time,
        cluster.sim.now, keep_cluster,
    )


def start_viewer(
    cluster: ServiceCluster,
    config: ChaosConfig,
    rngs: RngRegistry,
    index: int,
    handles: list[SessionHandle],
    workloads: list[VodViewerWorkload],
) -> None:
    """Start session ``index`` on its client, with a viewer workload
    streaming it; the handle and workload are appended to the lists."""
    client = cluster.clients[config.client_ids[index]]
    handle = client.start_session(config.unit_ids[index % len(config.unit_ids)])
    handles.append(handle)
    workload = VodViewerWorkload(
        cluster=cluster,
        client=client,
        handle=handle,
        rng=rngs.stream(f"chaos-workload-{index}"),
        skip_interval_mean=3.0,
    )
    workloads.append(workload)
    workload.start()


def heal_sweep(
    cluster: ServiceCluster,
    config: ChaosConfig,
    workloads: list[VodViewerWorkload],
    handles: list[SessionHandle],
) -> None:
    """Lift every fault so the settle phase can judge convergence — the
    one heal step of both the sim and the live runner."""
    for workload in workloads:
        workload.stop()  # quiesce updates so lost-update checks are exact
    for index, handle in enumerate(handles):
        # a viewer stopped mid-pause would legitimately stay silent and
        # fake a responsiveness stall: hit play one final time
        client = cluster.clients[config.client_ids[index]]
        if client.is_up():
            client.send_update(handle, {"op": "resume"})
    for server in cluster.servers.values():
        server.disarm_crash_hooks()
        if server.is_up():
            server.daemon.set_dispatch_delay(0.0)
    if cluster.faults is not None:
        cluster.faults.clear_all()
    for _server_id, server in sorted(cluster.servers.items()):
        if not server.is_up():
            server.recover()


def evaluate(
    cluster: ServiceCluster,
    config: ChaosConfig,
    seed: int,
    schedule: FaultSchedule,
    handles: list[SessionHandle],
    inject_t0: float,
    heal_time: float,
    end: float,
    keep_cluster: bool,
    mode: str = "sim",
    replay_log: str | None = None,
):
    """Clean windows, oracles and digest of a finished run (sim, live or
    replayed): a :class:`RunResult`, plus the :class:`RunObservation`
    when ``keep_cluster`` is set."""
    disrupted = pad_intervals(
        disruption_spans(schedule, inject_t0, heal_time), config.stabilize_margin
    )
    clean_windows = subtract_intervals([(inject_t0, end)], disrupted)
    observation = RunObservation(
        cluster=cluster,
        config=config,
        schedule=schedule,
        handles=handles,
        clean_windows=clean_windows,
        serve_start=inject_t0,
        end=end,
    )
    violations = run_oracles(observation)
    result = RunResult(
        seed=seed,
        schedule=schedule,
        violations=violations,
        digest=trace_digest(cluster.trace_log()),
        clean_windows=clean_windows,
        responses=sum(len(h.received) for h in handles),
        updates=sum(h.update_counter for h in handles),
        end_time=end,
        mode=mode,
        replay_log=replay_log,
    )
    if keep_cluster:
        return result, observation
    return result


__all__ = [
    "RunResult",
    "disruption_spans",
    "evaluate",
    "heal_sweep",
    "run_schedule",
    "start_viewer",
    "trace_digest",
    "vod_units",
]
