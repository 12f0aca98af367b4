"""The one fault dispatcher: faults onto a running cluster.

A fault reaches a cluster in one of two shapes — a :class:`FaultEvent`
from a schedule (:func:`inject`, :func:`apply_fault`) or a JSON command
on a live node's control channel (:func:`apply_command`).  Both become
calls of the same *fault verbs* on a :class:`FaultSurface`, behind one
set of range and shape checks, so untrusted input fails closed the same
way on every path.  The simulated :class:`~repro.sim.network.Network`
and the live :class:`~repro.net.faults.FaultPlane` both implement the
surface, so a schedule means the same thing simulated and on real
sockets.  A replayed live run has no surface (``cluster.faults`` is
``None``): its wire faults are already baked into the recorded frames,
so they are traced and skipped.

Every applied event is recorded in the cluster's trace log under a
``fault.<kind>`` category, so a chaos repro's event log shows the injected
faults inline with the protocol events they provoked — the single
interleaved timeline that makes a shrunk schedule debuggable.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Protocol

from repro.faults.schedule import FaultEvent, FaultSchedule


class FaultSurface(Protocol):
    """The wire-fault verbs a cluster's network layer implements."""

    def partition(self, *components: Any) -> None: ...
    def heal_partition(self) -> None: ...
    def cut_link(self, a: Any, b: Any, symmetric: bool = True) -> None: ...
    def restore_link(self, a: Any, b: Any, symmetric: bool = True) -> None: ...
    def set_link_delay(
        self, a: Any, b: Any, extra: float, symmetric: bool = True
    ) -> None: ...
    def clear_link_delay(self, a: Any, b: Any, symmetric: bool = True) -> None: ...
    def set_duplication(self, probability: float) -> None: ...
    def set_reordering(self, probability: float, window: float = 0.05) -> None: ...
    def clear_all(self) -> None: ...


Args = Mapping[str, Any]


# ----------------------------------------------------------------------
# argument checks (shared by schedules and the JSON control channel)
# ----------------------------------------------------------------------
def _number(
    args: Args, key: str, default: float | None = None, below_one: bool = False
) -> float:
    """A finite number >= 0 (and < 1 when ``below_one``)."""
    value = args.get(key, default)
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not 0.0 <= value < (1.0 if below_one else math.inf)
    ):
        bound = "in [0, 1)" if below_one else "a finite number >= 0"
        raise ValueError(f"{key} must be {bound} (got {value!r})")
    return float(value)


def _probability(args: Args) -> float:
    return _number(args, "probability", below_one=True)


def _link(args: Args) -> tuple[str, str]:
    a, b = args.get("a"), args.get("b")
    if not isinstance(a, str) or not isinstance(b, str):
        raise ValueError("a link needs two node-id strings")
    return a, b


def _symmetric(args: Args) -> bool:
    value = args.get("symmetric", True)
    if not isinstance(value, bool):
        raise ValueError("symmetric must be true or false")
    return value


def _components(args: Args) -> list[list[str]]:
    raw = args.get("components")
    if not isinstance(raw, (list, tuple)) or not all(
        isinstance(component, (list, tuple))
        and all(isinstance(node, str) for node in component)
        for component in raw
    ):
        raise ValueError("partition components must be lists of node-id strings")
    return [list(component) for component in raw]


#: every fault verb, by name, behind its argument checks
_VERBS: dict[str, Callable[[Any, Args], None]] = {
    "partition": lambda s, a: s.partition(*_components(a)),
    "heal_partition": lambda s, a: s.heal_partition(),
    "cut_link": lambda s, a: s.cut_link(*_link(a), symmetric=_symmetric(a)),
    "restore_link": lambda s, a: s.restore_link(*_link(a), symmetric=_symmetric(a)),
    "set_link_delay": lambda s, a: s.set_link_delay(
        *_link(a), _number(a, "extra"), symmetric=_symmetric(a)
    ),
    "clear_link_delay": lambda s, a: s.clear_link_delay(
        *_link(a), symmetric=_symmetric(a)
    ),
    "set_duplication": lambda s, a: s.set_duplication(_probability(a)),
    "set_reordering": lambda s, a: s.set_reordering(
        _probability(a), window=_number(a, "window", 0.05)
    ),
    # per-link loss is a live-only knob (FaultPlane); no schedule kind uses it
    "set_loss": lambda s, a: s.set_loss(*_link(a), _probability(a)),
    "clear_all": lambda s, a: s.clear_all(),
}

#: schedule kinds that act on the wire, and the verb each one is
_WIRE_KINDS = {
    "partition": "partition",
    "heal": "heal_partition",
    "cut_link": "cut_link",
    "restore_link": "restore_link",
    "delay_link": "set_link_delay",
    "restore_delay": "clear_link_delay",
    "duplicate": "set_duplication",
    "reorder": "set_reordering",
}


# ----------------------------------------------------------------------
# server-side kinds (they act on the protocol objects, in every mode)
# ----------------------------------------------------------------------
def _crash(cluster: Any, server: Any, event: FaultEvent) -> None:
    if server.is_up():
        server.crash()
        manager = getattr(cluster, "availability_manager", None)
        if manager is not None:
            manager.record_crash(cluster.sim.now)


def _recover(cluster: Any, server: Any, event: FaultEvent) -> None:
    if not server.is_up():
        server.recover()
        # symmetric with record_crash: the manager's observed failure
        # rate window should see repairs too, not only failures
        manager = getattr(cluster, "availability_manager", None)
        if manager is not None:
            manager.record_recovery(cluster.sim.now)


_SERVER_KINDS: dict[str, Callable[[Any, Any, FaultEvent], None]] = {
    "crash": _crash,
    "recover": _recover,
    "slowdown": lambda c, s, e: s.daemon.set_dispatch_delay(_number(e.args, "delay")),
    "restore_speed": lambda c, s, e: s.daemon.set_dispatch_delay(0.0),
    "crash_at": lambda c, s, e: s.arm_crash_hook(e.args["hook"]),
}


def apply_fault(cluster: Any, event: FaultEvent) -> None:
    """Trace ``event`` and apply it to ``cluster`` (a
    :class:`~repro.core.service.ServiceCluster` in any mode)."""
    cluster.trace.record(
        cluster.sim.now,
        event.target if event.target is not None else "net",
        f"fault.{event.kind}",
        **event.args,
    )
    verb = _WIRE_KINDS.get(event.kind)
    if verb is not None:
        if cluster.faults is not None:
            _VERBS[verb](cluster.faults, event.args)
        return
    server = cluster.servers.get(event.target)
    if server is not None:
        _SERVER_KINDS[event.kind](cluster, server, event)


def apply_command(surface: Any, command: Mapping[str, object]) -> None:
    """Apply one control-channel JSON command (``{"op": <verb>, ...}``,
    links named by ``src``/``dst``) to ``surface``.

    Raises ``ValueError`` for an unknown op or malformed arguments; the
    control server turns that into an error reply.
    """
    op = command.get("op")
    verb = _VERBS.get(op) if isinstance(op, str) else None
    if verb is None:
        raise ValueError(f"unknown fault op {op!r}")
    args = dict(command)
    args["a"] = args.pop("src", None)
    args["b"] = args.pop("dst", None)
    verb(surface, args)


def inject(cluster: Any, schedule: FaultSchedule, offset: float | None = None) -> None:
    """Schedule every fault event on the cluster's simulator.

    ``offset`` defaults to the current simulation time, so a schedule
    written with times relative to "now" applies as expected after any
    warm-up the experiment already ran.
    """
    base = cluster.sim.now if offset is None else offset
    for event in schedule.sorted_events():
        cluster.sim.schedule_at(
            base + event.time,
            lambda e=event: apply_fault(cluster, e),
            label=f"fault:{event.kind}",
        )


__all__ = ["FaultSurface", "apply_command", "apply_fault", "inject"]
