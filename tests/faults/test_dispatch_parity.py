"""The one fault dispatcher drives the simulated network and the live
fault plane to the same state: after every fault, both clusters agree on
the directed connectivity matrix and on the ``fault.*`` trace records."""

import pytest

from repro.core.config import AvailabilityPolicy
from repro.core.service import ServiceCluster
from repro.faults.injector import apply_command, apply_fault
from repro.faults.schedule import FaultEvent
from repro.gcs.settings import GcsSettings
from repro.net.cluster import live_cluster
from repro.net.faults import FaultPlane, FaultyTransport
from repro.net.replay import ReplayTransport
from repro.services import VodApplication, build_movie
from repro.sim.engine import Simulator

SERVERS = ["s0", "s1", "s2"]
NODES = [*SERVERS, "c0"]

#: partition with an implicit residual component ({s2, c0}), asymmetric
#: cuts (one restored, one left standing across the heal), heal, clear all
SEQUENCE = [
    ("partition", {"components": [["s0"], ["s1"]]}),
    ("cut_link", {"a": "s2", "b": "c0", "symmetric": False}),
    ("cut_link", {"a": "s1", "b": "s0", "symmetric": False}),
    ("restore_link", {"a": "s2", "b": "c0", "symmetric": False}),
    ("heal", {}),
    ("clear_all", {}),
]

#: the control channel's names for the same faults
_COMMAND_OPS = {"heal": "heal_partition"}


def _units():
    return {"m0": VodApplication({"m0": build_movie("m0", duration_seconds=60.0)})}


def _sim_cluster():
    cluster = ServiceCluster.build(n_servers=len(SERVERS), units=_units(), seed=1)
    cluster.add_client("c0")
    return cluster


def _live_cluster():
    plane = FaultPlane()
    transports = {node: FaultyTransport(ReplayTransport(node)) for node in NODES}
    for node, transport in transports.items():
        plane.adopt(node, transport)
    return live_cluster(
        Simulator(),
        transports,
        SERVERS,
        _units(),
        AvailabilityPolicy(),
        GcsSettings(),
        faults=plane,
    )


def _apply(cluster, path, kind, args):
    if kind == "clear_all":
        # no schedule kind clears everything: it is the heal sweep's step
        apply_command(cluster.faults, {"op": "clear_all"})
    elif path == "event":
        apply_fault(cluster, FaultEvent(time=0.0, kind=kind, args=args))
    else:
        command = {"op": _COMMAND_OPS.get(kind, kind), **args}
        if "a" in command:
            command["src"] = command.pop("a")
            command["dst"] = command.pop("b")
        apply_command(cluster.faults, command)


def _matrix(cluster):
    connected = (
        cluster.network.topology.connected
        if cluster.network is not None
        else cluster.faults.connected
    )
    return {
        (src, dst): connected(src, dst) for src in NODES for dst in NODES if src != dst
    }


def _fault_records(cluster):
    return [
        (event.time, event.node, event.category, event.detail)
        for event in cluster.trace_log().events
        if event.category.startswith("fault.")
    ]


@pytest.mark.parametrize("path", ["event", "command"])
def test_sim_and_live_surfaces_agree_after_every_fault(path):
    sim, live = _sim_cluster(), _live_cluster()
    cut = []
    for kind, args in SEQUENCE:
        _apply(sim, path, kind, args)
        _apply(live, path, kind, args)
        assert _matrix(sim) == _matrix(live), kind
        assert _fault_records(sim) == _fault_records(live), kind
        cut.append({pair for pair, up in _matrix(live).items() if not up})
    # the sequence really moves the matrix: s2 and c0 share the residual
    # component, the cuts are one-way, heal leaves the cut layer alone,
    # and clear all lifts everything
    assert cut[0] == {
        (a, b) for a in NODES for b in NODES if a != b and {a, b} & {"s0", "s1"}
    }
    assert ("s2", "c0") in cut[1] and ("c0", "s2") not in cut[1]
    assert cut[4] == {("s1", "s0")}
    assert cut[5] == set()
    expected = ["fault.partition", "fault.cut_link", "fault.cut_link",
                "fault.restore_link", "fault.heal"] if path == "event" else []
    assert [record[2] for record in _fault_records(sim)] == expected
