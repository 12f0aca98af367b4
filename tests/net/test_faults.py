"""The fault-injecting transport: severing, delay, chaos knobs, WAN
profiles, the fault plane, and the runtime control channel."""

import asyncio
import json

from repro.net.codec import encode_frame
from repro.net.faults import (
    WAN_PROFILES,
    FaultControlServer,
    FaultPlane,
    FaultyTransport,
    wan_profile,
)
from repro.net.transport import UdpLoopbackTransport, create_transport


def _run(coro):
    return asyncio.run(coro)


async def _wait_for(predicate, timeout=5.0, interval=0.01):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


async def _pair(seed=0):
    """Two faulty UDP transports wired to each other."""
    ta = FaultyTransport(UdpLoopbackTransport("a"), seed=seed)
    tb = FaultyTransport(UdpLoopbackTransport("b"), seed=seed)
    await ta.start()
    await tb.start()
    ta.set_peer("b", *tb.address)
    tb.set_peer("a", *ta.address)
    return ta, tb


def test_passthrough_with_no_faults():
    async def scenario():
        ta, tb = await _pair()
        got = []
        tb.on_frame = got.append
        ta.send("b", b"hello")
        await _wait_for(lambda: got)
        await ta.close()
        await tb.close()
        assert got == [b"hello"]
        assert ta.faults.as_dict() == {
            "severed_drops": 0,
            "in_flight_killed": 0,
            "dropped": 0,
            "duplicated": 0,
            "reordered": 0,
            "delayed": 0,
        }

    _run(scenario())


def test_registry_has_faulty_backends():
    for name in ("faulty-tcp", "faulty-udp"):
        transport = create_transport(name, "x")
        assert isinstance(transport, FaultyTransport)


def test_sever_is_directional():
    async def scenario():
        ta, tb = await _pair()
        got_a, got_b = [], []
        ta.on_frame = got_a.append
        tb.on_frame = got_b.append
        ta.sever("b")
        ta.send("b", b"lost")
        tb.send("a", b"heard")  # the reverse direction still works
        await _wait_for(lambda: got_a)
        assert got_a == [b"heard"]
        assert got_b == []
        assert ta.faults.severed_drops == 1
        ta.restore("b")
        ta.send("b", b"healed")
        await _wait_for(lambda: got_b)
        await ta.close()
        await tb.close()
        assert got_b == [b"healed"]

    _run(scenario())


def test_sever_tags_are_independent_layers():
    async def scenario():
        ta, tb = await _pair()
        ta.sever("b", tag="partition")
        ta.sever("b", tag="cut")
        ta.restore("b", tag="partition")
        # the cut layer still holds the link down
        got = []
        tb.on_frame = got.append
        ta.send("b", b"x")
        await asyncio.sleep(0.05)
        assert got == []
        ta.restore("b", tag="cut")
        ta.send("b", b"y")
        await _wait_for(lambda: got)
        await ta.close()
        await tb.close()

    _run(scenario())


def test_same_seed_same_drop_decisions():
    """The per-link RNG is a pure function of (seed, src, dst): two runs
    with the same seed drop exactly the same frame indices."""

    def decisions(seed):
        transport = FaultyTransport(UdpLoopbackTransport("a"), seed=seed)
        transport.set_drop("b", 0.5)
        link = transport._link("b")
        return [bool(link.rng.random(4)[0] < 0.5) for _ in range(64)]

    assert decisions(7) == decisions(7)
    assert decisions(7) != decisions(8)


def test_delay_holds_frames_and_duplicate_copies():
    async def scenario():
        ta, tb = await _pair()
        got = []
        tb.on_frame = got.append
        ta.set_extra_delay("b", 0.05)
        ta.set_duplication(1.0)
        loop = asyncio.get_running_loop()
        started = loop.time()
        frame = encode_frame("slow")  # real framing so the batch splits
        ta.send("b", frame)
        await _wait_for(lambda: len(got) == 2)
        elapsed = loop.time() - started
        await ta.close()
        await tb.close()
        assert got == [frame, frame]
        assert elapsed >= 0.04
        assert ta.faults.delayed == 1
        assert ta.faults.duplicated == 1

    _run(scenario())


def test_sever_kills_in_flight_frames():
    async def scenario():
        ta, tb = await _pair()
        got = []
        tb.on_frame = got.append
        ta.set_extra_delay("b", 0.05)
        ta.send("b", b"doomed")
        ta.sever("b")  # cut while the frame is still in flight
        await asyncio.sleep(0.15)
        await ta.close()
        await tb.close()
        assert got == []
        assert ta.faults.in_flight_killed == 1

    _run(scenario())


def test_plane_partition_uses_implicit_residual_component():
    """Unmentioned nodes share one implicit component — mirroring the
    simulated topology — rather than each being isolated alone."""
    transports = {n: FaultyTransport(UdpLoopbackTransport(n)) for n in "abcd"}
    plane = FaultPlane()
    for node, transport in transports.items():
        plane.adopt(node, transport)
    plane.partition(["a"])  # b, c, d land in the implicit component

    def severed(src, dst):
        link = transports[src]._links.get(dst)
        return link is not None and link.severed

    assert severed("a", "b") and severed("b", "a")
    assert not severed("b", "c") and not severed("c", "d")
    plane.heal_partition()
    assert not severed("a", "b")


def test_plane_heal_partition_leaves_cut_layer_alone():
    transports = {n: FaultyTransport(UdpLoopbackTransport(n)) for n in "ab"}
    plane = FaultPlane()
    for node, transport in transports.items():
        plane.adopt(node, transport)
    plane.cut_link("a", "b", symmetric=False)
    plane.partition(["a"], ["b"])
    plane.heal_partition()
    assert transports["a"]._link("b").severed  # the cut survives
    assert not transports["b"]._link("a").severed
    plane.restore_link("a", "b", symmetric=False)
    assert not transports["a"]._link("b").severed


def test_wan_profile_installs_latency_matrix():
    transports = {n: FaultyTransport(UdpLoopbackTransport(n)) for n in ("s0", "s1", "s2")}
    plane = FaultPlane()
    for node, transport in transports.items():
        plane.adopt(node, transport)
    profile = wan_profile("us-eu")
    assignment = profile.install(plane)
    # round-robin over sorted names: s0->us, s1->eu, s2->us
    assert assignment == {"s0": "us", "s1": "eu", "s2": "us"}
    intra = transports["s0"]._link("s2")
    inter = transports["s0"]._link("s1")
    assert intra.base_delay == profile.intra[0]
    assert inter.base_delay == profile.inter["eu-us"][0]
    assert profile.settings_factor > 1.0
    assert set(WAN_PROFILES) == {"us-eu", "global"}


def test_control_channel_applies_and_rejects_commands():
    async def scenario():
        ta, tb = await _pair()
        plane = FaultPlane()
        plane.adopt("a", ta)
        plane.adopt("b", tb)
        control = FaultControlServer(plane)
        host, port = await control.start()
        reader, writer = await asyncio.open_connection(host, port)

        async def command(obj):
            writer.write(json.dumps(obj).encode() + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())

        assert (await command({"op": "cut_link", "src": "a", "dst": "b"}))["ok"]
        assert ta._link("b").severed and tb._link("a").severed
        reply = await command({"op": "no-such-op"})
        assert not reply["ok"] and "unknown fault op" in reply["error"]
        # untrusted input fails closed with the checks schedules get: a
        # component must be a list of ids, not a string to split into
        # characters; probabilities lie in [0, 1); delays are >= 0
        for bad in (
            {"op": "partition", "components": ["ab"]},
            {"op": "set_duplication", "probability": 5},
            {"op": "set_link_delay", "src": "a", "dst": "b", "extra": -1},
        ):
            reply = await command(bad)
            assert not reply["ok"], bad
        assert ta._link("b").severed and not ta._link("b").extra_delay
        assert ta.dup_p == 0.0 and not ta._link("b").severed_by - {"cut"}
        assert (await command({"op": "clear_all"}))["ok"]
        assert not ta._link("b").severed
        writer.close()
        await control.close()
        await ta.close()
        await tb.close()

    _run(scenario())
