"""The live runtime adapter: pacing, ingress, and local/remote split."""

import asyncio

from repro.net.codec import WireEnvelope, encode_frame
from repro.net.replay import IngressLog, ReplayTransport
from repro.net.runtime import LiveNetwork, LiveRuntime
from repro.net.transport import UdpLoopbackTransport
from repro.sim.engine import Simulator


def _run(coro):
    return asyncio.run(coro)


async def _wait_for(predicate, timeout=5.0, interval=0.01):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


def test_next_event_time_skips_cancelled():
    sim = Simulator()
    early = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.next_event_time() == 1.0
    early.cancel()
    assert sim.next_event_time() == 2.0


def test_runtime_paces_sim_against_wall_clock():
    async def scenario():
        sim = Simulator()
        fired = []
        sim.schedule(0.15, lambda: fired.append(sim.now))
        runtime = LiveRuntime(sim, max_tick=0.02)
        loop = asyncio.get_running_loop()
        started = loop.time()
        await runtime.run(0.3)
        elapsed = loop.time() - started
        assert fired == [0.15]
        assert sim.now == 0.3
        # wall time tracks sim time (loosely: CI boxes stall)
        assert 0.25 <= elapsed < 3.0

    _run(scenario())


def test_runtime_stop_interrupts_run():
    async def scenario():
        sim = Simulator()
        runtime = LiveRuntime(sim, max_tick=0.02)

        async def stopper():
            await asyncio.sleep(0.05)
            runtime.stop()

        loop = asyncio.get_running_loop()
        started = loop.time()
        await asyncio.gather(runtime.run(30.0), stopper())
        assert loop.time() - started < 5.0

    _run(scenario())


def test_live_network_local_and_remote_paths():
    async def scenario():
        sim = Simulator()
        runtime = LiveRuntime(sim, max_tick=0.02)
        ta, tb = UdpLoopbackTransport("a"), UdpLoopbackTransport("b")
        await ta.start()
        await tb.start()
        na = LiveNetwork(sim, ta, wake=runtime.wake)
        nb = LiveNetwork(sim, tb, wake=runtime.wake)
        ta.set_peer("b", *tb.address)
        tb.set_peer("a", *ta.address)
        got_a, got_b = [], []
        na.attach("a", lambda m: got_a.append(m), lambda: True)
        na.attach("a2", lambda m: got_a.append(m), lambda: True)
        nb.attach("b", lambda m: got_b.append(m), lambda: True)

        def kick():
            na.send("a", "a2", {"local": True}, kind="loc", size=3)
            na.send("a", "b", {"remote": True}, kind="rem", size=7)

        sim.schedule(0.01, kick)
        task = asyncio.get_running_loop().create_task(runtime.run(10.0))
        await _wait_for(lambda: got_a and got_b)
        runtime.stop()
        await task
        await ta.close()
        await tb.close()
        # local hop never touched the socket
        assert got_a[0].payload == {"local": True}
        assert ta.stats.frames_sent == 1
        # remote hop crossed it, with actual bytes accounted by kind
        assert got_b[0].payload == {"remote": True}
        assert got_b[0].kind == "rem"
        assert na.actual_bytes_sent["rem"] == ta.stats.bytes_sent
        assert nb.actual_bytes_received["rem"] == tb.stats.bytes_received
        # sender-side abstract accounting mirrors the parent's
        assert na.total_sent == 2

    _run(scenario())


def test_live_network_rejects_garbage_frames():
    async def scenario():
        sim = Simulator()
        transport = UdpLoopbackTransport("a")
        await transport.start()
        network = LiveNetwork(sim, transport)
        network._ingress(b"\x00\x00\x00\x01\x63")  # bad version
        network._ingress(encode_frame("not an envelope"))
        # ingress only schedules; decoding (and rejection) happens
        # inside the event loop
        sim.run_until(0.0)
        await transport.close()
        assert network.frames_rejected == 2

    _run(scenario())


def test_frame_landing_after_the_last_slice_is_not_logged():
    """A frame that arrives while the run shuts down is scheduled at the
    end time but never executed, so the ingress log must not hold it
    (a replay would execute it and diverge from the live run)."""

    async def scenario():
        sim = Simulator()
        runtime = LiveRuntime(sim)
        log = IngressLog()
        transport = ReplayTransport("a")
        network = LiveNetwork(
            sim, transport, wake=runtime.wake, node_id="a", recorder=log.record
        )
        transport.on_frame(b"early")
        await runtime.run(0.05)
        transport.on_frame(b"late")  # after the pacer's last slice
        return network, log

    network, log = _run(scenario())
    assert [record.frame for record in log.records] == [b"early"]
    assert network.frames_rejected == 1  # only the early frame ran


def test_measure_frame_reports_actual_bytes():
    async def scenario():
        sim = Simulator()
        transport = UdpLoopbackTransport("a")
        await transport.start()
        network = LiveNetwork(sim, transport)
        payload = WireEnvelope("a", "b", "k", 1, ["data"] * 10)
        assert network.measure_frame(payload) == len(encode_frame(payload))
        await transport.close()

    _run(scenario())
