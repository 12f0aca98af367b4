"""Chaos on the live wire: real-socket runs, the planted live-mode bug,
and bit-reproducible replay from the ingress frame log.

These tests run wall-clock seconds each (the pacer runs the simulator
against real time), so the phases are kept as short as the live_lan
timings allow.
"""

import json

import pytest

from repro.chaos import ChaosConfig, replay, run_schedule, write_artifact
from repro.chaos.live import replay_live
from repro.faults.schedule import FaultSchedule
from repro.net.replay import IngressLog


def _clean_config(**overrides):
    base = dict(
        n_servers=3,
        n_sessions=1,
        duration=1.0,
        establish=1.5,
        settle=1.5,
        profile="partitions",
        mode="live",
    )
    base.update(overrides)
    return ChaosConfig(**base)


@pytest.fixture(scope="module")
def planted_run():
    """One live 5-node run of the partition-amnesia plant under a
    partition + heal schedule (shared: live runs cost wall seconds)."""
    config = _clean_config(
        n_servers=5,
        duration=2.5,
        establish=2.0,
        settle=2.5,
        plant="partition-amnesia",
    )
    schedule = (
        FaultSchedule()
        .partition(0.3, ["s0", "s1", "c0"], ["s2", "s3", "s4"])
        .heal(1.8)
    )
    result = run_schedule(config, seed=7, schedule=schedule)
    return config, schedule, result


def test_clean_live_run_replays_bit_identically():
    config = _clean_config()
    result = run_schedule(config, seed=11, schedule=FaultSchedule())
    assert result.mode == "live"
    assert not result.violations
    assert result.responses > 0
    assert result.replay_log  # the ingress frame log rode along
    replayed = replay_live(config, 11, FaultSchedule(), result.replay_log)
    assert replayed.digest == result.digest
    assert not replayed.violations


def test_partition_amnesia_fires_on_the_live_wire(planted_run):
    _config, _schedule, result = planted_run
    # both sides evict each other, the heal never re-merges the views,
    # and two primaries persist into the settle phase
    assert "convergence" in result.oracle_names()
    assert result.mode == "live"
    assert result.replay_log


def test_planted_failure_replays_bit_identically(planted_run):
    config, schedule, result = planted_run
    replayed = replay_live(config, 7, schedule, result.replay_log)
    assert replayed.digest == result.digest
    assert replayed.oracle_names() == result.oracle_names()


def test_planted_failure_replays_bit_identically_under_cpu_contention(cpu_hogs):
    """The live run shares the CPU with two busy loops, so the pacer
    lags and frames land late — the replay must still match it."""
    config = _clean_config(plant="partition-amnesia")
    schedule = FaultSchedule().partition(0.3, ["s0", "c0"], ["s1", "s2"]).heal(0.8)
    result = run_schedule(config, seed=5, schedule=schedule)
    replayed = replay_live(config, 5, schedule, result.replay_log)
    assert replayed.digest == result.digest
    assert replayed.oracle_names() == result.oracle_names()


def test_replay_rejects_a_logged_frame_that_cannot_run():
    """A live run logs only frames that ran, so a record the replay does
    not execute (here: stamped past the run's end) is a corrupt log."""
    config = _clean_config()
    log = IngressLog()
    log.record("s0", 1e6, 0, b"frame")
    with pytest.raises(ValueError, match="did not run"):
        replay_live(config, 11, FaultSchedule(), log.to_blob())


def test_live_artifact_roundtrip_and_digest_gate(tmp_path, planted_run):
    config, schedule, result = planted_run
    path = write_artifact(
        tmp_path / "live-artifact.json",
        config=config,
        seed=7,
        schedule=schedule,
        violations=result.violations,
        profile="partitions",
        original_event_count=len(schedule),
        shrink_runs=0,
        mode=result.mode,
        trace_digest=result.digest,
        replay_log=result.replay_log,
    )
    rerun, recorded, reproduced = replay(path)
    assert reproduced
    assert rerun.digest == result.digest
    assert {v["oracle"] for v in recorded} <= rerun.oracle_names()

    # a tampered digest must flip the verdict even though the oracles
    # still fire — "reproduced" means bit-for-bit, not just "same bug"
    data = json.loads(path.read_text())
    data["trace_digest"] = "0" * 64
    path.write_text(json.dumps(data))
    _rerun, _recorded, reproduced = replay(path)
    assert not reproduced


def test_live_mode_config_validation():
    with pytest.raises(ValueError):
        ChaosConfig(mode="hybrid")
    with pytest.raises(ValueError):
        ChaosConfig(wan_profile="us-eu")  # wan requires live mode
    config = ChaosConfig(mode="live", wan_profile="us-eu")
    assert config.wan_profile == "us-eu"


def test_cli_rejects_live_with_workers(capsys):
    from repro.__main__ import main

    assert main(["chaos", "--live", "--workers", "2"]) == 2
    assert "--workers 1" in capsys.readouterr().err


def test_cli_rejects_wan_without_live(capsys):
    from repro.__main__ import main

    assert main(["chaos", "--wan", "us-eu"]) == 2
    assert "wan_profile requires mode='live'" in capsys.readouterr().err
