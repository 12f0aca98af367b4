"""Chaos exploration engine: randomized fault-space search with invariant
oracles, deterministic replay, and schedule shrinking.

The paper argues its framework keeps sessions highly available under the
failures Section 4 enumerates; this package searches for counterexamples
instead of hand-picking scenarios.  A seeded explorer draws layered
random fault schedules (crashes, partitions, gray failures, message
adversity, crash-at-protocol-step traps), drives a live cluster through
them, and checks invariant oracles.  Violations are delta-debugged to a
minimal schedule and persisted as replayable repro artifacts.
"""

from repro.chaos.artifact import load_artifact, write_artifact
from repro.chaos.config import PLANTS, ChaosConfig
from repro.chaos.engine import ExplorationReport, IterationOutcome, explore, replay
from repro.chaos.generator import PROFILES, generate_schedule, resolve_profile
from repro.chaos.live import replay_live, run_live_schedule
from repro.chaos.oracles import ORACLES, RunObservation, Violation, run_oracles
from repro.chaos.runner import RunResult, disruption_spans, run_schedule, trace_digest
from repro.chaos.shrink import shrink_events

__all__ = [
    "ChaosConfig",
    "ExplorationReport",
    "IterationOutcome",
    "ORACLES",
    "PLANTS",
    "PROFILES",
    "RunObservation",
    "RunResult",
    "Violation",
    "disruption_spans",
    "explore",
    "generate_schedule",
    "load_artifact",
    "replay",
    "replay_live",
    "resolve_profile",
    "run_oracles",
    "run_live_schedule",
    "run_schedule",
    "shrink_events",
    "trace_digest",
    "write_artifact",
]
