"""The three workloads: ``search_open``, ``vod_failover``, ``sim_sweep``.

Each ``run_*`` function takes the workload seed, the measured seconds and
an optional :class:`~ledger.Ledger` (the traced run), drives the
unchanged program through its public API, checks every output, and
returns an :class:`Outcome`.  Inputs (arrival times, query chains, skip
targets, chaos seeds) derive from the seed alone; the program receives
only those generated inputs.
"""

from __future__ import annotations

import asyncio
import random
import resource
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Iterator

import repro.chaos.engine as chaos_engine
from repro.chaos.config import ChaosConfig
from repro.core.client import SessionHandle
from repro.core.config import AvailabilityPolicy
from repro.core.service import ServiceCluster
from repro.core.wire import ResponseMsg, SessionDenied, SessionStarted
from repro.gcs.settings import GcsSettings
from repro.metrics.session_audit import lost_acked_updates, multi_primary_time
from repro.metrics.windows import multi_primary_time_within, subtract_intervals
from repro.services import SearchApplication, VodApplication, build_corpus, build_movie
from repro.services.content import VOCABULARY

import livecluster
from ledger import Ledger, add, cluster_counters, delta
from measure import (
    backlog_grows,
    latencies_from_intended,
    percentile,
    poisson_arrivals,
    tail,
)

#: a live run's setup is repeated this many times; the median counts
SETUPS = 3
#: seconds after the last send before an unanswered request is failed
DRAIN = 1.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    problems: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: seconds each repeated set-up took (the median enters ``setup_s``)
    setups: list[float] = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _hook_client(client: Any, on_response: Any, on_started: Any = None) -> None:
    """Observe every reply the client handles, stamped on the wall clock
    (the client's own bookkeeping runs first, unchanged)."""
    handle_ptp = client.on_ptp

    def on_ptp(sender: Any, payload: Any) -> None:
        handle_ptp(sender, payload)
        now = time.perf_counter()
        if isinstance(payload, ResponseMsg):
            on_response(now, sender, payload)
        elif on_started is not None and isinstance(payload, (SessionStarted, SessionDenied)):
            on_started(now, payload)

    client.on_ptp = on_ptp


async def _setup_live(
    unit: str, application: Any, policy: AvailabilityPolicy, audit: bool, ledger: Ledger | None
) -> tuple[Any, SessionHandle, list[float]]:
    """Boot the cluster :data:`SETUPS` times, each to its first confirmed
    session; keep the last one.  The traced run wraps the program just
    before the kept boot, so its spans cover one cluster's whole life."""
    times: list[float] = []
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        if last and ledger is not None:
            ledger.install(type(application))
        started = time.perf_counter()
        cluster = await livecluster.boot(unit, application, policy, audit=audit)
        try:
            handle = await livecluster.first_session(cluster, unit)
        except BaseException:
            await livecluster.close(cluster)
            raise
        times.append(time.perf_counter() - started)
        if not last:
            await livecluster.close(cluster)
    return cluster, handle, times


def _live_counters(cluster: Any) -> dict[str, float]:
    return cluster_counters(
        [(network, [node]) for node, network in cluster.networks.items()],
        cluster.servers.values(),
        [cluster.client],
        cluster.sim,
        cluster.transports.values(),
        live=True,
    )


async def _pace(cluster: Any, seconds: float, guard: float) -> bool:
    """Pace for ``seconds``; False when the pacer fell ``guard`` seconds
    behind the wall clock (an overloaded cluster) and was cut off."""
    try:
        await asyncio.wait_for(cluster.runtime.run(seconds), timeout=seconds + guard)
    except asyncio.TimeoutError:
        return False
    return True


# ======================================================================
# search_open: open-loop Poisson queries against SearchApplication
# ======================================================================
SEARCH_UNIT = "papers"
SEARCH_SESSIONS = 16
BASE_RATE = 40.0
LADDER = (60.0, 90.0, 135.0, 200.0, 300.0, 450.0)
LATENCY_LIMIT_MS = 50.0
MAX_FAILED_SHARE = 0.01
CHAIN = ("query", "refine", "after")


class _Reference(SearchApplication):
    """The reference evaluator for search replies: the application's own
    update function, bound before a traced run wraps the class, so the
    check is never charged to the application layer."""

    apply_update = SearchApplication.apply_update
    initial_state = SearchApplication.initial_state


@dataclass
class _Query:
    session_id: str
    counter: int
    index: int
    due: float
    rung: int
    expected: list[int]
    handled: float | None = None
    wrong: bool = False


class _SearchLoad:
    """The open-loop generator and the searcher-session pool.

    Arrivals are due on a Poisson schedule fixed by the seed.  Each is
    sent on the next ready session (round robin), whose next chain step
    it becomes; a session that has sent its last step ends once that
    step is answered and a fresh session replaces it.  Arrivals that
    find no ready session wait in a FIFO; their latency still counts
    from the time they were due."""

    def __init__(self, cluster: Any, seed: int, reference: SearchApplication) -> None:
        self.client = cluster.client
        self.reference = reference
        self.chain_rng = random.Random(seed * 7919 + 1)
        self.ready: deque[SessionHandle] = deque()
        self.chains: dict[str, list[dict[str, Any]]] = {}
        self.step: dict[str, int] = {}
        self.state: dict[str, Any] = {}
        self.waiting: deque[tuple[float, int]] = deque()
        self.queries: dict[tuple[str, int], _Query] = {}
        self.rung_queries: dict[int, list[_Query]] = {}
        self.replies = 0
        self.wrong = 0
        self.sessions_started = 0
        self.sessions_denied = 0
        self.lag: list[float] = []
        self.active = True
        _hook_client(self.client, self._on_response, self._on_session)

    # --- session pool -------------------------------------------------
    def _chain(self) -> list[dict[str, Any]]:
        rng = self.chain_rng
        return [
            {"op": "query", "terms": [rng.choice(VOCABULARY)]},
            {"op": "refine", "base": 0, "terms": [rng.choice(VOCABULARY)]},
            {"op": "after", "base": 1, "year": rng.randint(1986, 1999)},
        ]

    def adopt(self, handle: SessionHandle) -> None:
        """A confirmed session joins the pool with a fresh query chain."""
        self.chains[handle.session_id] = self._chain()
        self.step[handle.session_id] = 0
        self.state[handle.session_id] = self.reference.initial_state(SEARCH_UNIT, None)
        self.sessions_started += 1
        self.ready.append(handle)
        self._dispatch()

    def open_session(self) -> None:
        self.client.start_session(SEARCH_UNIT)

    def _on_session(self, now: float, payload: Any) -> None:
        handle = self.client.sessions.get(payload.session_id)
        if handle is None:
            return
        if isinstance(payload, SessionStarted):
            if handle.session_id not in self.chains:
                self.adopt(handle)
        elif self.active:
            self.sessions_denied += 1
            self.open_session()

    # --- the generator ------------------------------------------------
    def arrive(self, due: float, rung: int) -> None:
        self.lag.append(time.perf_counter() - due)
        self.waiting.append((due, rung))
        self._dispatch()

    def _dispatch(self) -> None:
        while self.waiting and self.ready:
            due, rung = self.waiting.popleft()
            handle = self.ready.popleft()
            sid = handle.session_id
            step = self.step[sid]
            update = self.chains[sid][step]
            counter = self.client.send_update(handle, update)
            state = self.reference.apply_update(self.state[sid], update)
            self.state[sid] = state
            expected = list(state.result_sets[-1]) if state.result_sets else []
            query = _Query(sid, counter, len(state.result_sets) - 1, due, rung, expected)
            self.queries[(sid, query.index)] = query
            self.rung_queries.setdefault(rung, []).append(query)
            self.step[sid] = step + 1
            if step + 1 < len(CHAIN):
                self.ready.append(handle)

    def _on_response(self, now: float, sender: Any, payload: ResponseMsg) -> None:
        self.replies += 1
        # a response names the result set it reports; after a takeover the
        # new primary may report several at once, each based on the latest
        # update it applied
        query = self.queries.get((payload.session_id, payload.index))
        if query is None:
            return
        body = payload.body if isinstance(payload.body, dict) else {}
        if payload.based_on_update < query.counter or body.get("doc_ids") != query.expected:
            if not query.wrong:
                query.wrong = True
                self.wrong += 1
        if query.handled is None:
            query.handled = now
            if query.index == len(CHAIN) - 1 and self.active:
                handle = self.client.sessions[payload.session_id]
                self.client.end_session(handle)
                self.open_session()

    def outstanding(self) -> int:
        return len(self.waiting) + sum(
            1 for q in self.queries.values() if q.handled is None
        )


def _rung_verdict(queries: list[_Query], samples: list[tuple[float, float]], rate: float) -> dict[str, Any]:
    """Latency tail (unanswered requests count as infinitely late),
    failed share and backlog trend of one rung."""
    lat, missing = latencies_from_intended(
        [q.due for q in queries], [q.handled for q in queries]
    )
    failed = missing + sum(1 for q in queries if q.wrong and q.handled is not None)
    lat_ms = [v * 1e3 for v in lat] + [float("inf")] * missing
    pct, p_tail = tail(lat_ms)
    share = failed / len(queries) if queries else 1.0
    grows = backlog_grows(samples, rate)
    ok = (
        bool(queries)
        and p_tail is not None
        and p_tail <= LATENCY_LIMIT_MS
        and share <= MAX_FAILED_SHARE
        and not grows
    )
    return {
        "rate_qps": rate,
        "requests": len(queries),
        "tail_pct": pct,
        "tail_ms": p_tail if p_tail != float("inf") else None,
        "failed_share": share,
        "backlog_grows": grows,
        "ok": ok,
    }


async def run_search_open(seed: int, seconds: float, ledger: Ledger | None = None) -> Outcome:
    corpus = build_corpus(SEARCH_UNIT, n_documents=300, seed=9)
    application = SearchApplication({SEARCH_UNIT: corpus})
    reference = _Reference({SEARCH_UNIT: corpus})
    policy = AvailabilityPolicy(num_backups=1)
    cluster, first, boot_times = await _setup_live(
        SEARCH_UNIT, application, policy, audit=False, ledger=ledger
    )
    try:
        return await _search_measure(cluster, first, boot_times, seed, seconds, reference, ledger)
    finally:
        await livecluster.close(cluster)


async def _search_measure(
    cluster: Any,
    first: SessionHandle,
    boot_times: list[float],
    seed: int,
    seconds: float,
    reference: SearchApplication,
    ledger: Ledger | None,
) -> Outcome:
    sim = cluster.sim
    load = _SearchLoad(cluster, seed, reference)
    load.adopt(first)
    for _ in range(SEARCH_SESSIONS - 1):
        load.open_session()
    await livecluster.run_until(
        cluster, lambda: load.sessions_started >= SEARCH_SESSIONS, timeout=5.0
    )
    view_counter = lambda: max(s.daemon.membership.view_counter for s in cluster.servers.values())

    base_len = 0.5 * seconds
    rung_len = max(1.0, 0.5 * seconds / len(LADDER))
    rungs = [(BASE_RATE, base_len)] + [(rate, rung_len) for rate in LADDER]
    samples: dict[int, list[tuple[float, float]]] = {}
    verdicts: list[dict[str, Any]] = []
    marks: dict[str, float] = {}
    before = _live_counters(cluster)
    if ledger is not None:
        ledger.reset_spans()
    sim_origin = sim.now
    wall_origin = time.perf_counter()

    def wall(t: float) -> float:
        return wall_origin + (t - sim_origin)

    def start_rung(index: int, t0: float) -> None:
        rate, length = rungs[index]
        rng = random.Random(seed * 1_000_003 + index)
        for t in poisson_arrivals(rng, rate, t0, length):
            sim.schedule_at(t, lambda t=t: load.arrive(wall(t), index), label="bench:arrival")
        for k in range(1, int(length / 0.25) + 1):
            sim.schedule_at(t0 + k * 0.25, lambda i=index: sample(i), label="bench:sample")
        sim.schedule_at(t0 + length, lambda: end_rung(index, t0 + length), label="bench:rung-end")
        sim.schedule_at(t0 + length + DRAIN, lambda: decide(index), label="bench:decide")

    def sample(index: int) -> None:
        samples.setdefault(index, []).append((sim.now, load.outstanding()))

    def end_rung(index: int, t_end: float) -> None:
        if index == 0:
            marks["base_cpu"] = time.process_time()
            marks["base_replies"] = load.replies
            marks["base_views"] = view_counter()
            # the ladder's failing rung grows a backlog whose size depends
            # on where the knee falls: memory is a base-rate figure too
            marks["base_rss_mb"] = peak_rss_mb()
        if index + 1 < len(rungs) and not (verdicts and not verdicts[-1]["ok"]):
            start_rung(index + 1, t_end)

    def decide(index: int) -> None:
        verdict = _rung_verdict(load.rung_queries.get(index, []), samples.get(index, []), rungs[index][0])
        verdicts.append(verdict)
        if not verdict["ok"] or index + 1 == len(rungs):
            cluster.runtime.stop()

    start_rung(0, sim.now)
    marks["start_cpu"] = time.process_time()
    marks["start_replies"] = load.replies
    marks["start_views"] = view_counter()
    total = sum(length for _, length in rungs) + DRAIN
    finished = await _pace(cluster, total, guard=10.0)
    load.active = False
    end_wall = time.perf_counter()
    sim_elapsed = sim.now - sim_origin
    if not finished and len(verdicts) < len(rungs):
        # the pacer fell behind the clock: the rung in progress failed
        index = len(verdicts)
        verdict = _rung_verdict(load.rung_queries.get(index, []), samples.get(index, []), rungs[index][0])
        verdict["ok"] = False
        verdict["pacer_cut_off"] = True
        verdicts.append(verdict)

    # --- base-rate figures ------------------------------------------------
    base = load.rung_queries.get(0, [])
    lat, missing = latencies_from_intended([q.due for q in base], [q.handled for q in base])
    lat_ms = [v * 1e3 for v in lat]
    pct, p_tail = tail(lat_ms)
    base_cpu = marks.get("base_cpu", time.process_time()) - marks["start_cpu"]
    base_replies = marks.get("base_replies", load.replies) - marks["start_replies"]
    capacity = 0.0
    for verdict in verdicts:
        if not verdict["ok"]:
            break
        capacity = verdict["rate_qps"]
    wrong = load.wrong
    base_failed = missing + sum(1 for q in base if q.wrong)
    problems = []
    if wrong:
        problems.append(f"{wrong} replies differ from the reference evaluation")
    if not base:
        problems.append("no requests were sent at the base rate")
    if pct is None:
        problems.append("too few answered base-rate requests for a latency figure")
    metrics = {
        "reply_ms_p50": percentile(lat_ms, 50.0) if lat_ms else 0.0,
        "reply_ms_p99": p_tail or 0.0,
        "cpu_ms_per_req": base_cpu * 1e3 / max(base_replies, 1),
        "sim_s_per_wall_s": sim_elapsed / (end_wall - wall_origin),
        "peak_rss_mb": marks.get("base_rss_mb", peak_rss_mb()),
    }
    lag_ms = [v * 1e3 for v in load.lag]
    details = {
        "reply_ms_p99_percentile": pct,
        "reply_samples": len(lat_ms),
        "base_rate_qps": BASE_RATE,
        "base_seconds": base_len,
        "capacity_qps": capacity,
        "ladder": verdicts,
        "ladder_top_qps": LADDER[-1],
        "failed_share": base_failed / len(base) if base else 1.0,
        "wrong_replies": wrong,
        "sessions": SEARCH_SESSIONS,
        "sessions_started": load.sessions_started,
        "sessions_denied": load.sessions_denied,
        "pacer_lag_ms_p99": percentile(lag_ms, 99.0) if lag_ms else 0.0,
        "pacer_lag_samples": len(lag_ms),
        "base_view_changes": marks.get("base_views", view_counter()) - marks["start_views"],
    }
    outcome = Outcome(
        setups=boot_times,
        metrics=metrics,
        attempted=len(base),
        failed=base_failed,
        correct=not problems,
        problems=problems,
        details=details,
    )
    if ledger is not None:
        for q in load.queries.values():
            ledger.intended[(0, q.session_id, q.counter)] = q.due
        counters = delta(_live_counters(cluster), before)
        outcome.layers = ledger.metrics(
            counters,
            requests=max(int(counters.get("client.replies", 0)), 1),
            wall=end_wall - wall_origin,
            lag_ms=lag_ms,
            cpu_ms_per_req=metrics["cpu_ms_per_req"],
            sim_s_per_wall_s=metrics["sim_s_per_wall_s"],
        )
    return outcome


# ======================================================================
# vod_failover: streaming sessions through a crash and a recovery
# ======================================================================
VOD_UNIT = "film"
VOD_SESSIONS = 8
SKIP_RATE = 20.0
#: (crash, recover) times as fractions of the measured seconds
CRASH_CYCLES = ((0.1, 0.3),)
#: the failover period runs from this long before the crash (a request
#: sent just before it waits for the takeover) to this long after the
#: recovery (the join-type view change, state exchange and handoff);
#: steady-state reply latency, CPU per reply, frame gaps and the
#: role-overlap check cover the rest of the run, like the clean windows
#: of the program's own chaos oracles
FAILOVER_MARGINS = (0.25, 3.0)


@dataclass
class _Skip:
    session_id: str
    counter: int
    due: float
    handled: float | None = None


async def run_vod_failover(seed: int, seconds: float, ledger: Ledger | None = None) -> Outcome:
    movie = build_movie(VOD_UNIT, duration_seconds=3600, frame_rate=24)
    application = VodApplication({VOD_UNIT: movie})
    policy = AvailabilityPolicy(num_backups=1)
    cluster, first, boot_times = await _setup_live(
        VOD_UNIT, application, policy, audit=True, ledger=ledger
    )
    try:
        return await _vod_measure(cluster, first, boot_times, seed, seconds, movie, ledger)
    finally:
        await livecluster.close(cluster)


async def _vod_measure(
    cluster: Any,
    first: SessionHandle,
    boot_times: list[float],
    seed: int,
    seconds: float,
    movie: Any,
    ledger: Ledger | None,
) -> Outcome:
    sim = cluster.sim
    client = cluster.client
    frames: dict[str, list[tuple[float, Any]]] = {}
    skips: dict[str, deque[_Skip]] = {}
    all_skips: list[_Skip] = []
    responses = [0]

    def on_response(now: float, sender: Any, payload: ResponseMsg) -> None:
        responses[0] += 1
        frames.setdefault(payload.session_id, []).append((now, sender))
        waiting = skips.get(payload.session_id)
        while waiting and waiting[0].counter <= payload.based_on_update:
            waiting.popleft().handled = now

    _hook_client(client, on_response)
    handles = [first]
    for _ in range(VOD_SESSIONS - 1):
        handles.append(client.start_session(VOD_UNIT))
    await livecluster.run_until(cluster, lambda: all(h.started for h in handles), timeout=10.0)
    handles = [h for h in handles if h.started]

    rng = random.Random(seed * 7919 + 2)
    lag: list[float] = []
    crashes: list[dict[str, Any]] = []
    before = _live_counters(cluster)
    if ledger is not None:
        ledger.reset_spans()
    sim_origin = sim.now
    wall_origin = time.perf_counter()
    marks: list[tuple[float, int]] = []  # (cpu, responses) at steady-period edges

    def mark() -> None:
        marks.append((time.process_time(), responses[0]))

    mark()

    def skip(due: float, index: int, target: int) -> None:
        lag.append(time.perf_counter() - due)
        handle = handles[index]
        counter = client.send_update(handle, {"op": "skip", "to": target})
        entry = _Skip(handle.session_id, counter, due)
        skips.setdefault(handle.session_id, deque()).append(entry)
        all_skips.append(entry)
        if ledger is not None:
            ledger.intended[(0, handle.session_id, counter)] = due

    for t in poisson_arrivals(rng, SKIP_RATE, sim_origin, seconds):
        index = rng.randrange(len(handles))
        target = rng.randrange(0, movie.n_frames - 24 * 600)
        due = wall_origin + (t - sim_origin)
        sim.schedule_at(t, lambda d=due, i=index, g=target: skip(d, i, g), label="bench:skip")

    def crash() -> None:
        counts: dict[str, int] = {}
        owner: dict[str, str] = {}
        for handle in handles:
            primaries = cluster.primaries_of(handle.session_id)
            if primaries:
                owner[handle.session_id] = primaries[0]
                counts[primaries[0]] = counts.get(primaries[0], 0) + 1
        if not counts:
            return
        victim = max(sorted(counts), key=lambda s: counts[s])
        crashes.append(
            {
                "victim": victim,
                "at": time.perf_counter(),
                "sim_at": sim.now,
                "sessions": sorted(sid for sid, s in owner.items() if s == victim),
            }
        )
        cluster.servers[victim].crash()

    def recover() -> None:
        if crashes and "recovered_at" not in crashes[-1]:
            crashes[-1]["recovered_at"] = time.perf_counter()
            crashes[-1]["sim_recovered_at"] = sim.now
            cluster.servers[crashes[-1]["victim"]].recover()

    before_s, after_s = FAILOVER_MARGINS
    for crash_at, recover_at in CRASH_CYCLES:
        crash_t = sim_origin + crash_at * seconds
        recover_t = sim_origin + recover_at * seconds
        sim.schedule_at(crash_t - before_s, mark, label="bench:mark")
        sim.schedule_at(crash_t, crash, label="bench:crash")
        sim.schedule_at(recover_t, recover, label="bench:recover")
        sim.schedule_at(recover_t + after_s, mark, label="bench:mark")
    sim.schedule_at(sim_origin + seconds, mark, label="bench:mark")

    finished = await _pace(cluster, seconds + DRAIN, guard=10.0)
    end_wall = time.perf_counter()
    sim_elapsed = sim.now - sim_origin
    served = responses[0] - marks[0][1]
    # steady periods: mark pairs (start, crash edge), (recovery edge, ...)
    steady_cpu = sum(b[0] - a[0] for a, b in zip(marks[::2], marks[1::2]))
    steady_replies = sum(b[1] - a[1] for a, b in zip(marks[::2], marks[1::2]))

    # --- takeover and frame gaps -----------------------------------------
    takeovers: list[float] = []
    no_takeover = 0
    windows = [
        (event["at"] - before_s, event.get("recovered_at", end_wall) + after_s)
        for event in crashes
    ]
    for event in crashes:
        for sid in event["sessions"]:
            later = [t for t, sender in frames.get(sid, []) if t > event["at"] and sender != event["victim"]]
            if later:
                takeovers.append((later[0] - event["at"]) * 1e3)
            else:
                no_takeover += 1
    gaps: list[float] = []
    for sid, received in frames.items():
        previous = None
        for t, _sender in received:
            if t < wall_origin:
                previous = t
                continue
            if previous is not None and not any(a <= t and previous <= b for a, b in windows):
                gaps.append((t - previous) * 1e3)
            previous = t

    # --- the session audit --------------------------------------------------
    lost_acked = sum(lost_acked_updates(cluster, h) for h in handles)
    failovers = [
        (event["sim_at"] - before_s, event.get("sim_recovered_at", sim.now) + after_s)
        for event in crashes
    ]
    clean = subtract_intervals([(sim_origin, sim.now)], failovers)
    overlap = sum(multi_primary_time_within(cluster, h.session_id, clean) for h in handles)
    handover_overlap = sum(multi_primary_time(cluster, h.session_id) for h in handles)
    rejected = sum(n.frames_rejected for n in cluster.networks.values())
    failed_sends = sum(h.failed_sends for h in handles)
    # steady-state reply latency: skips due in the failover period are
    # still checked for an answer, but their wait is takeover and
    # re-routing time, which takeover_ms_p50 reports
    steady = [s for s in all_skips if not any(a <= s.due <= b for a, b in windows)]
    lat, _ = latencies_from_intended([s.due for s in steady], [s.handled for s in steady])
    missing = sum(1 for s in all_skips if s.handled is None)
    lat_ms = [v * 1e3 for v in lat]
    pct, p_tail = tail(lat_ms)
    gap_pct, gap_tail = tail(gaps)
    problems = []
    if lost_acked:
        problems.append(f"{lost_acked} acknowledged updates lost")
    if overlap > 0:
        problems.append(f"overlapping primaries outside failover for {overlap:.3f}s")
    if rejected:
        problems.append(f"{rejected} frames rejected by the codec")
    if len(handles) < VOD_SESSIONS:
        problems.append(f"only {len(handles)} of {VOD_SESSIONS} sessions started")
    if len(crashes) < len(CRASH_CYCLES):
        problems.append("a scheduled crash found no primary to crash")
    if no_takeover:
        problems.append(f"{no_takeover} sessions never heard from a new primary")
    if not finished:
        problems.append("the pacer fell behind the wall clock")
    if pct is None or gap_tail is None or not takeovers:
        problems.append("too few samples for the latency figures")
    failed = missing + failed_sends + lost_acked + no_takeover
    metrics = {
        "reply_ms_p50": percentile(lat_ms, 50.0) if lat_ms else 0.0,
        "reply_ms_p99": p_tail or 0.0,
        "cpu_ms_per_req": steady_cpu * 1e3 / max(steady_replies, 1),
        "sim_s_per_wall_s": sim_elapsed / (end_wall - wall_origin),
    }
    lag_ms = [v * 1e3 for v in lag]
    details = {
        "reply_ms_p99_percentile": pct,
        "reply_samples": len(lat_ms),
        "skips_in_failover_period": len(all_skips) - len(steady),
        "takeover_ms_p50": statistics.median(takeovers) if takeovers else None,
        "takeover_samples": len(takeovers),
        "frame_gap_ms_p99": gap_tail,
        "frame_gap_ms_p99_percentile": gap_pct,
        "frame_gap_samples": len(gaps),
        "failed_share": failed / max(len(all_skips), 1),
        "responses": served,
        "sessions": len(handles),
        "skip_rate": SKIP_RATE,
        "crashes": [
            {"victim": c["victim"], "sessions": len(c["sessions"])} for c in crashes
        ],
        "lost_acked_updates": lost_acked,
        "multi_primary_time": overlap,
        "handover_overlap_s": handover_overlap,
        "frames_rejected": rejected,
        "pacer_lag_ms_p99": percentile(lag_ms, 99.0) if lag_ms else 0.0,
        "pacer_lag_samples": len(lag_ms),
    }
    outcome = Outcome(
        setups=boot_times,
        metrics=metrics,
        attempted=len(all_skips),
        failed=failed,
        correct=not problems,
        problems=problems,
        details=details,
    )
    if ledger is not None:
        counters = delta(_live_counters(cluster), before)
        outcome.layers = ledger.metrics(
            counters,
            requests=max(served, 1),
            wall=end_wall - wall_origin,
            lag_ms=lag_ms,
            cpu_ms_per_req=metrics["cpu_ms_per_req"],
            sim_s_per_wall_s=metrics["sim_s_per_wall_s"],
        )
    return outcome


# ======================================================================
# sim_sweep: serial chaos exploration, no sockets
# ======================================================================
SWEEP_CONFIG = ChaosConfig(profile="mixed")
#: seeds re-run untraced in the traced sweep to prove the wrappers inert
DIGEST_CHECK_SEEDS = 3
#: client updates whose effect shows in the very next frame
_VISIBLE_OPS = ("skip", "resume", "rate")


def sweep_seeds(seed: int) -> Iterator[int]:
    """The sweep's explore seeds, an endless stream fixed by ``seed``."""
    rng = random.Random(seed * 15_485_863 + 3)
    while True:
        yield rng.randrange(1, 2**31 - 1)


def _first_event_seconds() -> float:
    """Build the cluster one chaos run starts from and run its first
    event (the sweep's set-up, repeatable in-process)."""
    started = time.perf_counter()
    config = SWEEP_CONFIG
    movies = {
        unit: build_movie(unit, duration_seconds=600.0, frame_rate=10.0)
        for unit in config.unit_ids
    }
    app = VodApplication(movies)
    cluster = ServiceCluster.build(
        n_servers=config.n_servers,
        units={unit: app for unit in movies},
        replication=config.n_servers,
        policy=config.build_policy(),
        settings=config.apply_plant_settings(GcsSettings()),
        seed=1,
    )
    cluster.sim.step()
    return time.perf_counter() - started


class _SweepProbe:
    """Sees each chaos run's cluster on its way out of ``run_schedule``
    (asking the runner to keep it), records what the run produced, and
    lets it go."""

    def __init__(self, ledger: Ledger | None) -> None:
        self.ledger = ledger
        self.runs: list[dict[str, Any]] = []
        self.latencies: list[float] = []
        self.responses = 0
        self.counters: dict[str, float] = {}
        self.armed = False
        self._original = chaos_engine.run_schedule

    def __enter__(self) -> "_SweepProbe":
        chaos_engine.run_schedule = self._run
        return self

    def __exit__(self, *_exc: Any) -> None:
        chaos_engine.run_schedule = self._original

    def _run(self, config: Any, seed: int, schedule: Any) -> Any:
        if not self.armed:
            # the explorer re-running a violating schedule
            return self._original(config, seed, schedule)
        self.armed = False
        started = time.perf_counter()
        result, observation = self._original(config, seed, schedule, keep_cluster=True)
        wall = time.perf_counter() - started
        cluster = observation.cluster
        for handle in observation.handles:
            received = sorted(handle.received, key=lambda r: r.time)
            self.responses += len(received)
            start = 0
            for sent, counter, update in handle.updates_sent:
                if update.get("op") not in _VISIBLE_OPS:
                    continue
                while start < len(received) and received[start].time < sent:
                    start += 1
                for response in received[start:]:
                    if response.based_on_update >= counter:
                        self.latencies.append((response.time - sent) * 1e3)
                        break
        self.runs.append(
            {
                "seed": seed,
                "digest": result.digest,
                "events": cluster.sim.executed_events,
                "sim_seconds": result.end_time,
                "violations": [v.oracle for v in result.violations],
                "trace_records": len(cluster.trace_log()),
                "wall": wall,
            }
        )
        if self.ledger is not None:
            nodes = [*cluster.servers, *cluster.clients]
            add(
                self.counters,
                cluster_counters(
                    [(cluster.network, nodes)],
                    cluster.servers.values(),
                    cluster.clients.values(),
                    cluster.sim,
                ),
            )
            self.ledger.epoch += 1
        return result


def _sweep(seeds: Iterable[int], seconds: float, ledger: Ledger | None) -> tuple[_SweepProbe, float, float]:
    """Explore one seed at a time until ``seconds`` have passed."""
    with _SweepProbe(ledger) as probe:
        cpu = time.process_time()
        started = time.perf_counter()
        for seed in seeds:
            probe.armed = True
            chaos_engine.explore(SWEEP_CONFIG, seed=seed, iterations=1, shrink_budget=0)
            if time.perf_counter() - started >= seconds:
                break
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu
    return probe, wall, cpu


def run_sim_sweep(seed: int, seconds: float, ledger: Ledger | None = None) -> Outcome:
    setups = [_first_event_seconds() for _ in range(SETUPS)]
    check: _SweepProbe | None = None
    if ledger is not None:
        check, _, _ = _sweep(islice(sweep_seeds(seed), DIGEST_CHECK_SEEDS), float("inf"), None)
        ledger.install(VodApplication)
    probe, wall, cpu = _sweep(sweep_seeds(seed), seconds, ledger)
    runs = probe.runs
    violated = [run for run in runs if run["violations"]]
    sim_seconds = sum(run["sim_seconds"] for run in runs)
    pct, p_tail = tail(probe.latencies)
    problems = []
    if violated:
        problems.append(
            f"{len(violated)} iterations violated an oracle: "
            + ", ".join(f"seed {run['seed']} {run['violations']}" for run in violated[:5])
        )
    if pct is None:
        problems.append("too few client updates for a latency figure")
    details: dict[str, Any] = {
        "reply_ms_p99_percentile": pct,
        "reply_samples": len(probe.latencies),
        "reply_clock": "simulated",
        "iterations": len(runs),
        "failed_share": len(violated) / max(len(runs), 1),
        "profile": SWEEP_CONFIG.profile,
        "runs": [
            {"seed": r["seed"], "digest": r["digest"][:16], "events": r["events"]}
            for r in runs
        ],
    }
    if check is not None:
        traced = runs[: len(check.runs)]
        same = [r["digest"] for r in traced] == [r["digest"] for r in check.runs]
        details["digest_check"] = {"seeds": len(traced), "identical": same}
        if not same:
            problems.append("traced sweep digests differ from the untraced sweep")
        details["trace_overhead_wall"] = sum(r["wall"] for r in traced) / sum(
            r["wall"] for r in check.runs
        )
    metrics = {
        "reply_ms_p50": percentile(probe.latencies, 50.0) if probe.latencies else 0.0,
        "reply_ms_p99": p_tail or 0.0,
        "cpu_ms_per_req": cpu * 1e3 / max(probe.responses, 1),
        "sim_s_per_wall_s": sim_seconds / wall,
    }
    outcome = Outcome(
        metrics=metrics,
        attempted=len(runs),
        failed=len(violated),
        correct=not problems,
        problems=problems,
        details=details,
        setups=setups,
    )
    if ledger is not None:
        outcome.layers = ledger.metrics(
            probe.counters,
            requests=max(probe.responses, 1),
            wall=wall,
            lag_ms=[],
            cpu_ms_per_req=metrics["cpu_ms_per_req"],
            sim_s_per_wall_s=metrics["sim_s_per_wall_s"],
            trace_records=sum(run["trace_records"] for run in runs),
        )
    return outcome


__all__ = ["Outcome", "run_search_open", "run_sim_sweep", "run_vod_failover"]
