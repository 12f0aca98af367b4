"""Measurement helpers: percentiles, open-loop arrivals, latency from the
intended send time, and the backlog-growth detector.

Pure functions of their inputs (no clocks, no I/O), so the tests in
``perfbench/tests`` can pin each rule on synthetic data.
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Sequence

#: percentiles a tail figure may come from, highest first
TAIL_GRID = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of non-empty ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int, want: float = 99.0) -> float | None:
    """The highest grid percentile at or below ``want`` that leaves at
    least :data:`MIN_BEYOND` of ``n`` samples beyond it, or ``None`` when
    even the median has fewer."""
    for pct in TAIL_GRID:
        if pct <= want and n * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return None


def tail(values: Sequence[float], want: float = 99.0) -> tuple[float | None, float | None]:
    """``(percentile used, value)`` for a tail figure over ``values``."""
    pct = tail_percentile(len(values), want)
    if pct is None:
        return None, None
    return pct, percentile(values, pct)


def poisson_arrivals(
    rng: random.Random, rate: float, start: float, duration: float
) -> list[float]:
    """Arrival times of a Poisson process of ``rate`` per second over
    ``[start, start + duration)``, conditioned on its expected count.

    Given its count, a Poisson process's arrival times are independent
    uniform draws over the interval, so sorting ``round(rate x duration)``
    uniform draws samples the process exactly.  Fixing the count keeps
    per-request figures from inheriting the count's own ``1/sqrt(n)``
    noise from run to run."""
    count = round(rate * duration)
    return sorted(start + rng.random() * duration for _ in range(count))


def latencies_from_intended(
    intended: Sequence[float], handled: Sequence[float | None]
) -> tuple[list[float], int]:
    """Latency of each request from its *intended* send time to the time
    its reply was handled, and the number never answered.

    Measuring from the intended time (not from when a stalled generator
    finally sent) charges a stall to every request it delayed, which is
    what keeps an open-loop benchmark free of coordinated omission."""
    done: list[float] = []
    missing = 0
    for due, at in zip(intended, handled):
        if at is None:
            missing += 1
        else:
            done.append(at - due)
    return done, missing


def slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of ``(x, y)`` points (0 for fewer than two)."""
    if len(points) < 2:
        return 0.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    mx = statistics.fmean(xs)
    my = statistics.fmean(ys)
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var


def backlog_grows(samples: Sequence[tuple[float, float]], rate: float) -> bool:
    """Whether the unanswered-request backlog sampled over one rung
    (``(time, outstanding)`` pairs) grows instead of hovering.

    A system keeping up holds a backlog of about ``rate x latency`` that
    fluctuates but does not trend; one falling behind accumulates the
    excess arrival rate.  The backlog grows when it trends upward by more
    than 5% of the offered rate (plus half a request per second of
    noise allowance) and ends above where it started."""
    if len(samples) < 4:
        return False
    trend = slope(samples)
    return trend > 0.05 * rate + 0.5 and samples[-1][1] > samples[0][1]


__all__ = [
    "MIN_BEYOND",
    "TAIL_GRID",
    "backlog_grows",
    "latencies_from_intended",
    "percentile",
    "poisson_arrivals",
    "slope",
    "tail",
    "tail_percentile",
]
