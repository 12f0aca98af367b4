"""The benchmark's own rules, pinned on synthetic data.

    python -m pytest perfbench/tests -q
"""

import random

import pytest

from measure import (
    backlog_grows,
    latencies_from_intended,
    percentile,
    poisson_arrivals,
    tail,
    tail_percentile,
)
from tracing import Tracer


# ----------------------------------------------------------------------
# the highest percentile with at least ten samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [
        (1000, 99.0),  # exactly 10 beyond p99
        (999, 98.0),  # 9.99 beyond p99 is too few
        (10_000, 99.0),  # never above the requested percentile
        (500, 98.0),
        (200, 95.0),
        (100, 90.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (100.0 - expected) / 100.0 >= 10


def test_tail_reports_the_percentile_it_used():
    values = list(range(1, 201))  # 200 samples -> p95
    pct, value = tail(values)
    assert pct == 95.0
    assert value == percentile(values, 95.0) == 190
    assert tail([1.0] * 5) == (None, None)


def test_nearest_rank_percentile():
    assert percentile([5, 1, 3, 2, 4], 50.0) == 3
    assert percentile([1, 2, 3, 4], 100.0) == 4
    assert percentile([7], 99.0) == 7
    with pytest.raises(ValueError):
        percentile([], 50.0)


# ----------------------------------------------------------------------
# self time on a nested span tree
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    # root [0, 10]: child a [1, 4] holding grandchild g [2, 3];
    # child b [5, 9]; b is the same name as a (aggregates add up)
    root = tracer.begin("root", rid=("s", 1))
    clock.now = 1.0
    a = tracer.begin("child")
    clock.now = 2.0
    g = tracer.begin("grand")
    clock.now = 3.0
    tracer.end(g)
    clock.now = 4.0
    tracer.end(a)
    clock.now = 5.0
    b = tracer.begin("child")
    clock.now = 9.0
    tracer.end(b)
    clock.now = 10.0
    tracer.end(root)
    assert tracer.total("root") == 10.0
    assert tracer.self_time("root") == 10.0 - 3.0 - 4.0
    assert tracer.self_time("child") == (3.0 - 1.0) + 4.0
    assert tracer.self_time("grand") == 1.0
    assert tracer.count("child") == 2
    # spans inherit the request id of the span that caused them
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["grand"][5] == ("s", 1)
    assert by_name["grand"][4] == a[0]  # parent: the first child span
    assert by_name["root"][4] is None


def test_wrappers_are_restored():
    class Target:
        def work(self, x):
            return x * 2

    original = Target.__dict__["work"]
    tracer = Tracer()
    seen = []
    tracer.wrap(Target, "work", "target.work", on_result=lambda r, *a: seen.append(r))
    assert Target().work(3) == 6
    assert seen == [6]
    assert tracer.count("target.work") == 1
    tracer.uninstall()
    assert Target.__dict__["work"] is original


def test_an_inherited_method_is_shadowed_on_the_subclass_only():
    class Base:
        def work(self):
            return "base"

    class Child(Base):
        pass

    class Sibling(Base):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "work", "child.work")
    assert Child().work() == "base" and Sibling().work() == "base"
    assert tracer.count("child.work") == 1
    assert "work" not in Sibling.__dict__
    tracer.uninstall()
    assert "work" not in Child.__dict__


def test_span_closes_when_the_callable_raises():
    class Target:
        def fail(self):
            raise RuntimeError("boom")

    tracer = Tracer()
    tracer.wrap(Target, "fail", "target.fail")
    with pytest.raises(RuntimeError):
        Target().fail()
    tracer.uninstall()
    assert tracer.count("target.fail") == 1
    after = tracer.begin("after")
    assert after[5] is None  # the failed span left no open parent behind


# ----------------------------------------------------------------------
# latency from the intended send time
# ----------------------------------------------------------------------
def test_a_generator_stall_is_charged_to_every_request_it_delayed():
    # requests due every 10 ms; the generator stalls from t=20ms to t=120ms
    # and then sends the four overdue requests at once; the server answers
    # each 1 ms after it was actually sent
    due = [i * 0.010 for i in range(10)]
    sent = [max(t, 0.120) if 0.020 <= t < 0.120 else t for t in due]
    handled = [s + 0.001 for s in sent]
    latencies, missing = latencies_from_intended(due, handled)
    assert missing == 0
    # measured from the send time every request looks like 1 ms ...
    assert all(abs((h - s) - 0.001) < 1e-12 for h, s in zip(handled, sent))
    # ... from the intended time the stalled ones carry the wait
    stalled = [lat for lat, t in zip(latencies, due) if 0.020 <= t < 0.120]
    assert len(stalled) == 8
    assert max(stalled) == pytest.approx(0.101)
    assert min(latencies) == pytest.approx(0.001)


def test_unanswered_requests_are_counted_missing():
    latencies, missing = latencies_from_intended([0.0, 1.0, 2.0], [0.5, None, 2.25])
    assert latencies == [0.5, 0.25]
    assert missing == 1


def test_poisson_arrivals_are_seeded_and_bounded():
    first = poisson_arrivals(random.Random(3), 50.0, 10.0, 20.0)
    again = poisson_arrivals(random.Random(3), 50.0, 10.0, 20.0)
    assert first == again
    assert all(10.0 <= t < 30.0 for t in first)
    assert first == sorted(first)
    assert len(first) == 1000  # conditioned on the expected count
    gaps = [b - a for a, b in zip(first, first[1:])]
    assert sum(gaps) / len(gaps) == pytest.approx(1 / 50.0, rel=0.1)


# ----------------------------------------------------------------------
# the backlog-growth detector
# ----------------------------------------------------------------------
def _samples(values, step=0.25):
    return [(i * step, v) for i, v in enumerate(values)]


def test_a_steady_fluctuating_backlog_does_not_grow():
    rng = random.Random(1)
    values = [rng.choice([0, 1, 1, 2, 3]) for _ in range(40)]
    assert not backlog_grows(_samples(values), rate=20.0)


def test_a_backlog_falling_behind_grows():
    # 30 q/s offered, 20 q/s served: +10 outstanding per second
    values = [int(10 * 0.25 * i) for i in range(40)]
    assert backlog_grows(_samples(values), rate=30.0)


def test_a_draining_backlog_does_not_grow():
    values = [max(0, 30 - 2 * i) for i in range(40)]
    assert not backlog_grows(_samples(values), rate=30.0)


def test_too_few_samples_never_grow():
    assert not backlog_grows(_samples([0, 50, 100]), rate=10.0)
