"""Summary statistics the benchmark reports.

No I/O, and the open-loop generator takes its clock as an argument, so
the self-tests can drive everything here with fabricated samples and a
fake clock.
"""

from __future__ import annotations

import math
import re
import threading
import time
from dataclasses import dataclass, field

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    return bool(METRIC_NAME.fullmatch(name)) and len(name) <= 64


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(n: int) -> float | None:
    """The highest of p99.9/p99/p95/p90/p75 with at least ten of ``n``
    samples strictly beyond it, or ``None`` when even p75 has fewer."""
    for q in _TAILS:
        if n * (100.0 - q) / 100.0 >= TAIL_SAMPLES_BEYOND - 1e-9:
            return q
    return None


@dataclass(frozen=True)
class LatencySummary:
    """p50 plus the highest percentile with ten samples beyond it."""

    count: int
    p50: float
    p90: float
    tail_q: float | None
    tail: float

    def describe(self, unit: str = "ms") -> str:
        tail = (f"p{self.tail_q:g} {self.tail:.3f}{unit}"
                if self.tail_q is not None
                else f"max {self.tail:.3f}{unit} (too few for a tail)")
        return (f"p50 {self.p50:.3f}{unit}, p90 {self.p90:.3f}{unit}, "
                f"{tail}, n={self.count}")


def summarize(values) -> LatencySummary:
    """Summarize samples; the tail falls back to the maximum when fewer
    than ten samples lie beyond p75."""
    values = list(values)
    q = tail_percentile(len(values))
    tail = percentile(values, q) if q is not None else max(values)
    return LatencySummary(len(values), median(values),
                          percentile(values, 90.0), q, tail)


def histogram_delta_quantile(before: dict | None, after: dict,
                             q: float) -> float | None:
    """Estimate the ``q``-quantile (0..1) of the observations a server
    histogram gained between two ``/metrics`` scrapes.

    Both snapshots carry cumulative ``buckets`` as ``[bound, count]``
    pairs (``bound`` may be ``"+Inf"``); the delta is interpolated
    linearly inside its bucket, as the program's own estimator does.
    """
    def cumulative(snapshot):
        if not snapshot:
            return {}
        return {str(bound): count for bound, count in snapshot["buckets"]}

    old, new = cumulative(before), cumulative(after)
    bounds = [bound for bound, _ in after["buckets"]]
    deltas = [new[str(b)] - old.get(str(b), 0) for b in bounds]
    total = deltas[-1] if deltas else 0
    if total <= 0:
        return None
    target = q * total
    previous_bound, previous_count = 0.0, 0
    for bound, count in zip(bounds, deltas):
        if count >= target:
            if bound == "+Inf" or not isinstance(bound, (int, float)):
                return float(previous_bound)
            inside = count - previous_count
            share = (target - previous_count) / inside if inside else 1.0
            return previous_bound + (float(bound) - previous_bound) * share
        previous_bound, previous_count = float(bound), count
    return float(previous_bound)


# ----------------------------------------------------------------------
# Open-loop accounting
# ----------------------------------------------------------------------
class SystemClock:
    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


@dataclass
class OpenLoopResult:
    """What one fixed-rate step measured.

    ``latencies`` run from each request's due time to its answer, so a
    stall also charges the requests queued behind it.  ``gen_late`` is
    the generator's own lateness: how long after both the due time and
    a free connection the request actually went out.
    """

    rate: float
    latencies: list[float] = field(default_factory=list)
    gen_late: list[float] = field(default_factory=list)
    backlog_start: list[float] = field(default_factory=list)
    failures: int = 0
    attempted: int = 0

    def backlog_grew(self, limit: float) -> bool:
        """True when requests waited for a connection longer and longer:
        the last tenth of the schedule started more than ``limit``
        seconds later (relative to due) than the first tenth did."""
        waits = self.backlog_start
        if len(waits) < 20:
            return False
        tenth = len(waits) // 10
        head = median(waits[:tenth])
        tail = median(waits[-tenth:])
        return tail - head > limit


def run_open_loop(send, rate: float, count: int, connections: int,
                  clock=None) -> OpenLoopResult:
    """Send ``count`` requests due every ``1/rate`` seconds.

    ``send(index, slot)`` performs request ``index`` on connection
    ``slot`` and returns True on success.  Each connection takes the
    next due request as soon as it is free; one connection runs inline
    (which lets the tests drive this with a fake clock), more run on
    threads.
    """
    if rate <= 0 or count <= 0 or connections <= 0:
        raise ValueError("rate, count and connections must be positive")
    clock = clock or SystemClock()
    result = OpenLoopResult(rate=rate, attempted=count)
    lock = threading.Lock()
    cursor = iter(range(count))
    start = clock.now()
    records: list[tuple[int, float, float, float, float, bool]] = []

    def loop(slot: int) -> None:
        free_at = clock.now()
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + index / rate
            now = clock.now()
            if now < due:
                clock.sleep(due - now)
            sent = clock.now()
            ok = send(index, slot)
            done = clock.now()
            with lock:
                records.append(
                    (index, due, sent, max(due, free_at), done, ok))
            free_at = done

    if connections == 1:
        loop(0)
    else:
        threads = [threading.Thread(target=loop, args=(slot,),
                                    daemon=True)
                   for slot in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    for _, due, sent, ready, done, ok in sorted(records):
        result.backlog_start.append(sent - due)
        result.gen_late.append(max(0.0, sent - ready))
        if ok:
            result.latencies.append(done - due)
        else:
            result.failures += 1
    return result
