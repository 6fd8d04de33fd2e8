"""Summary statistics shared by the workloads."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Sequence

#: Samples a percentile needs strictly above it before it is reported.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-th."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail(samples: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile, or None with fewer than 10 samples beyond."""
    if samples_beyond(len(samples), q) < MIN_BEYOND:
        return None
    return percentile(samples, q)


def due_latencies(due: Sequence[float], done: Sequence[float]) -> list[float]:
    """Open-loop latency: completion minus the time a request was due.

    Timing from the due time, not the send time, charges a generator
    stall (or a server stall that delays sending) to every request it
    held back.
    """
    return [d - s for s, d in zip(due, done)]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb(children: bool = True) -> float:
    """Peak resident set of this process, or of it and any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not children:
        return own / 1024.0
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
