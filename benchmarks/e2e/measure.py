"""The arithmetic every reported number goes through.

Kept free of I/O so ``test_e2e_selftest.py`` can pin it on hand-built
inputs: percentiles, the quiet-slice estimators, span self-times and
run-to-run spreads.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Iterator, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def slices(
    samples: Iterable[tuple[float, float]], start: float, seconds: float, count: int
) -> list[list[float]]:
    """Bucket ``(time, value)`` samples into ``count`` equal slices of a window."""
    width = seconds / count
    buckets: list[list[float]] = [[] for _ in range(count)]
    for at, value in samples:
        index = int((at - start) / width)
        if 0 <= index < count:
            buckets[index].append(value)
    return buckets


#: Latencies are read off slices about this long, rates off shorter ones ...
SLICE_SECONDS = 0.25
RATE_SLICE_SECONDS = 0.1
#: ... but never off slices of fewer samples than this.
MIN_PER_SLICE = 40
#: The share of latency slices a reported figure leaves on its good side.
QUIET = 0.1

Window = tuple[float, float]  # start, seconds


def window_slices(
    samples: Sequence[tuple[float, float]],
    windows: Sequence[Window],
    slice_seconds: float = SLICE_SECONDS,
) -> Iterator[tuple[list[float], float]]:
    """``(values, seconds)`` of every slice: each window cut into equal parts.

    The host's speed drops by a third for a tenth of a second or some
    minutes at a time, always from the same top (README).  Every timing
    metric is therefore read off the slices the host left alone, which
    repeat from run to run where a median over the run does not.
    """
    for start, seconds in windows:
        inside = [sample for sample in samples if start <= sample[0] < start + seconds]
        count = max(1, min(int(seconds / slice_seconds), len(inside) // MIN_PER_SLICE))
        for bucket in slices(inside, start, seconds, count):
            yield bucket, seconds / count


def quiet_median(
    samples: Sequence[tuple[float, float]], windows: Sequence[Window]
) -> Optional[float]:
    """The low decile of the per-slice medians; ``None`` when no slice holds a sample.

    Not the lowest: that one is the luckiest draw of the mix as much as
    the quietest stretch of the host, and on the hot mix spreads further.
    """
    medians = [
        percentile(bucket, 0.5) for bucket, _seconds in window_slices(samples, windows) if bucket
    ]
    return percentile(medians, QUIET) if medians else None


def peak_rate(times: Iterable[float], windows: Sequence[Window]) -> Optional[float]:
    """Events per second in the fastest slice, from its first event to its last.

    A saturated server follows the host's speed in full, so here only
    the best tenth of a second repeats: even a slow minute of the host
    holds a few.  A slice whose events span less than half of it is
    left out (a pause took the rest, and two events a millisecond apart
    are no rate); ``None`` when none is left.
    """
    stamped = [(at, at) for at in times]
    return max(
        (
            (len(bucket) - 1) / (max(bucket) - min(bucket))
            for bucket, seconds in window_slices(stamped, windows, RATE_SLICE_SECONDS)
            if bucket and max(bucket) - min(bucket) >= 0.5 * seconds
        ),
        default=None,
    )


def covered(intervals: Iterable[tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(root) -> list[tuple[str, float]]:
    """``(span name, self seconds)`` for every span under ``root``.

    A span's self time is its duration minus the part of it that its
    children cover; children running in parallel (scatter legs) are
    counted once, through the union of their intervals.  ``root`` needs
    ``name``, ``started``, ``ended`` and ``children``.
    """
    folded = []
    stack = [root]
    while stack:
        span = stack.pop()
        children = [(child.started, child.ended) for child in span.children]
        busy = covered(children, span.started, span.ended)
        folded.append((span.name, (span.ended - span.started) - busy))
        stack.extend(span.children)
    return folded


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and the two spreads the repeat tool prints.

    ``iqr_share`` is the contract's steadiness measure (distance between
    the quartiles over the median); ``range_share`` is (max-min)/median.
    """
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    scale = abs(median) or 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "range_share": (max(values) - min(values)) / scale,
    }
