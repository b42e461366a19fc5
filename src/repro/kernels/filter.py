"""Predicate/level/containment filters as merge and gallop passes.

These kernels operate on *sorted position arrays* into a
:class:`~repro.kernels.columns.NodeColumns` table (positions ascend in
node-id order).  Each is a single monotone pass — no per-node Python
object is touched.
"""

from __future__ import annotations

from typing import Sequence


def gallop_leftmost(values: Sequence[int], target: int, start: int = 0) -> int:
    """Leftmost index ``i >= start`` with ``values[i] >= target``.

    Exponential probe followed by a bisect of the located run — the
    classic gallop used to intersect columns of very different sizes.
    """
    n = len(values)
    if start >= n or values[start] >= target:
        return start
    step = 1
    low = start
    high = start + 1
    while high < n and values[high] < target:
        low = high
        step <<= 1
        high = low + step
    if high > n:
        high = n
    while low < high:
        mid = (low + high) >> 1
        if values[mid] < target:
            low = mid + 1
        else:
            high = mid
    return low


def intersect_sorted(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """Intersection of two sorted columns, galloping over the larger."""
    if len(left) > len(right):
        left, right = right, left
    out: list[int] = []
    append = out.append
    j = 0
    n = len(right)
    for value in left:
        j = gallop_leftmost(right, value, j)
        if j >= n:
            break
        if right[j] == value:
            append(value)
            j += 1
    return out


def filter_has_descendant(
    base: Sequence[int],
    candidates: Sequence[int],
    ids: Sequence[int],
    ends: Sequence[int],
) -> list[int]:
    """Base positions that contain at least one candidate strictly below.

    Both inputs are sorted positions; a base ``b`` survives when some
    candidate ``d`` satisfies ``ids[b] < ids[d] <= ends[b]``.  One
    monotone merge: for each base the first candidate past its start is
    found by advancing a shared cursor (candidates at or before a
    start can never serve a later base — starts ascend), and only that
    candidate needs checking, being the minimal one inside the
    interval.
    """
    out: list[int] = []
    append = out.append
    j = 0
    m = len(candidates)
    for b in base:
        start = ids[b]
        while j < m and ids[candidates[j]] <= start:
            j += 1
        if j >= m:
            break
        if ids[candidates[j]] <= ends[b]:
            append(b)
    return out


def filter_has_child_in(
    base: Sequence[int],
    child_parent_ids: frozenset | set,
    ids: Sequence[int],
) -> list[int]:
    """Base positions whose own id appears in a set of child parent-ids."""
    return [b for b in base if ids[b] in child_parent_ids]
