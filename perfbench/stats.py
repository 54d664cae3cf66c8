"""Small order statistics shared by the benchmark's measurements."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    ``spans`` carry ``id``, ``parent``, ``start`` and ``end``.  Children
    may run on other threads and overlap each other (batch fan-out), so
    coverage is the length of the union of their intervals clipped to
    the parent's own interval, never a plain sum.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span["id"]] = max(0.0, (end - start) - covered)
    return result
