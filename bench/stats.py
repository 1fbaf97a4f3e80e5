"""Aggregation helpers shared by the harness, the workers and the tests.

Pure Python, no dependency on the program under test, so the rules
below can be unit-tested in isolation.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

#: fewest samples for which a 90th percentile is reported: with fewer,
#: less than ten samples lie beyond it and the tail is one or two ops
P90_MIN_SAMPLES = 100


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def p10(values: Sequence[float]) -> float:
    """10th percentile, interpolated between samples (never below the
    smallest, as the ``exclusive`` method can be on a few samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def best_worker_p10(per_worker: Sequence[Sequence[float]]) -> float:
    """One input's latency in a run: the 10th percentile of its ops in
    each worker process, then the lowest over the workers.

    Interference from other tenants of the host comes in bursts that
    slow single ops (the percentile passes over them) and in stretches
    of seconds that slow one worker throughout its round (the lowest
    worker passes over that).
    """
    return min(p10(values) for values in per_worker if values)


def p90(values: Sequence[float]) -> Optional[float]:
    """90th percentile, or ``None`` below :data:`P90_MIN_SAMPLES`."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[-1]


def geomean_by_input(samples: Mapping[str, Sequence],
                     statistic: Callable[[Sequence], float]) -> float:
    """Geometric mean, over distinct inputs, of one statistic per input.

    A pooled statistic over a mix of inputs falls between the inputs'
    modes and jumps when the mix shifts; one value per input is stable,
    and the geometric mean weighs every input's ratio equally.
    """
    values = [statistic(v) for v in samples.values() if v]
    if not values:
        raise ValueError("no samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, first and third quartile, and the spread (Q3 - Q1) as a
    share of the median (``None`` for a zero median), as
    ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else None,
    }


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: its duration minus its children's.

    A span is ``(name, start, end, parent, op)`` with ``parent`` the
    index of the enclosing span in ``spans`` (``None`` for a root).
    """
    own = [end - start for _name, start, end, _parent, _op in spans]
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def self_time_by_name(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Total self time of each span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals
