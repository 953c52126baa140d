"""Summary statistics the benchmark reports.

Percentiles are nearest-rank: the reported value is one of the
samples.  A tail percentile is reported only when at least
:data:`MIN_BEYOND` samples lie beyond it, so that a tail never rests
on one or two outliers.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Optional, Sequence

#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the
    run-to-run steadiness measure)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def ratio(num: float, den: float) -> float:
    """``num / den``, 0 when there is nothing to divide by (a layer
    that did no work has no amplification)."""
    return num / den if den else 0.0


def overhead_pct(traced: float, untraced: float) -> float:
    """Extra wall time of a traced run over an untraced one, in %."""
    return 100.0 * (traced / untraced - 1.0) if untraced else 0.0


def read_amp(entries_read: int, cells_delivered: int) -> float:
    """Entries the iterator stacks read per cell the client received."""
    return ratio(entries_read, cells_delivered)


def write_amp(entries_written: int, result_cells: int) -> float:
    """Entries written per cell of final result."""
    return ratio(entries_written, result_cells)


def counter_delta(before: Dict[str, float], after: Dict[str, float],
                  names: Iterable[str]) -> Dict[str, float]:
    """``after − before`` for each counter name (absent counts as 0)."""
    return {n: after.get(n, 0) - before.get(n, 0) for n in names}
