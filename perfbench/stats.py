"""The tail statistic used by the benchmark's reports."""

from __future__ import annotations

# A tail percentile is only reported where this many samples lie beyond it.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the op-time tail.

    The tail is the highest percentile with at least ten samples beyond it:
    with n sorted samples, the value at 0-based index n - 11, so exactly ten
    samples are larger in rank, at percentile 100 * (n - 10) / n. With fewer
    than twenty samples that percentile would fall below the median and
    would not bound the tail, so the largest sample is reported instead, at
    percentile 100.
    """
    n = len(values)
    if n == 0:
        raise ValueError("a tail needs at least one sample")
    ordered = sorted(values)
    if n < 2 * TAIL_BEYOND:
        return float(ordered[-1]), 100.0
    return float(ordered[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n
