"""Order statistics used for every reported timing."""

from __future__ import annotations

import math


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values: list[float], target: float = 0.99) -> tuple[float, float]:
    """``(value, quantile)`` of the highest percentile, at most ``target``,
    that has at least ten samples beyond it.

    With fewer than eleven samples no percentile qualifies; the maximum
    is returned with quantile 1.0, so the sample count must be read
    alongside it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 11:
        return ordered[-1], 1.0
    index = min(n - 11, math.ceil(target * n) - 1)
    return ordered[index], (index + 1) / n

