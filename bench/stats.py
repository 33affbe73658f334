"""Order statistics shared by ``bench run`` and ``bench compare``.

Quartiles are the ones ``statistics.quantiles(values, n=4)`` gives (the
"exclusive" method), the definition the benchmark's acceptance rule uses,
so a spread printed here is the spread that rule computes.
"""

from __future__ import annotations

import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile; a single value is its own quartiles."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("quartiles of an empty sample")
    if len(data) == 1:
        return data[0], data[0]
    q1, _, q3 = statistics.quantiles(data, n=4)
    return q1, q3


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles and sample count of *values*."""
    q1, q3 = quartiles(values)
    return {
        "value": float(statistics.median(values)),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, q3 = quartiles(values)
    centre = abs(float(statistics.median(values)))
    if centre == 0.0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / centre
