"""Order statistics for timing samples (standard library only)."""
from __future__ import annotations

import statistics

# candidate tail percentiles, highest first
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile q in [0, 100] of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values) -> dict:
    """Sample count, median and quartiles of a non-empty sample."""
    xs = list(values)
    if len(xs) == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"n": len(xs), "median": statistics.median(xs), "q1": q1, "q3": q3}


def latency_summary(values) -> dict:
    """summary() plus the highest tail percentile with >= 10 samples beyond it."""
    out = summary(values)
    for q in _TAILS:
        if len(values) * (100.0 - q) / 100.0 >= 10.0:
            out["tail_q"] = q
            out["tail"] = percentile(values, q)
            break
    return out
