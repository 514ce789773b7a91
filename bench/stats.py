"""Order statistics used for the reported figures."""

from __future__ import annotations


def percentile(values, p: float) -> float:
    """p-th percentile (0..100), linear between closest ranks.

    This is the 'inclusive' rule of statistics.quantiles and numpy's default:
    rank (len-1) * p/100 on the sorted values, interpolated.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)
