"""Exact order statistics over raw samples.

Percentiles here are nearest-rank values of the recorded samples, never
interpolated and never read from bucketed histograms, and every summary
carries its sample count so a p90 over ten samples is not mistaken for
one over a thousand.
"""
import math
import statistics


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100): the smallest sample
    with at least q% of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(values):
    """{"p50", "p90", "n"} of raw samples (empty input gives n = 0)."""
    if not values:
        return {"p50": None, "p90": None, "n": 0}
    return {"p50": percentile(values, 50), "p90": percentile(values, 90),
            "n": len(values)}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf
