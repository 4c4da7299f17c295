"""Statistics helpers for the evaluation (Section 6.2).

Mean, median, sample standard deviation, geometric mean of overhead
factors, and Student-t 95% confidence intervals (the error bars of
Figure 2).  scipy
is used for the t quantile when present; otherwise a small critical-value
table covers the low sample counts the harness produces.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["mean", "median", "stdev", "geometric_mean", "t_critical", "confidence_interval"]

# two-sided 95% t critical values for df = 1..30 (then ~normal)
_T95 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def mean(xs: Sequence[float]) -> float:
    if not xs:
        raise ValueError("mean of empty sequence")
    return sum(xs) / len(xs)


def median(xs: Sequence[float]) -> float:
    """Middle sample; the mean of the two middle ones for even counts.

    The benchmark ratios use it: one lucky outlier in a denominator
    wrecks a best-time ratio but not a median one.
    """
    if not xs:
        raise ValueError("median of empty sequence")
    ordered = sorted(xs)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def stdev(xs: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator); 0 for n < 2."""
    if len(xs) < 2:
        return 0.0
    mu = mean(xs)
    return math.sqrt(sum((x - mu) ** 2 for x in xs) / (len(xs) - 1))


def geometric_mean(xs: Sequence[float]) -> float:
    """Geometric mean of positive factors (Table 2's summary rows)."""
    if not xs:
        raise ValueError("geometric mean of empty sequence")
    if any(x <= 0 for x in xs):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value."""
    if df < 1:
        raise ValueError("degrees of freedom must be positive")
    try:  # scipy gives exact quantiles for any confidence level
        from scipy import stats as _st

        return float(_st.t.ppf(0.5 + confidence / 2.0, df))
    except ImportError:  # pragma: no cover - scipy is present in CI
        if not math.isclose(confidence, 0.95):
            raise
        return _T95[df - 1] if df <= len(_T95) else 1.960


def confidence_interval(
    xs: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """(mean, half-width) of the two-sided CI for the population mean."""
    mu = mean(xs)
    if len(xs) < 2:
        return mu, 0.0
    half = t_critical(len(xs) - 1, confidence) * stdev(xs) / math.sqrt(len(xs))
    return mu, half
