"""Non-parametric confidence intervals for the median.

SeBS reports medians with non-parametric (distribution-free) confidence
intervals, following Le Boudec and Hoefler & Belli.  The interval for the
median of ``n`` i.i.d. samples is obtained from the order statistics: the
interval ``[x_(j), x_(k)]`` covers the median with probability derived from
the binomial distribution with p = 0.5.

SciPy loads on first use, in :func:`_median_ci_indices`: no replay computes
an interval, so importing ``repro`` costs no SciPy start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A confidence interval around the sample median."""

    level: float
    low: float
    high: float
    median: float

    @property
    def width(self) -> float:
        """Absolute width of the interval."""
        return self.high - self.low

    @property
    def relative_width(self) -> float:
        """Interval width relative to the median (0 when the median is 0)."""
        if self.median == 0:
            return 0.0
        return self.width / abs(self.median)

    def within(self, fraction: float) -> bool:
        """Whether the interval lies within ``fraction`` of the median.

        The paper requires intervals within 5% of the median, interpreted as
        each endpoint deviating from the median by at most ``fraction`` of
        its absolute value.
        """
        if self.median == 0:
            return self.width == 0
        return (
            abs(self.high - self.median) <= fraction * abs(self.median)
            and abs(self.median - self.low) <= fraction * abs(self.median)
        )

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def _median_ci_indices(n: int, level: float) -> tuple[int, int]:
    """Return 0-based order-statistic indices for the median CI.

    Uses the binomial(n, 0.5) distribution: the interval [x_(j+1), x_(k)] in
    1-based statistics notation has coverage ``P(j <= B < k)``.  We search for
    the symmetric pair with at least the requested coverage.
    """
    from scipy import stats as scipy_stats

    if n < 1:
        raise ConfigurationError("confidence interval requires at least one sample")
    # Symmetric interval around the median rank.
    j = int(math.floor(scipy_stats.binom.ppf((1 - level) / 2, n, 0.5)))
    k = int(math.ceil(scipy_stats.binom.ppf(1 - (1 - level) / 2, n, 0.5)))
    # Ensure valid coverage: widen until the binomial mass in [j, k-1] >= level
    # or the interval spans all samples.
    def coverage(lo: int, hi: int) -> float:
        return float(scipy_stats.binom.cdf(hi - 1, n, 0.5) - scipy_stats.binom.cdf(lo - 1, n, 0.5))

    j = max(0, min(j, n - 1))
    k = max(1, min(k, n))
    while coverage(j, k) < level and (j > 0 or k < n):
        if j > 0:
            j -= 1
        if k < n:
            k += 1
    return j, max(j, k - 1)


def nonparametric_ci(samples: Sequence[float], level: float = 0.95) -> ConfidenceInterval:
    """Compute the distribution-free CI of the median of ``samples``.

    Parameters
    ----------
    samples:
        Raw measurements (need not be sorted).
    level:
        Confidence level, e.g. 0.95 or 0.99 (the two levels used by SeBS).
    """
    if not 0.0 < level < 1.0:
        raise ConfigurationError("confidence level must lie in (0, 1)")
    data = np.sort(np.asarray(list(samples), dtype=float))
    if data.size == 0:
        raise ConfigurationError("confidence interval requires at least one sample")
    median = float(np.median(data))
    if data.size == 1:
        return ConfidenceInterval(level=level, low=float(data[0]), high=float(data[0]), median=median)
    low_idx, high_idx = _median_ci_indices(int(data.size), level)
    return ConfidenceInterval(
        level=level,
        low=float(data[low_idx]),
        high=float(data[high_idx]),
        median=median,
    )
