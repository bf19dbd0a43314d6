"""Statistical methodology used by SeBS experiments.

The paper follows established guidelines for scientific benchmarking of
parallel codes (Hoefler & Belli, SC'15): it reports medians with
non-parametric confidence intervals at the 95% and 99% levels, chooses the
number of samples so that the interval stays within 5% of the median, and
uses percentile-based summaries rather than means to resist outliers.

This package implements those building blocks plus the linear-regression
machinery (with adjusted R²) used by the invocation-overhead model and the
container-eviction model fit.
"""

from .confidence import ConfidenceInterval, nonparametric_ci
from .regression import LinearFit, fit_linear
from .sampling import required_samples_for_ci
from .streaming import (
    MergeableReservoir,
    StreamingMoments,
    StreamingSummary,
)
from .summary import DistributionSummary, summarize

__all__ = [
    "ConfidenceInterval",
    "nonparametric_ci",
    "LinearFit",
    "fit_linear",
    "required_samples_for_ci",
    "MergeableReservoir",
    "StreamingMoments",
    "StreamingSummary",
    "DistributionSummary",
    "summarize",
]
