"""Empirical statistics linking Monte-Carlo samples to the analytic laws."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import Curve
from .specfun import DomainError


class CdfContractError(ValueError):
    """The supplied analytic cdf is not monotone over the sample range."""


@dataclass(frozen=True)
class KsReport:
    """Kolmogorov-Smirnov comparison outcome."""

    statistic: float
    n: int
    threshold: float
    passed: bool


def default_ks_threshold(n: int) -> float:
    """3x the 5% one-sample KS quantile 1.36/sqrt(n); deterministic CI margin."""
    return 3.0 * 1.36 / math.sqrt(n)


def _values(samples) -> np.ndarray:
    vals = np.asarray(getattr(samples, "values", samples), dtype=float)
    if vals.size == 0:
        raise DomainError("sample set is empty")
    return vals


def ks_distance(samples, analytic_cdf) -> KsReport:
    """Two-sided sup distance between the sample ecdf and an analytic cdf,
    passed against ``default_ks_threshold``.

    ``analytic_cdf`` must accept an array and be (numerically) nondecreasing
    over the sample range; anything else is a contract violation.  The array
    it returns is clipped to [0, 1] in place.
    """
    vals = np.sort(_values(samples))
    n = len(vals)
    f = np.asarray(analytic_cdf(vals), dtype=float)
    if np.any(np.diff(f) < -1e-12) or f[0] < -1e-9 or f[-1] > 1.0 + 1e-9:
        raise CdfContractError("analytic cdf is not monotone in [0,1] on the "
                               "sample range")
    np.clip(f, 0.0, 1.0, out=f)
    # above = (i+1)/n - F_i; F_i - i/n is then 1/n - above
    above = np.arange(1.0, n + 1.0)
    above /= n
    above -= f
    stat = float(max(above.max(), 1.0 / n - above.min()))
    thr = default_ks_threshold(n)
    return KsReport(statistic=stat, n=n, threshold=thr, passed=stat < thr)


def histogram_density(samples, bin_width: float, value_range) -> Curve:
    """Normalized histogram: bar height = count / (n * bin_width).

    The sum of height*bin_width equals the fraction of samples inside
    ``value_range``; abscissae are the bin centers.
    """
    lo, hi = value_range
    if not (bin_width > 0):
        raise DomainError("bin_width must be positive")
    if not (lo < hi):
        raise DomainError("need lo < hi")
    nbins = (hi - lo) / bin_width
    if abs(nbins - round(nbins)) > 1e-9:
        raise DomainError("range must be an integer number of bins")
    nbins = int(round(nbins))
    vals = _values(samples)
    counts, edges = np.histogram(vals, bins=nbins, range=(lo, hi))
    heights = counts / (len(vals) * bin_width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Curve(centers, heights, "pdf")


def tabulated_cdf(cdf_vectorized, lo: float, hi: float, points: int = 1500):
    """Monotone interpolant through exact cdf values on a log-spaced grid.

    Lets a quadrature-backed cdf be evaluated at millions of sample points;
    the interpolation error (well below 1e-6 for the smooth laws here) is
    negligible against the KS thresholds it is used with.
    """
    # imported here, so importing the CLI leaves it out: only ``sim`` tabulates
    from scipy.interpolate import PchipInterpolator

    lead = max(lo * 0.999, 1e-300)
    grid = np.geomspace(lead, hi * 1.001, points)
    vals = np.asarray(cdf_vectorized(grid), dtype=float)
    vals = np.maximum.accumulate(np.clip(vals, 0.0, 1.0))
    grid = np.concatenate([[0.0], grid])
    vals = np.concatenate([[0.0], vals])
    interp = PchipInterpolator(grid, vals)

    def f(x):
        x = np.asarray(x, dtype=float)
        if x.size and not (x.min() >= 0.0 and x.max() <= grid[-1]):
            x = np.clip(x, 0.0, grid[-1])    # 0 below 0, the last value past the grid
        out = interp(x)
        np.clip(out, 0.0, 1.0, out=out)
        return float(out) if out.ndim == 0 else out

    return f
