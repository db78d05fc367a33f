"""Pareto-distribution analysis of write intervals (paper §4.1, Figure 8).

The paper's claim: write-interval lengths follow a Pareto distribution,
``P(L > x) = k * x**(-alpha)``, verified by a linear fit on the log-log
CCDF with R² above 0.93. The decreasing-hazard-rate (DHR) property of the
Pareto family is what justifies PRIL: the longer a page has been idle, the
longer it is expected to stay idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ParetoFit:
    """Result of fitting ``P(L > x) = k * x**(-alpha)`` on the log-log CCDF."""

    alpha: float       # tail index (slope magnitude on log-log axes)
    k: float           # scale constant
    r_squared: float   # goodness of the log-log linear fit
    n_samples: int
    x_min: float       # smallest interval used in the fit

    def ccdf(self, x: np.ndarray) -> np.ndarray:
        """Model survival probability at the given interval lengths."""
        x = np.asarray(x, dtype=np.float64)
        return np.clip(self.k * x ** (-self.alpha), 0.0, 1.0)


def empirical_ccdf(
    samples: np.ndarray, x_values: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical survival function P(L > x) of a sample.

    Returns ``(x, p)``. When ``x_values`` is omitted, evaluates at the
    sorted unique sample points.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) == 0:
        raise ValueError("samples must not be empty")
    sorted_samples = np.sort(samples)
    if x_values is None:
        x_values = np.unique(sorted_samples)
    x_values = np.asarray(x_values, dtype=np.float64)
    # P(L > x): count of samples strictly greater than x.
    counts = len(sorted_samples) - np.searchsorted(sorted_samples, x_values, side="right")
    return x_values, counts / len(sorted_samples)


def _linregress(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares line through ``(x, y)``: ``(slope, intercept, r)``.

    The arithmetic of ``scipy.stats.linregress``, step for step, so every
    fit is bit-identical to it. Without variance in ``y`` the correlation
    is undefined: ``r`` is nan (0.0 if the covariance is somehow nonzero)
    and no warning is raised.
    """
    if np.amax(x) == np.amin(x) and len(x) > 1:
        raise ValueError(
            "Cannot calculate a linear regression if all x values are "
            "identical"
        )
    xmean = np.mean(x, None)
    ymean = np.mean(y, None)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    return slope, ymean - slope * xmean, r


def fit_pareto(
    samples: np.ndarray,
    x_min: float = 1.0,
    x_max: Optional[float] = None,
    n_points: int = 40,
) -> ParetoFit:
    """Fit the Pareto tail of a sample on log-log axes, as the paper does.

    The CCDF is evaluated at ``n_points`` log-spaced abscissae between
    ``x_min`` and ``x_max`` (default: the sample maximum), and a
    least-squares line is fitted to ``log P(L > x)`` vs ``log x``. R² is
    that of the linear fit. ``x_max`` bounds only the *fit grid*; the CCDF
    itself is always computed from the full sample, so bounding the grid
    away from the capture-window truncation does not distort the tail.
    """
    samples = np.asarray(samples, dtype=np.float64)
    samples = samples[samples > 0]
    if len(samples) < 10:
        raise ValueError("need at least 10 positive samples to fit")
    if x_max is None:
        x_max = float(samples.max())
    if x_max <= x_min:
        raise ValueError("x_max must exceed x_min")
    x_grid = np.logspace(np.log10(x_min), np.log10(x_max), n_points)
    x_grid, ccdf = empirical_ccdf(samples, x_grid)
    keep = ccdf > 0
    if keep.sum() < 3:
        raise ValueError("not enough non-empty CCDF points to fit")
    slope, intercept, r = _linregress(
        np.log10(x_grid[keep]), np.log10(ccdf[keep])
    )
    return ParetoFit(
        alpha=-float(slope),
        k=float(10 ** intercept),
        r_squared=float(r ** 2),
        n_samples=len(samples),
        x_min=x_min,
    )


def hazard_rate(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Empirical hazard rate h(x) = f(x) / P(L > x) on a grid.

    For a Pareto distribution, h(x) = alpha / x: strictly decreasing. The
    DHR property underpins PRIL's prediction rule.
    """
    samples = np.sort(np.asarray(samples, dtype=np.float64))
    grid = np.asarray(grid, dtype=np.float64)
    if len(grid) < 2:
        raise ValueError("grid must have at least two points")
    rates = np.empty(len(grid) - 1)
    n = len(samples)
    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        surviving = n - np.searchsorted(samples, lo, side="left")
        dying = (
            np.searchsorted(samples, hi, side="left")
            - np.searchsorted(samples, lo, side="left")
        )
        width = hi - lo
        rates[i] = (dying / surviving / width) if surviving > 0 else np.nan
    return rates


def is_decreasing_hazard(
    samples: np.ndarray,
    grid: Optional[np.ndarray] = None,
    tolerance: float = 0.25,
) -> bool:
    """Check the DHR property: hazard mostly decreases along the grid.

    Allows ``tolerance`` fraction of adjacent grid steps to move the wrong
    way (empirical hazards are noisy in the extreme tail).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if grid is None:
        grid = np.logspace(0, np.log10(max(samples.max(), 10.0)), 12)
    rates = hazard_rate(samples, grid)
    rates = rates[~np.isnan(rates)]
    if len(rates) < 2:
        return True
    increases = np.sum(np.diff(rates) > 0)
    return increases <= tolerance * (len(rates) - 1)
