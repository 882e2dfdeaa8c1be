"""Statistics of rescaled expansion coefficients x_i = N |w_i|^2:
chi^2_nu reference distributions, log-variable histograms, cumulative
distributions, and SKLD / RMSE distance measures.

For fully chaotic dynamics the pooled x statistics follow the chi^2_nu
family (nu = 1, 2, 4 for orthogonal / unitary / symplectic coefficient
statistics; complex Floquet overlaps give nu = 2, and nu = 1 is the
Porter-Thomas case).

A pool holds x ascending (``pool_rescaled`` sorts it in place once the
mean is taken), so its positive entries are a view past the zeros and
their logarithm is taken once per pool.  The readers,
``empirical_log_histogram``, ``empirical_cdf`` and ``distance_report``,
use these and never mask, sort or log the pool again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import erf, erfc, floor, lgamma, pi, sqrt

import numpy as np

__all__ = [
    "RescaledCoefficients",
    "LogHistogram",
    "DistanceReport",
    "pool_rescaled",
    "chisq_pdf",
    "chisq_logpdf_form",
    "chisq_cdf",
    "empirical_log_histogram",
    "empirical_cdf",
    "distance_report",
]

DENSITY_FLOOR = 1e-300  # floor for predicted bin masses inside the KL sum
RMSE_GRID = 2048  # points of the uniform x grid the RMSE integrates over
SERIES_TERMS = 16  # terms u^k/k!, k >= 2, of the nu = 4 CDF below u = 1/2 (the next is < 1e-19 of it)
U_MAX = 800.0  # cap of u = nu x / 2<x>: e^-u, e^-u (1 + u) and erfc(sqrt u) are 0 past 746


class RescaledCoefficients:
    """Pooled rescaled weights x_i = N |w_i|^2 over many coherent states,
    held ascending, with at least one positive entry and no NaN."""

    def __init__(self, x, mean_x: float):
        x = np.asarray(x, dtype=float)
        if not np.all(x[:-1] <= x[1:]):  # unsorted, or a NaN somewhere
            x = np.sort(x)  # a sorted copy; the caller's array is left as it is
        if not (x.size and x[-1] > 0):  # np.sort puts NaN last
            raise ValueError("pool needs a positive entry and no NaN")
        self.x, self.mean_x, self.n = x, mean_x, x.size
        self.positive = x[np.searchsorted(x, 0.0, side="right") :]  # a view past the zeros

    @cached_property
    def log_positive(self) -> np.ndarray:
        """ln of ``positive``, taken once per pool."""
        return np.log(self.positive)


@dataclass(frozen=True)
class LogHistogram:
    """Density-normalized histogram of ln x."""

    bin_edges: np.ndarray  # in ln x
    density: np.ndarray
    n_zero_excluded: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


@dataclass(frozen=True)
class DistanceReport:
    """Distance of a pooled coefficient sample from a chi^2_nu reference.

    skld: square-root Kullback-Leibler divergence of the density
    (histogram estimate, Freedman-Diaconis bins in ln x).
    rmse: root-mean-square error between the empirical and reference
    cumulative distributions on [x_0, x_m].
    """

    skld: float
    rmse: float
    x_range: tuple[float, float]
    nu: int
    n_bins: int
    n_grid: int


def pool_rescaled(weights: np.ndarray) -> RescaledCoefficients:
    """Pool x = N |w|^2 across states; weights is (n_states, N).

    Per state the mean of x is exactly 1 (normalization times N); the
    recorded mean_x is the pooled empirical mean used as the chi^2
    scale, taken in input order before x is sorted in place.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    return _pool(w * w.shape[1])


def _pool(x: np.ndarray) -> RescaledCoefficients:
    """The pool of the rescaled weights x as they are, (n_states, N): the
    mean in input order, then x sorted in place (a C-contiguous x is
    the pool's own buffer, not copied)."""
    x = x.ravel()
    mean_x = float(x.mean())
    x.sort()
    return RescaledCoefficients(x=x, mean_x=mean_x)


def chisq_pdf(x, nu: int, mean_x: float = 1.0):
    """chi^2_nu density with scale mean_x.

    P_nu(x) = (nu/2<x>)^(nu/2) x^(nu/2-1) / Gamma(nu/2) exp(-nu x / 2<x>).
    """
    _check_nu(nu)
    x = np.asarray(x, dtype=float)
    h = 0.5 * nu / mean_x
    lognorm = 0.5 * nu * np.log(h) - lgamma(0.5 * nu)
    safe = np.where(x > 0, x, 1.0)
    out = np.exp(lognorm + (0.5 * nu - 1.0) * np.log(safe) - h * x)
    # endpoint x = 0: finite only for nu = 2 (value h), zero for nu = 4
    at_zero = {1: np.inf, 2: h, 4: 0.0}[nu]
    return np.where(x > 0, out, np.where(x == 0, at_zero, 0.0))


def chisq_logpdf_form(x, nu: int, mean_x: float = 1.0):
    """Density of ln x under chi^2_nu: P_nu(ln x) = x P_nu(x).

    Maximal at x = <x> for every nu.
    """
    x = np.asarray(x, dtype=float)
    return x * chisq_pdf(x, nu, mean_x)


def chisq_cdf(x, nu: int, mean_x: float = 1.0):
    """chi^2_nu cumulative F_nu(x) = P(nu/2, u), the regularized lower
    incomplete gamma function at u = nu x / 2<x>, in closed form:
    erf(sqrt u) for nu = 1, 1 - e^-u for nu = 2 and 1 - e^-u (1 + u) for
    nu = 4, each accurate relative to F as F -> 0.

    The nu = 4 form cancels there: below u = 1/2 it is summed as
    e^-u sum_{k>=2} u^k / k! instead.
    """
    u = _chisq_argument(x, nu, mean_x)
    if nu == 1:
        return _map(erf, np.sqrt(u))
    if nu == 2:
        return -np.expm1(-u)
    series = np.ones_like(u)
    for k in range(SERIES_TERMS + 1, 2, -1):  # Horner: 1 + u/3 (1 + u/4 (1 + ...))
        series = 1.0 + u / k * series
    small = 0.5 * u * u * series * np.exp(-u)
    return np.where(u < 0.5, small, -np.expm1(-u) - u * np.exp(-u))[()]


def _chisq_sf(x, nu: int, mean_x: float = 1.0):
    """chi^2_nu survival Q_nu = 1 - F_nu, accurate relative to Q far into
    the tail, where F rounds to 1: e^-u for nu = 2, e^-u (1 + u) for
    nu = 4, and erfc(sqrt u) for nu = 1.

    erfc of the rounded root z alone is off by about u * 2e-16 relative
    (9e-14 at Q = 1e-300), since e^-u amplifies the rounding of z; the
    residual u - z^2, taken exactly by Dekker's product, gives the
    first-order correction -(u - z^2) e^-u / (z sqrt pi).
    """
    u = _chisq_argument(x, nu, mean_x)
    if nu == 2:
        return np.exp(-u)
    if nu == 4:
        return np.exp(-u) * (1.0 + u)
    z = np.sqrt(u)
    z2 = z * z
    hi = z * 134217729.0  # Veltkamp split: hi on 26 bits, so hi * hi and hi * lo are exact
    hi -= hi - z
    lo = z - hi
    residual = (u - z2) - (((hi * hi - z2) + 2.0 * hi * lo) + lo * lo)  # u - z^2
    slope = np.divide(np.exp(-u), z * sqrt(pi), out=np.zeros_like(z), where=z > 0)
    return (_map(erfc, z) - residual * slope)[()]


def _chisq_argument(x, nu: int, mean_x: float) -> np.ndarray:
    """u = nu x / 2<x> for x >= 0 (negative x count as 0), capped at
    ``U_MAX``, past which F is exactly 1 and Q exactly 0 in doubles."""
    _check_nu(nu)
    return np.minimum(0.5 * nu * np.clip(np.asarray(x, dtype=float), 0.0, None) / mean_x, U_MAX)


def _map(f, z: np.ndarray):
    """A math-module function over an array (numpy has no erf)."""
    return np.fromiter(map(f, z.ravel()), float, count=z.size).reshape(z.shape)[()]


def _check_nu(nu):
    if nu not in (1, 2, 4):
        raise ValueError(f"nu must be one of 1, 2, 4, got {nu}")


def _sorted_percentile(y: np.ndarray, q: float):
    """``np.percentile(y, q)`` of ascending y without its copy of y.

    The arithmetic is numpy's default ('linear') method step for step:
    virtual index (n - 1) * q/100, its floor and the next index (both
    -1, the top entry, at or past it), and numpy's ``_lerp``, which
    interpolates from the upper end once the weight reaches 0.5.
    """
    v = (y.size - 1) * (q / 100)
    lo = floor(v) if v < y.size - 1 else -1
    hi = lo + 1 if lo >= 0 else -1
    a, b, t = y[lo], y[hi], v - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def _fd_log_edges(y: np.ndarray) -> np.ndarray:
    """Freedman-Diaconis bin edges for ascending ln-x data y."""
    iqr = _sorted_percentile(y, 75) - _sorted_percentile(y, 25)
    if iqr == 0:
        raise ValueError("degenerate pool: zero interquartile range")
    width = 2.0 * iqr / y.size ** (1.0 / 3.0)
    n_bins = int(np.clip(np.ceil((y[-1] - y[0]) / width), 10, 2000))
    return np.linspace(y[0], y[-1], n_bins + 1)


def empirical_log_histogram(pool: RescaledCoefficients, bins=50) -> LogHistogram:
    """Histogram of ln x, density-normalized in the ln x variable.

    Exact zeros cannot enter a log histogram; they are dropped and
    counted.  ``bins`` may be an integer or precomputed ln-x edges.
    """
    density, edges = np.histogram(pool.log_positive, bins=bins, density=True)
    return LogHistogram(edges, density, n_zero_excluded=pool.n - pool.positive.size)


def empirical_cdf(pool: RescaledCoefficients, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(grid, F_emp): the empirical CDF of the positive entries on n
    uniform points of [x_0, x_m] = [min x, max x] over x > 0."""
    positive = pool.positive
    grid = np.linspace(positive[0], positive[-1], n)
    return grid, np.searchsorted(positive, grid, side="right") / positive.size


def distance_report(pool: RescaledCoefficients, nu: int = 2) -> DistanceReport:
    """SKLD and RMSE of the pooled sample against chi^2_nu.

    SKLD: histogram density estimate of P(x) with Freedman-Diaconis
    binning in ln x; the predicted mass of a bin is F(b) - F(a), or
    Q(a) - Q(b) past the median, and masses below the floor are clamped.
    RMSE: empirical versus reference CDF on ``RMSE_GRID`` uniform points
    of [x_0, x_m] = [min x, max x].  The paper's formula leaves the
    integrand unsquared; it is squared here, as the name requires.
    """
    _check_nu(nu)
    positive = pool.positive
    x0, xm = positive[0], positive[-1]
    if x0 == xm:
        raise ValueError("degenerate pool")

    # ---- SKLD over Freedman-Diaconis log-bins
    edges_x = np.exp(_fd_log_edges(pool.log_positive))
    edges_x[0], edges_x[-1] = x0, xm  # guard rounding at the ends
    counts, _ = np.histogram(positive, bins=edges_x)
    p_hat = counts / positive.size
    # bins past the median take their masses from Q: F rounds to 1 in the tail
    f_ref = chisq_cdf(edges_x, nu, pool.mean_x)
    mass = np.where(f_ref[:-1] < 0.5, np.diff(f_ref), -np.diff(_chisq_sf(edges_x, nu, pool.mean_x)))
    q_ref = np.maximum(mass, DENSITY_FLOOR)
    mask = p_hat > 0
    kl = float(np.sum(p_hat[mask] * np.log(p_hat[mask] / q_ref[mask])))
    skld = float(np.sqrt(max(kl, 0.0)))

    # ---- RMSE between cumulatives on [x_0, x_m]
    grid, f_emp = empirical_cdf(pool, RMSE_GRID)
    diff = f_emp - chisq_cdf(grid, nu, pool.mean_x)
    rmse = float(np.sqrt(np.trapezoid(diff**2, grid) / (xm - x0)))
    return DistanceReport(skld=skld, rmse=rmse, x_range=(float(x0), float(xm)), nu=nu,
                          n_bins=len(edges_x) - 1, n_grid=RMSE_GRID)
