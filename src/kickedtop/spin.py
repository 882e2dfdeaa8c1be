"""Spin-j algebra: Dicke basis bookkeeping, angular momentum matrices,
and SU(2) coherent spin states.

Basis ordering convention used everywhere in this package:
``m = -j, -j+1, ..., +j`` maps to indices ``0 .. 2j``, so index
``i`` holds magnetic quantum number ``m = i - j``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpinBasis",
    "angular_momentum",
    "coherent_state_matrix",
    "coherent_band",
]

# Amplitudes below this fraction of their column's largest are exact zeros:
# dropping them moves weights by about one rounding unit, and subnormal
# entries would put the expansion GEMM on a slow path.
AMPLITUDE_CUTOFF = 1e-17
# Dicke rows per tile of the two-level phase table in _phase_tiles
PHASE_TILE = 32


@dataclass(frozen=True)
class SpinBasis:
    """Fixed spin quantum number j with its (2j+1)-dimensional Dicke basis.

    j may be integer or half-integer; dim = 2j + 1 exactly.
    """

    j: float

    def __post_init__(self):
        twoj = round(2 * self.j)
        if abs(2 * self.j - twoj) > 1e-12 or twoj <= 0:
            raise ValueError(f"j must be a positive integer or half-integer, got {self.j}")
        object.__setattr__(self, "j", twoj / 2.0)

    @property
    def dim(self) -> int:
        return round(2 * self.j) + 1

    @property
    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order, m = -j ... +j."""
        return np.arange(self.dim) - self.j


def angular_momentum(basis: SpinBasis, axis: str) -> np.ndarray:
    """Dense matrix of J_x, J_y or J_z in the Dicke basis.

    J_z is diagonal with entries m; J_x, J_y are built from the ladder
    operators with elements sqrt(j(j+1) - m(m+1)).
    """
    j, m = basis.j, basis.m_values
    if axis == "z":
        return np.diag(m.astype(complex))
    # raising operator: <m+1|J+|m> = sqrt(j(j+1) - m(m+1))
    ladder = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jp = np.diag(ladder.astype(complex), k=-1)  # entry [i+1, i] -> row m+1, col m
    if axis == "x":
        return (jp + jp.conj().T) / 2
    if axis == "y":
        return (jp - jp.conj().T) / 2j
    raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")


def jx_tridiagonal(basis: SpinBasis) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the real symmetric tridiagonal J_x."""
    j, m = basis.j, basis.m_values
    off = 0.5 * np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    return np.zeros(basis.dim), off


def coherent_state_matrix(basis: SpinBasis, thetas, phis) -> np.ndarray:
    """Column-stacked coherent states for many (theta, phi) points.

    Returns a dim x n complex array whose k-th column is the amplitude
    vector of |theta_k, phi_k>, normalized to 1: :func:`coherent_band`
    placed in all 2j+1 rows.  One state is ``[:, 0]`` of a batch of one.

    Amplitudes are zeta^(j-m) (1+|zeta|^2)^(-j) sqrt((2j)!/((j+m)!(j-m)!))
    with zeta = tan(theta/2) e^(i phi).  The factorial ratio and the
    power of |zeta| are accumulated in log space so the construction
    stays finite well past j ~ 85 where (2j)! overflows doubles; the
    factorial ratio enters as ln C(2j, j+m) from the exact integer
    binomial (see :func:`_ln_binomial`).  The
    poles theta = 0, pi take the exact limits |j, +j> and |j, -j>.
    Amplitudes below ``AMPLITUDE_CUTOFF`` times the column's largest are
    exact zeros, so no entry is subnormal.
    """
    band, lo, hi = coherent_band(basis, thetas, phis)
    out = np.zeros((basis.dim, band.shape[1]), dtype=complex)
    out[lo:hi] = band
    return out


def coherent_band(basis: SpinBasis, thetas, phis, row_phase=None) -> tuple[np.ndarray, int, int]:
    """Coherent states restricted to the Dicke rows they occupy.

    Returns ``(band, lo, hi)``: ``band[:, k]`` holds rows lo..hi-1 of
    column k of :func:`coherent_state_matrix`, and every row outside
    [lo, hi) is zero in every column.  A state is non-negligible only
    within O(sqrt j) rows of m = j cos(theta), so states of similar
    theta share a narrow window; only the rows of :func:`_row_window`
    are evaluated.  With ``row_phase`` (one complex factor per Dicke
    row) row i of every column is multiplied by row_phase[i].
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    bad = ~((thetas >= 0.0) & (thetas <= np.pi))
    if np.any(bad):
        raise ValueError(f"theta must lie in [0, pi], got {thetas[bad][0]}")
    bad = ~np.isfinite(phis)
    if np.any(bad):
        raise ValueError(f"phi must be finite, got {phis[bad][0]}")
    j = basis.j
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(2 * j * phis)  # (j-m) phi for m = -j must be finite
    if np.any(bad):
        limit = np.finfo(float).max / (2 * j)
        raise ValueError(
            f"phi must satisfy 2j |phi| < 1.8e308, |phi| <= {limit:.6g} at j = {j}, got {phis[bad][0]}"
        )
    a, b = _row_window(j, thetas)
    m = basis.m_values[a:b]
    t = np.tan(thetas / 2.0)
    north = t == 0.0  # also theta = 5e-324, whose half underflows
    south = thetas == np.pi
    interior = ~(north | south)
    t = np.where(interior, t, 1.0)
    log_mag = np.outer(j - m, np.log(t))
    log_mag -= j * np.log1p(t * t)[None, :]
    log_mag += 0.5 * _ln_binomial(j)[a:b, None]
    log_mag[:, ~interior] = -np.inf
    log_mag[-1, north] = 0.0  # a pole's peak row is in the window, so b = dim here
    log_mag[0, south] = 0.0  # and a = 0 here
    keep = log_mag >= log_mag.max(axis=0) + np.log(AMPLITUDE_CUTOFF)
    occupied = np.flatnonzero(np.any(keep, axis=1))
    lo, hi = (int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else (0, 0)
    mag = np.exp(log_mag[lo:hi], out=np.zeros((hi - lo, thetas.size)), where=keep[lo:hi])
    scale = 1.0 / np.sqrt(np.einsum("rk,rk->k", mag, mag))
    band = _phase_tiles(2 * j - a - lo, hi - lo, np.where(interior, phis, 0.0), scale)  # poles carry no phase
    if row_phase is not None:
        band *= row_phase[a + lo : a + hi, None]
    band *= mag
    return band, a + lo, a + hi


def _row_window(j: float, thetas: np.ndarray) -> tuple[int, int]:
    """Dicke rows [a, b) outside which no amplitude of these states passes
    ``AMPLITUDE_CUTOFF`` relative to its column's largest.

    ln|c_m| is concave along the ladder: its second difference
    (1/2) ln[(j-m)(j+m) / ((j-m+1)(j+m+1))] is at most -1/(j+1).  It
    peaks at the smallest m with (j-m)/(j+m+1) <= tan^2(theta/2): m*,
    the smallest ladder value at or above j cos(theta) - sin^2(theta/2)
    (clipped to -j).  So ln|c_(m* +- k)| <= ln|c_m*| - k(k-1)/(2(j+1)),
    and only rows with k(k-1) <= 2(j+1) ln(1/AMPLITUDE_CUTOFF) can pass.
    One more row on each side absorbs a rounding of m* by one row.  At
    j = 400 that is 178 rows on each side of the peak.
    """
    dim = round(2 * j) + 1
    if thetas.size == 0:
        return 0, dim
    k_max = math.floor(0.5 + math.sqrt(0.25 - 2 * (j + 1) * math.log(AMPLITUDE_CUTOFF)))
    peak = np.ceil(j * np.cos(thetas) - np.sin(thetas / 2.0) ** 2 + j)  # row index of m*
    return max(int(peak.min()) - k_max - 1, 0), min(int(peak.max()) + k_max + 2, dim)


@functools.lru_cache(maxsize=8)
def _ln_binomial(j: float) -> np.ndarray:
    """ln C(2j, j+m) for m = -j..j, memoized per j; the array is read-only.

    Each binomial is an exact integer, c <- c (2j-k) // (k+1) along the
    row, and only its logarithm is rounded, so the array is exactly
    symmetric in m and within about one unit in the last place of the
    exact ln C: 1.4e-14 absolute at j = 150, 2.6e-13 up to j = 1000
    (against 50-digit decimal logarithms).  A difference of log-gamma
    values, each up to 1.3e4 at j = 1000, would carry 6.6e-13 at
    j = 150 and 3.5e-12 at j = 1000.  Threads that miss on the same j
    at once only compute it twice.
    """
    n = round(2 * j)
    out, c = np.empty(n + 1), 1
    for k in range(n + 1):
        out[k] = math.log(c)
        c = c * (n - k) // (k + 1)
    out.setflags(write=False)
    return out


def _phase_tiles(n0, rows: int, phis: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """scale_k e^(i (n0 - r) phi_k) for r < rows: a (rows, n) complex array.

    Row r = PHASE_TILE * a + b is coarse[a] * fine[b], with coarse[a] =
    scale e^(i (n0 - PHASE_TILE a) phi) and fine[b] = e^(-i b phi), so
    each entry costs one complex multiply instead of a complex exp.  phi
    is split as top + rest with top on 26 bits, so n * top is exact for
    any n < 2^27 and the coarse phases carry no rounding of the product
    n * phi.  The fine phases are products of the one exp e^(-i phi):
    fine[k:2k] = fine[:k] e^(-i k phi) for k = 1, 2, 4, ..., with
    e^(-i k phi) from repeated squaring, so each is at most nine
    multiplies deep.  The result agrees with the exactly rounded
    scale e^(i n phi) to a few units of 1e-15.
    """
    tiles = -(-rows // PHASE_TILE)
    n = n0 - PHASE_TILE * np.arange(tiles)[:, None]
    # Veltkamp split by 2^27 + 1; the clip keeps the product finite, as n * phi is
    split = np.clip(phis, -1e300, 1e300) * 134217729.0
    top = split - (split - phis)
    coarse = np.exp(1j * (n * top)) * np.exp(1j * (n * (phis - top)))
    coarse *= scale
    fine = np.empty((PHASE_TILE, phis.size), dtype=complex)
    fine[0] = 1.0
    step = np.exp(-1j * phis)
    k = 1
    while k < PHASE_TILE:  # fine[k:2k] = fine[:k] e^(-i k phi)
        np.multiply(fine[:k], step, out=fine[k : 2 * k])
        step = step * step
        k *= 2
    return (coarse[:, None, :] * fine).reshape(tiles * PHASE_TILE, phis.size)[:rows]
