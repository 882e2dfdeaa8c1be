"""Spin-j algebra: Dicke basis bookkeeping, angular momentum matrices,
and SU(2) coherent spin states.

Basis ordering convention used everywhere in this package:
``m = -j, -j+1, ..., +j`` maps to indices ``0 .. 2j``, so index
``i`` holds magnetic quantum number ``m = i - j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

__all__ = ["SpinBasis", "CoherentState", "angular_momentum", "coherent_state"]

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


@dataclass(frozen=True)
class CoherentState:
    """Normalized SU(2) coherent state |theta, phi> over the Dicke basis."""

    amplitudes: np.ndarray = field(repr=False)
    theta: float
    phi: float

    @property
    def weights(self) -> np.ndarray:
        """Occupation probabilities |c_m|^2."""
        return np.abs(self.amplitudes) ** 2


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


def coherent_state(basis: SpinBasis, theta: float, phi: float) -> CoherentState:
    """SU(2) coherent spin state centered at sphere point (theta, phi).

    theta in [0, pi], phi in [0, 2pi).  One column of
    :func:`coherent_state_matrix`, normalized to 1.
    """
    amps = coherent_state_matrix(basis, [theta], [phi])[:, 0]
    return CoherentState(amplitudes=amps, theta=float(theta), phi=float(phi))


def coherent_state_matrix(basis: SpinBasis, thetas, phis) -> np.ndarray:
    """Column-stacked coherent states for many (theta, phi) points.

    Returns a dim x n complex array whose k-th column is the amplitude
    vector of |theta_k, phi_k>, normalized to 1.

    Amplitudes are zeta^(j-m) (1+|zeta|^2)^(-j) sqrt((2j)!/((j+m)!(j-m)!))
    with zeta = tan(theta/2) e^(i phi).  The factorial ratio and the
    power of |zeta| are accumulated in log space so the construction
    stays finite well past j ~ 85 where (2j)! overflows doubles.  The
    poles theta = 0, pi take the exact limits |j, +j> and |j, -j>.
    Amplitudes below ``AMPLITUDE_CUTOFF`` times the column's largest are
    exact zeros, so no entry is subnormal.
    """
    band, lo, hi = _coherent_band(basis, thetas, phis)
    out = np.zeros((basis.dim, band.shape[1]), dtype=complex)
    out[lo:hi] = band
    return out


def _coherent_band(basis: SpinBasis, thetas, phis, row_phase=None) -> tuple[np.ndarray, int, int]:
    """Coherent states restricted to the Dicke rows they occupy.

    Returns ``(band, lo, hi)``: ``band[:, k]`` holds rows lo..hi-1 of
    column k of :func:`coherent_state_matrix`, and every row outside
    [lo, hi) is zero in every column.  A state is non-negligible only
    within O(sqrt j) rows of m = j cos(theta), so states of similar
    theta share a narrow window.  With ``row_phase`` (one unit complex
    per Dicke row) row i of every column is multiplied by row_phase[i].
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
    m = basis.m_values
    ln_binom = gammaln(2 * j + 1) - gammaln(j + m + 1) - gammaln(j - m + 1)
    t = np.tan(thetas / 2.0)
    north = t == 0.0  # also theta = 5e-324, whose half underflows
    south = thetas == np.pi
    interior = ~(north | south)
    t = np.where(interior, t, 1.0)
    log_mag = np.outer(j - m, np.log(t))
    log_mag -= j * np.log1p(t * t)[None, :]
    log_mag += 0.5 * ln_binom[:, None]
    log_mag[:, ~interior] = -np.inf
    log_mag[-1, north] = 0.0
    log_mag[0, south] = 0.0
    keep = log_mag >= log_mag.max(axis=0) + np.log(AMPLITUDE_CUTOFF)
    occupied = np.flatnonzero(np.any(keep, axis=1))
    lo, hi = (int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else (0, 0)
    mag = np.where(keep[lo:hi], np.exp(log_mag[lo:hi]), 0.0)
    mag /= np.sqrt(np.einsum("rk,rk->k", mag, mag))
    band = _phase_tiles(2 * j - lo, hi - lo, np.where(interior, phis, 0.0))  # poles carry no phase
    if row_phase is not None:
        band *= row_phase[lo:hi, None]
    band.view(float).reshape(*mag.shape, 2)[...] *= mag[:, :, None]
    return band, lo, hi


def _phase_tiles(n0, rows: int, phis: np.ndarray) -> np.ndarray:
    """e^(i (n0 - r) phi_k) for r < rows: a (rows, n) complex array.

    Row r = PHASE_TILE * a + b is coarse[a] * fine[b], with coarse[a] =
    e^(i (n0 - PHASE_TILE a) phi) and fine[b] = e^(-i b phi), so each
    entry costs one complex multiply instead of a complex exp.  phi is
    split as top + rest with top on 26 bits, so n * top is exact for any
    n < 2^27 and the coarse phases carry no rounding of the product
    n * phi; the result agrees with the exactly rounded e^(i n phi) to
    a few units of 1e-16 times max(1, PHASE_TILE |phi|).
    """
    tiles = -(-rows // PHASE_TILE)
    n = n0 - PHASE_TILE * np.arange(tiles)[:, None]
    # Veltkamp split by 2^27 + 1; the clip keeps the product finite, as n * phi is
    split = np.clip(phis, -1e300, 1e300) * 134217729.0
    top = split - (split - phis)
    coarse = np.exp(1j * (n * top)) * np.exp(1j * (n * (phis - top)))
    fine = np.exp(-1j * np.outer(np.arange(PHASE_TILE), phis))
    return (coarse[:, None, :] * fine).reshape(tiles * PHASE_TILE, phis.size)[:rows]
