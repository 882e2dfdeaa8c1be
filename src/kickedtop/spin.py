"""Spin-j algebra: Dicke basis bookkeeping, angular momentum matrices,
and SU(2) coherent spin states.

Basis ordering convention used everywhere in this package:
``m = -j, -j+1, ..., +j`` maps to indices ``0 .. 2j``, so index
``i`` holds magnetic quantum number ``m = i - j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lgamma

import numpy as np

__all__ = ["SpinBasis", "CoherentState", "angular_momentum", "coherent_state"]


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
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    bad = ~((thetas >= 0.0) & (thetas <= np.pi))
    if np.any(bad):
        raise ValueError(f"theta must lie in [0, pi], got {thetas[bad][0]}")
    j = basis.j
    dim = basis.dim
    m = np.arange(dim) - j
    ln_binom = np.array(
        [lgamma(2 * j + 1) - lgamma(j + mm + 1) - lgamma(j - mm + 1) for mm in m]
    )
    out = np.zeros((dim, thetas.size), dtype=complex)
    interior = (thetas > 0.0) & (thetas < np.pi)
    out[-1, thetas == 0.0] = 1.0
    out[0, thetas == np.pi] = 1.0
    if np.any(interior):
        t = np.tan(thetas[interior] / 2.0)
        log_mag = (
            np.outer(j - m, np.log(t))
            - j * np.log1p(t * t)[None, :]
            + 0.5 * ln_binom[:, None]
        )
        block = np.exp(log_mag + 1j * np.outer(j - m, phis[interior]))
        block /= np.linalg.norm(block, axis=0, keepdims=True)
        out[:, interior] = block
    return out
