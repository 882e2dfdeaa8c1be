"""Classical limit of the kicked top: stroboscopic sphere map, tangent
dynamics, largest Lyapunov exponents, and phase-space averages.

The one-step map is S(n+1) = M(S(n)) S(n) with

    M = [[cos X, -cos(a) sin X,  sin(a) sin X],
         [sin X,  cos(a) cos X, -sin(a) cos X],
         [0,      sin(a),        cos(a)]],

where X = kappa (S_y sin a + S_z cos a) and a is the precession angle,
i.e. a rotation about x by a followed by a z-rotation whose angle is set
by the post-precession S_z.  M is orthogonal, so trajectories stay on
the unit sphere to machine precision.

All estimators operate on batches of trajectories (shape (n, 3) arrays)
internally; the scalar operations are thin wrappers.  Lyapunov exponents
use the single-tangent-vector Benettin estimator with per-step
renormalization, per kick (unit time between kicks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .floquet import KickedTopParams

__all__ = [
    "ClassicalState",
    "GridSpec",
    "LyapunovField",
    "AveragedLyapunov",
    "classical_step",
    "jacobian",
    "lyapunov_exponent",
    "lyapunov_field",
    "averaged_lyapunov",
    "kappa_threshold",
    "phase_portrait",
    "haar_sphere",
    "rng_for_task",
]

DEFAULT_TRANSIENT = 100  # kicks discarded before Lyapunov accumulation


@dataclass(frozen=True)
class ClassicalState:
    """Unit 3-vector S = (S_x, S_y, S_z) on the classical sphere."""

    S: np.ndarray

    @staticmethod
    def from_angles(theta: float, phi: float) -> "ClassicalState":
        return ClassicalState(_unit_vectors(theta, phi))

    @property
    def angles(self) -> tuple[float, float]:
        """(phi, theta) sphere coordinates, phi folded into [0, 2pi)."""
        phi = np.arctan2(self.S[1], self.S[0]) % (2 * np.pi)
        return float(phi), float(np.arccos(np.clip(self.S[2], -1.0, 1.0)))


def _unit_vectors(theta, phi) -> np.ndarray:
    """Sphere points (sin t cos p, sin t sin p, cos t); shape (..., 3)."""
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )


def _step_batch(s: np.ndarray, alpha: float, kappa: float) -> np.ndarray:
    """Advance a batch of sphere points one kick; s has shape (n, 3)."""
    sa, ca = np.sin(alpha), np.cos(alpha)
    wx = s[:, 0]
    wy = ca * s[:, 1] - sa * s[:, 2]
    wz = sa * s[:, 1] + ca * s[:, 2]
    xi = kappa * wz
    cx, sx = np.cos(xi), np.sin(xi)
    return np.stack([cx * wx - sx * wy, sx * wx + cx * wy, wz], axis=1)


def _step_tangent_batch(s, d, alpha, kappa):
    """One kick of states s and tangent vectors d together (no renorm)."""
    sa, ca = np.sin(alpha), np.cos(alpha)
    wx = s[:, 0]
    wy = ca * s[:, 1] - sa * s[:, 2]
    wz = sa * s[:, 1] + ca * s[:, 2]
    xi = kappa * wz
    cx, sx = np.cos(xi), np.sin(xi)
    dwx = d[:, 0]
    dwy = ca * d[:, 1] - sa * d[:, 2]
    dwz = sa * d[:, 1] + ca * d[:, 2]
    dxi = kappa * dwz
    s_new = np.stack([cx * wx - sx * wy, sx * wx + cx * wy, wz], axis=1)
    d_new = np.stack(
        [
            cx * dwx - sx * dwy + (-sx * wx - cx * wy) * dxi,
            sx * dwx + cx * dwy + (cx * wx - sx * wy) * dxi,
            dwz,
        ],
        axis=1,
    )
    return s_new, d_new


def classical_step(state: ClassicalState, params) -> ClassicalState:
    """One kick of the stroboscopic map; preserves |S| to ~1e-14."""
    s = _step_batch(np.asarray(state.S, dtype=float)[None, :], params.alpha, params.kappa)
    return ClassicalState(s[0])


def jacobian(state, params) -> np.ndarray:
    """Analytic tangent map T = dS(n+1)/dS(n) at the given point.

    Chain rule through X: T = M + (dM/dX) S  (grad X)^T with
    grad X = kappa (0, sin a, cos a).
    """
    s = np.asarray(state.S if isinstance(state, ClassicalState) else state, dtype=float)
    sa, ca = np.sin(params.alpha), np.cos(params.alpha)
    xi = params.kappa * (s[1] * sa + s[2] * ca)
    cx, sx = np.cos(xi), np.sin(xi)
    m = np.array([[cx, -ca * sx, sa * sx], [sx, ca * cx, -sa * cx], [0.0, sa, ca]])
    dm_dxi = np.array([[-sx, -ca * cx, sa * cx], [cx, -ca * sx, sa * sx], [0.0, 0.0, 0.0]])
    grad_xi = params.kappa * np.array([0.0, sa, ca])
    return m + np.outer(dm_dxi @ s, grad_xi)


def _lyapunov_batch(
    s0: np.ndarray,
    alpha: float,
    kappa: float,
    n_kicks: int,
    n_transient: int = DEFAULT_TRANSIENT,
) -> np.ndarray:
    """Benettin estimates for a batch of initial conditions, shape (n, 3).

    The transient lets the tangent vector align with the most expanding
    direction before accumulation starts.
    """
    s = np.array(s0, dtype=float)
    d = np.full_like(s, 1.0 / np.sqrt(3.0))
    for _ in range(n_transient):
        s, d = _step_tangent_batch(s, d, alpha, kappa)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
    acc = np.zeros(s.shape[0])
    for _ in range(n_kicks):
        s, d = _step_tangent_batch(s, d, alpha, kappa)
        r = np.linalg.norm(d, axis=1)
        acc += np.log(r)
        d /= r[:, None]
    return acc / n_kicks


def lyapunov_exponent(
    state: ClassicalState, params, n_kicks: int, n_transient: int = DEFAULT_TRANSIENT
) -> float:
    """Largest Lyapunov exponent of one orbit (per kick)."""
    s0 = np.asarray(state.S, dtype=float)[None, :]
    return float(_lyapunov_batch(s0, params.alpha, params.kappa, n_kicks, n_transient)[0])


@dataclass(frozen=True)
class GridSpec:
    """Uniform (phi, theta) grid; points sit at cell centers, so the
    theta in (0, pi) requirement holds automatically."""

    n_phi: int = 200
    n_theta: int = 200
    phi_range: tuple[float, float] = (0.0, 2 * np.pi)
    theta_range: tuple[float, float] = (0.0, np.pi)

    @property
    def phi_centers(self) -> np.ndarray:
        lo, hi = self.phi_range
        return lo + (np.arange(self.n_phi) + 0.5) * (hi - lo) / self.n_phi

    @property
    def theta_centers(self) -> np.ndarray:
        lo, hi = self.theta_range
        return lo + (np.arange(self.n_theta) + 0.5) * (hi - lo) / self.n_theta

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (phi, theta) coordinates of all cells, phi-major."""
        ph, th = np.meshgrid(self.phi_centers, self.theta_centers, indexing="ij")
        return ph.ravel(), th.ravel()


@dataclass(frozen=True)
class LyapunovField:
    """Per-cell largest Lyapunov exponents on a (phi, theta) grid.

    ``grid[i, k]`` pairs with ``grid_spec.phi_centers[i]`` and
    ``grid_spec.theta_centers[k]``.
    """

    grid: np.ndarray = field(repr=False)
    grid_spec: GridSpec


@dataclass(frozen=True)
class AveragedLyapunov:
    """Phase-space averaged largest Lyapunov exponent with its standard error."""

    mean: float
    stderr: float
    n_samples: int

    @property
    def ks_entropy(self) -> float:
        """Kolmogorov-Sinai entropy via the Pesin relation, 4 pi * mean."""
        return 4 * np.pi * self.mean


def lyapunov_field(
    params, grid_spec: GridSpec, n_kicks: int = 5000, n_transient: int = DEFAULT_TRANSIENT
) -> LyapunovField:
    """Largest Lyapunov exponent for every cell of a (phi, theta) grid."""
    phi, theta = grid_spec.mesh()
    s0 = _unit_vectors(theta, phi)
    lam = _lyapunov_batch(s0, params.alpha, params.kappa, n_kicks, n_transient)
    return LyapunovField(
        grid=lam.reshape(grid_spec.n_phi, grid_spec.n_theta), grid_spec=grid_spec
    )


def haar_sphere(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n Haar-uniform sphere points as (theta, phi) arrays.

    theta = arccos(1 - 2u), phi = 2 pi v with u, v uniform on [0, 1).
    """
    u = rng.random(n)
    v = rng.random(n)
    return np.arccos(1.0 - 2.0 * u), 2 * np.pi * v


def rng_for_task(seed: int, task_index: int = 0) -> np.random.Generator:
    """Deterministic per-task RNG substream, independent of scheduling order."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(task_index))))


def averaged_lyapunov(
    params,
    n_samples: int = 5000,
    n_kicks: int = 5000,
    seed: int = 0,
    n_transient: int = DEFAULT_TRANSIENT,
    task_index: int = 0,
) -> AveragedLyapunov:
    """Monte-Carlo phase-space average of the largest Lyapunov exponent.

    Initial conditions are Haar-uniform on the sphere (the dS = sin
    theta dtheta dphi measure), drawn from the (seed, task_index)
    substream, so scans are reproducible regardless of scheduling.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2 for a standard error, got {n_samples}")
    theta, phi = haar_sphere(n_samples, rng_for_task(seed, task_index))
    s0 = _unit_vectors(theta, phi)
    lam = _lyapunov_batch(s0, params.alpha, params.kappa, n_kicks, n_transient)
    return AveragedLyapunov(
        mean=float(lam.mean()),
        stderr=float(lam.std(ddof=1) / np.sqrt(n_samples)),
        n_samples=n_samples,
    )


def kappa_threshold(
    alpha: float,
    threshold: float = 0.002,
    resolution: float = 0.05,
    kappa_max: float = 10.0,
    n_samples: int = 2000,
    n_kicks: int = 5000,
    seed: int = 0,
) -> float:
    """Chaos-onset kick strength: smallest kappa with lambda-bar = threshold.

    Bisection of the Monte-Carlo average over kappa in [0, kappa_max];
    raises ValueError when no crossing exists there (the integrable
    precession angles alpha = 0, pi, 2pi).  n_kicks must be large enough
    that the Benettin estimate of a sheared regular orbit, which decays
    like ln(n)/n, sits below the threshold; 5000 kicks clears 0.002.
    """

    def mean_lyap(kappa: float) -> float:
        p = KickedTopParams(alpha=alpha, kappa=kappa, j=1)
        return averaged_lyapunov(p, n_samples=n_samples, n_kicks=n_kicks, seed=seed).mean

    hi = kappa_max
    if mean_lyap(hi) < threshold:
        raise ValueError(
            f"lambda-bar never reaches {threshold} for kappa <= {kappa_max} at alpha={alpha}"
        )
    lo = 0.0
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if mean_lyap(mid) >= threshold:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def phase_portrait(
    params, n_orbits: int = 289, n_kicks: int = 300, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stroboscopic (phi, theta) points of random orbits.

    Returns flat arrays (phi, theta, orbit_id) with n_orbits*(n_kicks+1)
    entries, including the initial points.  Defaults match the standard
    portrait recipe of 289 random initial conditions over 300 kicks.
    """
    theta0, phi0 = haar_sphere(n_orbits, rng_for_task(seed))
    s = _unit_vectors(theta0, phi0)
    phis = np.empty((n_orbits, n_kicks + 1))
    thetas = np.empty((n_orbits, n_kicks + 1))
    for n in range(n_kicks + 1):
        phis[:, n] = np.arctan2(s[:, 1], s[:, 0]) % (2 * np.pi)
        thetas[:, n] = np.arccos(np.clip(s[:, 2], -1.0, 1.0))
        if n < n_kicks:
            s = _step_batch(s, params.alpha, params.kappa)
    orbit_id = np.repeat(np.arange(n_orbits), n_kicks + 1)
    return phis.ravel(), thetas.ravel(), orbit_id
