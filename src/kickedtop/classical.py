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

One in-place kick, ``_kick``, advances a batch of trajectories held as
x, y and z arrays of one row, the points, or two, the points and their
tangent vectors, which then share each rotation's ufunc calls; every
other operation is a view of it.  Its parameters are per trajectory:
kappa, sin a and cos a are scalars shared by the batch or arrays with
one entry per trajectory, and sin a and cos a are taken once per batch,
not per kick.  So each recipe runs as one batch over all its parameter
points: a field or a portrait over several kappa, a (kappa, alpha) scan
of phase-space averages, and each level of the ``kappa_threshold``
bisection across all alpha still open.  A batch runs in chunks of
``CHUNK_TRAJECTORIES`` trajectories, through an optional ``scan``
callable (the CLI passes its thread pool); a trajectory's result is
bit-identical whatever batch, chunk or thread it runs in.

Lyapunov exponents use the single-tangent-vector Benettin estimator,
per kick (unit time between kicks).  After the transient the tangent is
rescaled only by exact powers of two, every few kicks as its kappa
allows, and lambda is read from its final norm and the powers taken out
(``_lyapunov_batch``).
The map and the kick commute with the parity R_x(pi), (x, y, z) ->
(x, -y, -z), bit for bit, so a field on a grid that the parity maps onto
itself runs only the first half of its cells (``GridSpec.solved_cells``)
and copies each into its mirror cell (``GridSpec.mirror_fill``).
Phase portraits record the points of ``RECORD_KICKS`` kicks at a time
and take their angles once per block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.random import SeedSequence, default_rng

from .floquet import KickedTopParams

__all__ = [
    "GridSpec",
    "LyapunovField",
    "AveragedLyapunov",
    "jacobian",
    "lyapunov_field",
    "averaged_lyapunov",
    "kappa_threshold",
    "phase_portrait",
    "haar_sphere",
    "rng_for_task",
]

DEFAULT_TRANSIENT = 100  # kicks discarded before Lyapunov accumulation
CHUNK_TRAJECTORIES = 16384  # trajectories per kernel chunk: ~14 work arrays in 2 MB of L2
RECORD_KICKS = 32  # portrait points recorded per block before their angles are taken
_MIRROR_TOL = 1e-14  # phi and theta range sums within this of 2 pi and pi are mirror-symmetric


def _unit_vectors(theta, phi) -> np.ndarray:
    """Sphere points (sin t cos p, sin t sin p, cos t); shape (..., 3)."""
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )


def _serial(compute, items) -> list:
    """``compute(index, item)`` for every item, in order, on this thread."""
    return [compute(i, item) for i, item in enumerate(items)]


def _chunked(n: int, scan, compute, *values) -> None:
    """Run ``compute(rows, *values)`` over consecutive slices ``rows`` of
    range(n), ``CHUNK_TRAJECTORIES`` long, through ``scan`` (same call
    form as ``_serial``, the default), e.g. the CLI's thread pool.  Each
    of ``values`` is a scalar shared by all trajectories, passed as it
    is, or an array with one entry per trajectory, passed as its rows."""

    def one(_, rows):
        compute(rows, *(v[rows] if np.ndim(v) else v for v in values))

    chunks = [slice(lo, lo + CHUNK_TRAJECTORIES) for lo in range(0, n, CHUNK_TRAJECTORIES)]
    (scan or _serial)(one, chunks)


def _points(params) -> tuple[list, bool]:
    """(points, single): one parameter set as a list of one, or a sequence."""
    single = hasattr(params, "kappa")
    return ([params] if single else list(params)), single


def _per_trajectory(points, n: int):
    """(alpha, kappa) for n trajectories per point, point-major: one
    point's scalars, or each point's values repeated n times."""
    if len(points) == 1:
        return points[0].alpha, points[0].kappa
    return (
        np.repeat(np.array([p.alpha for p in points], dtype=float), n),
        np.repeat(np.array([p.kappa for p in points], dtype=float), n),
    )


def _kick(s, sa, ca, kappa, work):
    """Advance a batch one kick, in place.

    s has shape (3, rows, n): x, y and z as (rows, n) arrays.  Row 0
    holds n sphere points and row 1, when present, their tangent vectors,
    advanced by the tangent map at the old points (no renormalization).
    sa, ca and kappa are sin(alpha), cos(alpha) and kappa, each a scalar
    or an array of n per-trajectory values.  ``work`` holds at least
    3 * rows + 1 work arrays of length n, clobbered.  Writing
    W = R_x(a) S, X = kappa W_z:

        S' = (cos X W_x - sin X W_y, sin X W_x + cos X W_y, W_z)
        d' = (cos X dW_x - sin X dW_y - S'_y dX,
              sin X dW_x + cos X dW_y + S'_x dX, dW_z)

    with dW = R_x(a) d and dX = kappa dW_z.  So both rows take the R_x(a)
    and R_z(X) rotations in one ufunc each, with X from row 0, and the
    tangent adds only the two dX terms.  These reuse S': dS'_x/dX = -S'_y
    and dS'_y/dX = S'_x hold bit for bit, since IEEE negation is exact.
    """
    x, y, z = s
    rows = s.shape[1]
    wy, t, k = work[:rows], work[rows : 2 * rows], work[2 * rows : 3 * rows]
    sx = work[3 * rows : 3 * rows + 1]
    # one ufunc per operation of the formulas above, in their order, on
    # every row: reordering a sum or product would move the last bits of lambda
    np.multiply(ca, y, out=wy)
    np.multiply(sa, z, out=t)
    np.subtract(wy, t, out=wy)  # W_y = ca y - sa z
    np.multiply(sa, y, out=t)
    np.multiply(ca, z, out=y)
    np.add(t, y, out=z)  # z' = W_z = sa y + ca z
    np.multiply(kappa, z, out=k)  # X, and dX on row 1
    cx = k[:1]  # X, then cos X
    np.sin(cx, out=sx)
    np.cos(cx, out=cx)
    np.multiply(sx, wy, out=t)
    np.multiply(sx, x, out=y)
    np.multiply(cx, x, out=x)
    np.subtract(x, t, out=x)
    np.multiply(cx, wy, out=t)
    np.add(y, t, out=y)  # x, y now hold the rotated rows: S'_x, S'_y on row 0
    if rows == 1:
        return
    np.multiply(s[1::-1, 0], k[1], out=t)  # S'_y dX, S'_x dX
    np.subtract(x[1], t[0], out=x[1])
    np.add(y[1], t[1], out=y[1])


def _step_batch(s: np.ndarray, alpha: float, kappa: float) -> np.ndarray:
    """Advance a batch of sphere points one kick; s has shape (n, 3)."""
    pts = np.array(s, dtype=float).T.copy()[:, None]
    _kick(pts, np.sin(alpha), np.cos(alpha), kappa, np.empty((4, pts.shape[2])))
    return pts[:, 0].T


def jacobian(s: np.ndarray, params) -> np.ndarray:
    """Analytic tangent map T = dS(n+1)/dS(n) at the sphere point s, shape (3,).

    Chain rule through X: T = M + (dM/dX) S  (grad X)^T with
    grad X = kappa (0, sin a, cos a).
    """
    s = np.asarray(s, dtype=float)
    sa, ca = np.sin(params.alpha), np.cos(params.alpha)
    xi = params.kappa * (s[1] * sa + s[2] * ca)
    cx, sx = np.cos(xi), np.sin(xi)
    m = np.array([[cx, -ca * sx, sa * sx], [sx, ca * cx, -sa * cx], [0.0, sa, ca]])
    dm_dxi = np.array([[-sx, -ca * cx, sa * cx], [cx, -ca * sx, sa * sx], [0.0, 0.0, 0.0]])
    grad_xi = params.kappa * np.array([0.0, sa, ca])
    return m + np.outer(dm_dxi @ s, grad_xi)


def _rescale_periods(kappa) -> np.ndarray:
    """Kicks between two power-of-two rescales of a tangent: per kappa, the
    largest power of two K <= 16 with K log2(1 + kappa) <= 500, or 1.  One
    kick stretches a tangent by at most 1 + kappa, so K kicks keep it
    within 2^+-500 of its last scale."""
    growth = np.log2(1.0 + np.abs(np.asarray(kappa, dtype=float)))
    period = np.full(growth.shape, 16)
    for _ in range(4):
        period = np.where(period * growth > 500, period // 2, period)
    return period


def _norm(d, out, tmp):
    """|d| of tangents d, shape (3, n), into ``out``, summed as
    (dx^2 + dy^2) + dz^2, the order of np.linalg.norm."""
    np.multiply(d[0], d[0], out=out)
    np.multiply(d[1], d[1], out=tmp)
    np.add(out, tmp, out=out)
    np.multiply(d[2], d[2], out=tmp)
    np.add(out, tmp, out=out)
    return np.sqrt(out, out=out)


def _lyapunov_batch(
    s0: np.ndarray,
    alpha,
    kappa,
    n_kicks: int,
    n_transient: int = DEFAULT_TRANSIENT,
    scan=None,
) -> np.ndarray:
    """Benettin estimates for a batch of initial conditions, shape (n, 3).

    alpha and kappa are scalars or arrays of n per-trajectory values.
    The transient lets the tangent vector align with the most expanding
    direction before accumulation starts; at its end each tangent is
    divided by its norm.  From then on the tangent is rescaled only by
    exact powers of two: every K kicks (``_rescale_periods`` of its own
    kappa) it is divided, with ``ldexp``, by 2^e, e the ``frexp``
    exponent of its largest |component|, and e is added to a count E.
    So lambda = (ln|d| + E ln 2) / n_kicks, with no norm, sqrt, log or
    divide per kick.  A chunk rescales at the multiples of its smallest
    K, and a trajectory whose K does not divide the kick count is left
    as it is, so each trajectory rescales at the multiples of its own K.

    Trajectories run in chunks of ``CHUNK_TRAJECTORIES`` through ``scan``
    (see ``_chunked``); each is independent, so a trajectory's estimate
    does not depend on the batch or chunk it is run in.
    """
    if n_kicks < 1:
        raise ValueError(f"n_kicks must be at least 1, got {n_kicks}")
    s = np.asarray(s0, dtype=float)
    lam = np.empty(s.shape[0])

    def chunk(rows, sa, ca, kappa, period):
        start = s[rows].T
        n = start.shape[1]
        pts = np.empty((3, 2, n))  # x, y, z; row 0 the points, row 1 their tangents
        pts[:, 0] = start
        pts[:, 1] = 1.0 / np.sqrt(3.0)
        d = pts[:, 1]
        work = np.empty((7, n))
        # frexp's exponents and who is due a rescale, in the bytes of two work arrays
        exps, due = work[5].view(np.intc)[:n], work[6].view(bool)[:n]
        count = np.zeros(n)  # E
        step = int(np.min(period))

        def kicks(n_run):
            for c in range(1, n_run + 1):
                _kick(pts, sa, ca, kappa, work)
                if c % step == 0:
                    # K divides c for every K up to c's largest power-of-two factor
                    np.less_equal(period, c & -c, out=due)
                    np.abs(d, out=work[:3])
                    np.maximum(work[0], work[1], out=work[3])
                    np.maximum(work[3], work[2], out=work[3])
                    np.frexp(work[3], out=(work[4], exps))
                    np.add(count, exps, out=count, where=due)
                    np.negative(exps, out=exps)
                    np.ldexp(d, exps, out=d, where=due)

        kicks(max(n_transient, 0))
        np.divide(d, _norm(d, work[0], work[1]), out=d)
        count.fill(0.0)  # E counts from the end of the transient
        kicks(n_kicks)
        r = np.log(_norm(d, work[0], work[1]), out=work[0])
        np.add(r, np.multiply(count, np.log(2.0), out=work[1]), out=r)
        np.divide(r, n_kicks, out=lam[rows])

    _chunked(s.shape[0], scan, chunk, np.sin(alpha), np.cos(alpha), kappa, _rescale_periods(kappa))
    return lam


@dataclass(frozen=True)
class GridSpec:
    """Uniform (phi, theta) grid of n_phi x n_theta cells, with points at
    cell centers.  Construction raises ValueError unless both counts are
    integers >= 1 and both ranges are finite with lo < hi, theta_range
    inside [0, pi], so every theta lies in (0, pi).

    The kicked top's parity R_x(pi), (x, y, z) -> (x, -y, -z), maps
    (phi, theta) to (2 pi - phi, pi - theta).  When phi_lo + phi_hi = 2 pi
    and theta_lo + theta_hi = pi (the default (0, 2 pi) x (0, pi) among
    them, each sum to 1e-14), it takes the center of cell (i, k) to that of
    (n_phi-1-i, n_theta-1-k), i.e. flat cell f of the phi-major mesh to
    cell N-1-f: the grid maps onto itself reversed.
    """

    n_phi: int = 200
    n_theta: int = 200
    phi_range: tuple[float, float] = (0.0, 2 * np.pi)
    theta_range: tuple[float, float] = (0.0, np.pi)

    def __post_init__(self):
        for name in ("n_phi", "n_theta"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
        for name in ("phi_range", "theta_range"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"{name} must be finite with lo < hi, got {(lo, hi)!r}")
        lo, hi = self.theta_range
        if lo < 0.0 or hi > np.pi:
            raise ValueError(f"theta_range must lie inside [0, pi], got {(lo, hi)!r}")

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

    def solved_cells(self) -> int:
        """How many cells of the phi-major mesh a field solves: the first
        ceil(N/2) when the parity maps the grid onto itself reversed (see
        above), all N otherwise.  ``mirror_fill`` completes the field."""
        cells = self.n_phi * self.n_theta
        symmetric = (abs(sum(self.phi_range) - 2 * np.pi) <= _MIRROR_TOL
                     and abs(sum(self.theta_range) - np.pi) <= _MIRROR_TOL)
        return (cells + 1) // 2 if symmetric else cells

    def mirror_fill(self, solved: np.ndarray) -> np.ndarray:
        """The values of all N flat cells (first axis) from those of the
        ``solved_cells()`` first ones: cell N-1-f is a copy of cell f for
        every cell past them."""
        return np.concatenate([solved, solved[: self.n_phi * self.n_theta - len(solved)][::-1]])


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
    params,
    grid_spec: GridSpec,
    n_kicks: int = 5000,
    n_transient: int = DEFAULT_TRANSIENT,
    scan=None,
):
    """Largest Lyapunov exponent for every cell of a (phi, theta) grid.

    ``params`` is one parameter set, giving one field, or a sequence of
    them, run as one batch and giving a list of fields in its order.
    ``scan`` runs the batch's chunks (see ``_chunked``).

    Only ``grid_spec.solved_cells()`` cells are run, each from its own
    center with the tangent d0 = (1, 1, 1)/sqrt3; on a mirror-symmetric
    grid the rest are ``mirror_fill`` copies.  The kick is bitwise
    equivariant under the parity R = diag(1, -1, -1) (negation is exact,
    sin is odd and cos even), so a copied cell holds exactly the Benettin
    estimate from R s0 of its partner's start s0, with tangent R d0: the
    cell's own center up to the rounding of the angles, and on a regular
    cell a tangent that moves lambda by up to about 5e-3 at 10^3 kicks.
    """
    points, single = _points(params)
    phi, theta = grid_spec.mesh()
    solved = grid_spec.solved_cells()
    s0 = _unit_vectors(theta[:solved], phi[:solved])
    starts = s0 if len(points) == 1 else np.tile(s0, (len(points), 1))
    lam = _lyapunov_batch(starts, *_per_trajectory(points, solved), n_kicks, n_transient, scan)
    fields = [
        LyapunovField(
            grid=grid_spec.mirror_fill(lam[i * solved : (i + 1) * solved]).reshape(
                grid_spec.n_phi, grid_spec.n_theta
            ),
            grid_spec=grid_spec,
        )
        for i in range(len(points))
    ]
    return fields[0] if single else fields


def haar_sphere(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n Haar-uniform sphere points as (theta, phi) arrays.

    theta = arccos(1 - 2u), phi = 2 pi v with u, v uniform on [0, 1).
    """
    u = rng.random(n)
    v = rng.random(n)
    return np.arccos(1.0 - 2.0 * u), 2 * np.pi * v


def rng_for_task(seed: int, task_index: int = 0) -> np.random.Generator:
    """Deterministic per-task RNG substream, independent of scheduling order."""
    return default_rng(SeedSequence((int(seed), int(task_index))))


def _haar_starts(n_samples: int, seed: int, task_index: int) -> np.ndarray:
    """n_samples Haar-uniform initial conditions from the (seed, task_index) substream."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2 for a standard error, got {n_samples}")
    return _unit_vectors(*haar_sphere(n_samples, rng_for_task(seed, task_index)))


def averaged_lyapunov(
    params,
    n_samples: int = 5000,
    n_kicks: int = 5000,
    seed: int = 0,
    n_transient: int = DEFAULT_TRANSIENT,
    task_index: int = 0,
    scan=None,
):
    """Monte-Carlo phase-space average of the largest Lyapunov exponent.

    Initial conditions are Haar-uniform on the sphere (the dS = sin
    theta dtheta dphi measure), drawn from the (seed, task_index)
    substream, so scans are reproducible regardless of scheduling.
    ``params`` may be a sequence of parameter sets: they run as one
    batch, point i drawing from the (seed, task_index + i) substream,
    and the result is a list in their order, each mean and standard
    error taken over the point's own samples.  ``scan`` runs the
    batch's chunks (see ``_chunked``).
    """
    points, single = _points(params)
    s0 = np.concatenate([_haar_starts(n_samples, seed, task_index + i) for i in range(len(points))])
    lam = _lyapunov_batch(s0, *_per_trajectory(points, n_samples), n_kicks, n_transient, scan)
    averages = []
    for lo in range(0, lam.size, n_samples):
        part = lam[lo : lo + n_samples]
        stderr = float(part.std(ddof=1) / np.sqrt(n_samples))
        averages.append(AveragedLyapunov(mean=float(part.mean()), stderr=stderr, n_samples=n_samples))
    return averages[0] if single else averages


def kappa_threshold(
    alpha,
    threshold: float = 0.002,
    resolution: float = 0.05,
    kappa_max: float = 10.0,
    n_samples: int = 2000,
    n_kicks: int = 5000,
    seed: int = 0,
    scan=None,
):
    """Chaos-onset kick strength: smallest kappa with lambda-bar = threshold.

    Bisection of the Monte-Carlo average over kappa in [0, kappa_max];
    raises ValueError when no crossing exists there (the integrable
    precession angles alpha = 0, pi, 2pi).  n_kicks must be large enough
    that the Benettin estimate of a sheared regular orbit, which decays
    like ln(n)/n, sits below the threshold; 5000 kicks clears 0.002.
    When every tested kappa reads lambda-bar >= threshold, the result is
    only the bisection floor and a RuntimeWarning says so.

    ``alpha`` may be a sequence of angles, giving a list: they are
    bisected in lockstep, one batch per level over the angles whose
    interval is still wider than ``resolution``, and each keeps its own
    interval, warning and error (the first angle without a crossing, in
    input order, raises).  Every average draws the same samples, from
    the (seed, 0) substream.  ``scan`` runs each batch's chunks (see
    ``_chunked``).
    """
    single = np.ndim(alpha) == 0
    alphas = [float(a) for a in np.atleast_1d(alpha)]
    s0 = _haar_starts(n_samples, seed, 0)

    def means(indices, kappas) -> list[float]:
        points = [KickedTopParams(alpha=alphas[i], kappa=k, j=1) for i, k in zip(indices, kappas)]
        starts = np.tile(s0, (len(points), 1))
        lam = _lyapunov_batch(starts, *_per_trajectory(points, n_samples), n_kicks, scan=scan)
        return [float(lam[i : i + n_samples].mean()) for i in range(0, lam.size, n_samples)]

    lo, hi = [0.0] * len(alphas), [kappa_max] * len(alphas)
    for a, top in zip(alphas, means(range(len(alphas)), hi)):
        if top < threshold:
            raise ValueError(
                f"lambda-bar never reaches {threshold} for kappa <= {kappa_max} at alpha={a}"
            )
    while open_ := [i for i in range(len(alphas)) if hi[i] - lo[i] > resolution]:
        mids = [0.5 * (lo[i] + hi[i]) for i in open_]
        for i, mid, mean in zip(open_, mids, means(open_, mids)):
            if mean >= threshold:
                hi[i] = mid
            else:
                lo[i] = mid
    for a, low, high in zip(alphas, lo, hi):
        if low == 0.0:
            warnings.warn(
                f"kappa_c at alpha={a} is the bisection floor {0.5 * high}: lambda-bar >= "
                f"{threshold} at every tested kappa with n_kicks={n_kicks}; regular orbits need "
                "about 5000 kicks for their Benettin estimate to fall below the threshold",
                RuntimeWarning,
                stacklevel=2,
            )
    kappa_c = [0.5 * (low + high) for low, high in zip(lo, hi)]
    return kappa_c[0] if single else kappa_c


def _wrap_phi(phi, scratch):
    """``phi % (2 pi)`` of angles phi in [-pi, pi], bit for bit, in place;
    ``scratch``, of phi's shape, is clobbered.

    Adding 0.0 or 2 pi is the one rounding that ``%`` makes: -0.0 becomes
    +0.0 and -5e-324 becomes 2 pi.  It costs about a tenth of
    ``np.remainder`` and allocates nothing.
    """
    phi += np.multiply(phi < 0, 2 * np.pi, out=scratch)
    return phi


def phase_portrait(params, n_orbits: int = 289, n_kicks: int = 300, seed: int = 0, scan=None):
    """Stroboscopic (phi, theta) points of random orbits.

    Returns flat arrays (phi, theta, orbit_id) with n_orbits*(n_kicks+1)
    entries, orbit-major, including the initial points.  Defaults match
    the standard portrait recipe of 289 random initial conditions over
    300 kicks.  ``params`` may be a sequence of parameter sets: each
    starts from the same n_orbits points, all orbits run as one batch,
    and the result is a list of such triples in its order.  ``scan``
    runs the batch's chunks (see ``_chunked``).

    The points of ``RECORD_KICKS`` kicks are kept as (x, y, z) and turned
    into angles together, one block of the orbit-major outputs at a time.
    """
    points, single = _points(params)
    theta0, phi0 = haar_sphere(n_orbits, rng_for_task(seed))
    s0 = np.tile(_unit_vectors(theta0, phi0), (len(points), 1))
    alpha, kappa = _per_trajectory(points, n_orbits)
    phis = np.empty((s0.shape[0], n_kicks + 1))
    thetas = np.empty((s0.shape[0], n_kicks + 1))

    def chunk(rows, sa, ca, kappa):
        s = s0[rows].T.copy()[:, None]  # one row: the points
        work = np.empty((4, s.shape[2]))
        record = np.empty((3, RECORD_KICKS, s.shape[2]))
        for first in range(0, n_kicks + 1, RECORD_KICKS):
            size = min(RECORD_KICKS, n_kicks + 1 - first)
            for i in range(size):
                record[:, i] = s[:, 0]
                if first + i < n_kicks:
                    _kick(s, sa, ca, kappa, work)
            x, y, z = record[:, :size]  # clobbered: the angles are taken in place
            phis[rows, first : first + size] = _wrap_phi(np.arctan2(y, x, out=x), y).T
            thetas[rows, first : first + size] = np.arccos(np.clip(z, -1.0, 1.0, out=z), out=z).T

    _chunked(s0.shape[0], scan, chunk, np.sin(alpha), np.cos(alpha), kappa)
    orbit_id = np.repeat(np.arange(n_orbits), n_kicks + 1)
    portraits = [
        (phis[i * n_orbits : (i + 1) * n_orbits].ravel(),
         thetas[i * n_orbits : (i + 1) * n_orbits].ravel(),
         orbit_id)
        for i in range(len(points))
    ]
    return portraits[0] if single else portraits
