"""Multifractal analysis of coherent states expanded in the Floquet
eigenbasis: Renyi entropies, fractal dimensions D_q, phase-space fields
and averages, and finite-size scaling fits.

D_q = S_q / ln N with S_q the order-q Renyi (participation) entropy of
the expansion weights |w_i|^2 over the full (2j+1)-dimensional
eigenvector set; a generic coherent state has no definite parity, so
both sectors participate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classical import GridSpec, haar_sphere, rng_for_task
from .floquet import FloquetEigensystem
from .spin import coherent_band

__all__ = [
    "MultifractalResult",
    "DqField",
    "ScalingFit",
    "expand_states",
    "coherent_weights",
    "renyi_dimensions",
    "dq_field",
    "averaged_dq",
    "scaling_fit",
]

DEFAULT_QS = (1.0, 2.0, np.inf)
WEIGHT_CUTOFF = 1e-300  # below this, weights are dropped from q <= 1 sums (log guards)
BLOCK_STATES = 128  # coherent states per theta-sorted block while N <= BLOCK_HALVED_ABOVE
BLOCK_HALVED_ABOVE = 401  # larger N take BLOCK_STATES // 2: half the work arrays at about the same CPU


@dataclass(frozen=True)
class MultifractalResult:
    """Monte-Carlo averages of the fractal dimensions and Renyi entropies
    for a configured q set, with the standard error of each D_q mean."""

    q_values: tuple
    D_q: np.ndarray
    S_q: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True)
class DqField:
    """Fractal dimensions of coherent states on a (phi, theta) grid.

    ``values[i, k, l]`` pairs phi_centers[i] x theta_centers[k] with
    q_values[l].
    """

    q_values: tuple
    values: np.ndarray = field(repr=False)
    grid_spec: GridSpec

    def component(self, q) -> np.ndarray:
        return self.values[:, :, self.q_values.index(q)]


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of D_q(N) against the chosen 1/ln N model.

    ``intercept`` is the N -> infinity extrapolation; ``slope`` is the
    coefficient of the decaying term (f_q / g_q conventions: the model
    is D = intercept - slope * x(N)).  ``residual`` is the RMS misfit
    over the fitted points; no extrapolation credibility is implied
    beyond the fitted range.
    """

    model: str
    intercept: float
    slope: float
    residual: float


def expand_states(amplitudes: np.ndarray, eig: FloquetEigensystem) -> np.ndarray:
    """Weights |<nu_i|psi_k>|^2 for column-stacked states; shape (n_states, N).

    The dense product for arbitrary states; coherent states go through
    :func:`coherent_weights`, which touches only the rows they occupy.
    """
    if amplitudes.shape[0] != eig.dim:
        raise ValueError(
            f"dimension mismatch: states dim {amplitudes.shape[0]}, eigenbasis dim {eig.dim}"
        )
    return np.abs(eig.eigenvectors.conj().T @ amplitudes).T ** 2


def _fold(band: np.ndarray, lo: int, hi: int, n: int, work: np.ndarray):
    """The band moved onto the rows m >= 0 of the flip halves: (fold, anti, r0).

    ``band`` holds the Dicke rows [lo, hi) of y, its rows m != 0 already
    scaled by 1/sqrt2.  Rows are counted from the Dicke row c = n // 2 of
    m = 0 (n = 2j + 1 is odd).  A window on one side of m = 0 needs no
    sums: ``fold`` is the band itself, or the band reversed onto the rows
    -m when it lies below m = 0, from row r0, and serves both halves (a
    reversed band flips the sign of every antisymmetric term at once,
    which no weight sees); ``anti`` is None.  A window across m = 0 gives
    ``fold``, y(0) and then y(m) + y(-m) on the rows m > 0, and ``anti``,
    y(m) - y(-m) on the rows m > 0 (up to one sign for all of them),
    from m = 0 (r0 = 0), in the flat complex array ``work`` of at least
    n * band.shape[1] entries.
    """
    c = n // 2
    if lo >= c:
        return band, None, lo - c
    if hi <= c + 1:
        rev = work[: band.size].reshape(band.shape)
        np.copyto(rev, band[::-1])
        return rev, None, c + 1 - hi
    up, low = band[c + 1 - lo :], band[: c - lo][::-1]  # rows m > 0 and -m < 0, from |m| up
    ov, rows = min(len(up), len(low)), max(len(up), len(low))
    cols = band.shape[1]
    fold = work[: (1 + rows) * cols].reshape(1 + rows, cols)
    anti = work[(1 + rows) * cols : (1 + 2 * rows) * cols].reshape(rows, cols)
    fold[0] = band[c - lo]
    np.add(up[:ov], low[:ov], out=fold[1 : 1 + ov])
    np.subtract(up[:ov], low[:ov], out=anti[:ov])
    if len(up) > ov:
        fold[1 + ov :] = anti[ov:] = up[ov:]
    else:
        fold[1 + ov :] = low[ov:]
        np.negative(low[ov:], out=anti[ov:])
    return fold, anti, 0


def _block_states(n: int) -> int:
    """Coherent states per block of ``_weight_blocks`` at dimension n."""
    return BLOCK_STATES if n <= BLOCK_HALVED_ABOVE else BLOCK_STATES // 2


def _weight_blocks(eig: FloquetEigensystem, thetas, phis):
    """Yield (indices, weights) for blocks of ``_block_states(N)``
    theta-sorted coherent states; ``weights[r]`` belongs to input state
    ``indices[r]``, its columns the sectors' eigenvectors side by side,
    each sector in its stored order.  ``weights`` is a work array that
    the next block overwrites.

    Since v_i = diag(h) r_i c_i with r_i real, |<v_i|psi>| = |r_i^T y|
    with y = h* psi, and r_i is the mirror of its sector's half vector
    o_i, so r_i^T y = o_i^T fold(y) with
    fold(y)(m) = (y(m) +- y(-m))/sqrt2 on the rows m > 0 and y(0) on
    m = 0.  The band is built with the row phases h* and the 1/sqrt2
    folded in, over the Dicke-row window its states occupy.  Every
    block takes one real product (dgemm) per sector, of the real and
    imaginary parts of its folded band with the rows of that sector's
    stored half vectors that the band reaches, into that sector's
    columns of one product buffer; no copy of the sectors is made.  A
    band on one side of m = 0 serves both sectors (the odd one has no
    m = 0 row, so it skips the band's first row when that row is
    m = 0); a band across m = 0 is folded (``_fold``: one sum and one
    difference per row) onto fewer rows than it spans.  The work arrays
    hold O(N * block) doubles, and the block halves above
    N = ``BLOCK_HALVED_ABOVE``.
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if thetas.ndim != 1 or thetas.shape != phis.shape:
        raise ValueError(f"thetas and phis must be 1-D of one length, got {thetas.shape}, {phis.shape}")
    order = np.argsort(thetas, kind="stable")
    basis, n = eig.params.basis, eig.dim
    c = n // 2  # the Dicke row of m = 0, which only the even half holds
    h = eig.row_phases
    row_factor = h.conj() * np.sqrt(0.5)
    row_factor[c] = h[c].conj()  # m = 0 is its own mirror
    even, odd = (s.vectors for s in eig.sectors)  # rows m = 0..j and m = 1..j
    block = _block_states(n)
    weights = np.empty((block, n))
    product = np.empty((2 * block, n))
    work = np.empty(n * block, dtype=complex)
    for start in range(0, order.size, block):
        idx = order[start : start + block]
        band, lo, hi = coherent_band(basis, thetas[idx], phis[idx], row_factor)
        fold, anti, r0 = _fold(band, lo, hi, n, work)
        r1 = 0  # the odd half's row of anti's first row, m = r1 + 1
        if anti is None:  # a one-sided band from m = r0 serves both; the odd half has no m = 0
            skip = int(r0 == 0)
            anti, r1 = fold[skip:], r0 + skip - 1
        # rows 2k and 2k+1 of the product are the real and imaginary parts for state k
        p = product[: 2 * idx.size]
        np.matmul(fold.view(float).T, even[r0 : r0 + len(fold)], out=p[:, : c + 1])
        np.matmul(anti.view(float).T, odd[r1 : r1 + len(anti)], out=p[:, c + 1 :])
        p *= p
        w = weights[: idx.size]
        np.add(p[0::2], p[1::2], out=w)
        yield idx, w


def coherent_weights(eig: FloquetEigensystem, thetas, phis) -> np.ndarray:
    """Weights |<nu_i|theta_k, phi_k>|^2 of many coherent states.

    Shape (n_states, N), rows in input order, columns in the order of
    ``eig.quasienergies``; agrees with
    ``expand_states(coherent_state_matrix(eig.params.basis, thetas, phis), eig)`` to
    rounding.
    """
    order = eig.order
    out = np.empty((np.size(thetas), order.size))
    for idx, w in _weight_blocks(eig, thetas, phis):
        out[idx] = w[:, order]
    return out


def _coherent_dimensions(eig, thetas, phis, q_values) -> tuple[np.ndarray, np.ndarray]:
    """S_q and D_q of each coherent state, rows in input order.

    Reduces block by block, so temporaries stay O(N * block) (``_block_states``).
    """
    s = np.empty((np.size(thetas), len(q_values)))
    d = np.empty_like(s)
    for idx, w in _weight_blocks(eig, thetas, phis):
        s[idx], d[idx] = renyi_dimensions(w, q_values)
    return s, d


def renyi_dimensions(weights: np.ndarray, q_values) -> tuple[np.ndarray, np.ndarray]:
    """Renyi entropies S_q and dimensions D_q for rows of a weight matrix.

    weights: (n_states, N) probabilities, each row summing to 1.
    Handles the special orders exactly: Shannon entropy at q = 1 and
    -ln(max) at q = inf (never as a large-q limit, which would
    underflow).  Returns (S, D), each shaped (n_states, n_q).
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    n_states, dim = w.shape
    if dim < 2:
        raise ValueError("basis dimension must be at least 2 (ln N = 0 otherwise)")
    logn = np.log(dim)
    s = np.empty((n_states, len(q_values)))
    support = w >= WEIGHT_CUTOFF
    term = np.empty_like(w)
    for l, q in enumerate(q_values):
        if q < 0:
            raise ValueError(f"q must be >= 0, got {q}")
        if np.isinf(q):
            s[:, l] = -np.log(np.max(w, axis=1))
        elif q == 0.0:
            s[:, l] = np.log(np.count_nonzero(support, axis=1))
        else:
            # terms w ln w (q = 1) or w^q; for q <= 1, weights below the cutoff add exact zeros
            with np.errstate(divide="ignore", invalid="ignore"):
                if q == 1.0:
                    np.log(w, out=term)
                    term *= w
                elif q == 2.0:
                    np.square(w, out=term)
                else:
                    np.power(w, q, out=term)
            if q <= 1.0:
                np.copyto(term, 0.0, where=~support)
            total = np.sum(term, axis=1)
            s[:, l] = -total if q == 1.0 else np.log(total) / (1.0 - q)
    return s, s / logn


def dq_field(
    eig: FloquetEigensystem,
    grid_spec: GridSpec | None = None,
    q_values=DEFAULT_QS,
) -> DqField:
    """D_q of coherent states on a uniform (phi, theta) grid.

    The grid is uniform in the angles (matching phase-space maps), not
    Haar-weighted; use :func:`averaged_dq` for measure-weighted averages.

    Only the states of ``grid_spec.solved_cells()`` cells are expanded;
    on a mirror-symmetric grid the rest are ``mirror_fill`` copies.  The
    parity R_x(pi) maps the coherent state at (phi, theta) to the one at
    (2 pi - phi, pi - theta) up to a phase, and each Floquet eigenvector
    has a definite parity, so a state and its mirror have the same
    weights: a copied cell holds its partner's D_q, which equals its own
    to rounding (within 1e-13 relative).
    """
    if grid_spec is None:
        grid_spec = GridSpec(n_phi=100, n_theta=100)
    phi, theta = grid_spec.mesh()
    solved = grid_spec.solved_cells()
    _, d = _coherent_dimensions(eig, theta[:solved], phi[:solved], q_values)
    return DqField(
        q_values=tuple(q_values),
        values=grid_spec.mirror_fill(d).reshape(grid_spec.n_phi, grid_spec.n_theta, len(q_values)),
        grid_spec=grid_spec,
    )


def averaged_dq(
    eig: FloquetEigensystem,
    n_samples: int = 10_000,
    q_values=DEFAULT_QS,
    seed: int = 0,
    task_index: int = 0,
) -> MultifractalResult:
    """Phase-space averaged fractal dimensions over Haar-uniform states.

    Uses the classical module's sphere-sampling scheme and (seed,
    task_index) substream discipline, so scan results are reproducible
    regardless of scheduling.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2 for a standard error, got {n_samples}")
    theta, phi = haar_sphere(n_samples, rng_for_task(seed, task_index))
    s, d = _coherent_dimensions(eig, theta, phi, q_values)
    return MultifractalResult(
        q_values=tuple(q_values),
        D_q=d.mean(axis=0),
        S_q=s.mean(axis=0),
        stderr=d.std(axis=0, ddof=1) / np.sqrt(n_samples),
    )


def scaling_fit(points, model: str = "linear_in_invlogN") -> ScalingFit:
    """Fit averaged D_q against system size N.

    points: sequence of (N, D_q) pairs over at least two distinct system sizes.
    Models (x = 1/ln N):
        linear_in_invlogN:  D = intercept - slope * x
        loglog_in_invlogN:  D = intercept - slope * ln(ln N) * x
    The loglog form is the random-matrix asymptotic for q = infinity.
    """
    pts = sorted((float(n), float(dq)) for n, dq in points)
    if len({n for n, _ in pts}) < 2:
        raise ValueError("need (N, D_q) points at 2 or more distinct N to fit 2 parameters")
    n = np.array([p[0] for p in pts])
    d = np.array([p[1] for p in pts])
    if model == "linear_in_invlogN":
        x = 1.0 / np.log(n)
    elif model == "loglog_in_invlogN":
        x = np.log(np.log(n)) / np.log(n)
    else:
        raise ValueError(f"unknown model {model!r}")
    coef = np.polyfit(-x, d, 1)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = d - (intercept - slope * x)
    return ScalingFit(
        model=model,
        intercept=intercept,
        slope=slope,
        residual=float(np.sqrt(np.mean(resid**2))),
    )
