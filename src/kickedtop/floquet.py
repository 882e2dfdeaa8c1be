"""Kicked-top Floquet operator: construction in the Dicke basis,
diagonalization with parity resolution, and stroboscopic evolution.

One period = free precession about x by angle alpha followed by a
torsional kick exp(-i kappa Jz^2 / 2j).  The operator conserves the
parity e^(i pi (Jx + j)), which splits the spectrum into an even sector
of dimension j+1 and an odd sector of dimension j (integer j).

Eigenphase convention: F|v> = e^(+i nu)|v> with nu restricted to the
principal range [-pi, pi).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from .spin import SpinBasis, jx_tridiagonal

__all__ = [
    "KickedTopParams",
    "FloquetOperator",
    "FloquetEigensystem",
    "DiagonalizationError",
    "wigner_d_matrix",
    "build_floquet",
    "parity_operator",
    "diagonalize",
    "evolve_state",
]

EVEN, ODD = 1, -1

# c in the mixed matrix A + cB; irrational, so the fold point atan(c) of
# the map nu -> cos(nu) + c sin(nu) is no rational multiple of pi
_MIX = 0.5 * (np.sqrt(5.0) - 1.0)
# A + cB eigenvalue gap below which clusters are resolved by _split_collision;
# eigh mixes vectors a gap g apart by ~1e-16/g, so pairs left unsplit keep
# residuals near 1e-12
_SPLIT_TOL = 1e-4
# largest accepted |M o - e^(i nu) o| of a parity block M
_RESIDUAL_TOL = 1e-9


class DiagonalizationError(RuntimeError):
    """Eigensolver failure or an eigen-residual above tolerance, with the offending size/params."""


@dataclass(frozen=True)
class KickedTopParams:
    """Kicked-top parameters: precession angle, kick strength, spin size."""

    alpha: float
    kappa: float
    j: int

    def __post_init__(self):
        if not 0.0 <= self.alpha < 2 * np.pi:
            raise ValueError(f"alpha must lie in [0, 2pi), got {self.alpha}")
        if not 0 <= self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not 1 <= self.j < np.inf or self.j != int(self.j):
            raise ValueError(f"j must be an integer >= 1, got {self.j}")
        object.__setattr__(self, "j", int(self.j))

    @property
    def basis(self) -> SpinBasis:
        return SpinBasis(self.j)

    @property
    def half_kick(self) -> np.ndarray:
        """Diagonal of K^(1/2) = exp(-i kappa Jz^2 / 4j), in basis order."""
        m = self.basis.m_values
        return np.exp(-0.25j * self.kappa * m**2 / self.j)


@dataclass(frozen=True)
class FloquetOperator:
    """Dense one-period propagator in the Dicke basis."""

    matrix: np.ndarray = field(repr=False)
    params: KickedTopParams

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FloquetEigensystem:
    """Quasienergies in [-pi, pi), real eigenvector matrix, parity labels.

    The eigenvectors of F are v_i = diag(row_phases) r_i c_i with
    ``r_i = real_vectors[:, i]`` real and c_i a unit phase per column, so
    weights |<v_i|psi>|^2 = |r_i^T (row_phases* psi)|^2 need no complex
    matrix.  ``real_vectors`` is float64 N x N, ``row_phases`` the per-row
    kick phase diag K^(1/2).  Column i belongs to ``quasienergies[i]``;
    ``parities[i]`` is +1 (even) or -1 (odd).  Sorted by quasienergy
    ascending, ties broken even-first.  ``degenerate_clusters`` counts the
    degenerate quasienergy clusters within a parity sector whose gauge was
    fixed (see ``diagonalize``); nonzero values flag gauge-dependent
    downstream quantities.  ``max_residual`` is the largest eigen-residual
    |M o - e^(i nu) o| over both parity blocks.
    """

    quasienergies: np.ndarray = field(repr=False)
    real_vectors: np.ndarray = field(repr=False)
    row_phases: np.ndarray = field(repr=False)
    parities: np.ndarray = field(repr=False)
    params: KickedTopParams | None = None
    degenerate_clusters: int = 0
    max_residual: float = 0.0

    @property
    def dim(self) -> int:
        return self.quasienergies.size

    @property
    def eigenvectors(self) -> np.ndarray:
        """Complex eigenvectors of F, column i for ``quasienergies[i]``.

        Each column is turned so its largest-magnitude entry is real
        positive; parity makes |v(m)| = |v(-m)|, so the pivot is sought
        among m <= 0 lest rounding pick the row.  Built on each access.
        """
        r, h = self.real_vectors, self.row_phases
        pivot = _pivot_rows(r)
        vecs = r * (np.sign(r[pivot, np.arange(self.dim)]) * h[pivot].conj())
        vecs *= h[:, None]
        return vecs

    def sector(self, parity: str) -> np.ndarray:
        """Quasienergies of one parity sector ('even' or 'odd'), sorted."""
        want = EVEN if parity == "even" else ODD
        return np.sort(self.quasienergies[self.parities == want])


def _pivot_rows(r: np.ndarray) -> np.ndarray:
    """Row of each column's largest-magnitude entry among m <= 0."""
    return np.argmax(np.abs(r[: r.shape[0] // 2 + 1]), axis=0)


_JX_LOCK = threading.Lock()  # lru_cache alone lets two threads miss on the same j


def _mirror(half: np.ndarray, flip: float, n: int) -> np.ndarray:
    """Dicke rows -j..j of flip-(anti)symmetric vectors given on their upper half.

    ``half`` holds the rows m = 0..j (a flip-symmetric half of integer j,
    whose m = 0 entry is kept as is) or m > 0; each row m > 0 is spread
    as half[m]/sqrt2 onto the rows m and -m, with sign ``flip`` on -m, so
    every column is exactly v(-m) = flip v(m).
    """
    c = n // 2  # rows n-c.. are mirrored onto rows c-1, c-2, ..., 0
    mid = half.shape[0] - c
    full = np.zeros((n, half.shape[1]))
    if mid:
        full[c] = half[0]
    upper = full[n - c :]
    np.multiply(half[mid:], np.sqrt(0.5), out=upper)
    np.multiply(upper[::-1], flip, out=full[:c])
    return full


@functools.lru_cache(maxsize=4)
def _jx_halves(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ladder k = -j..j and the flip-symmetric and -antisymmetric J_x halves.

    The only eigensolve of J_x; callers hold ``_JX_LOCK``.
    """
    basis = SpinBasis(j)
    n = basis.dim
    _, e = jx_tridiagonal(basis)
    c = n // 2
    vals, halves = np.empty(n), []
    # flip-symmetric columns sit at k = j, j-2, ...; antisymmetric ones between
    for flip, cols in ((1.0, slice((n - 1) % 2, None, 2)), (-1.0, slice(n % 2, None, 2))):
        mid = int(n % 2 == 1 and flip > 0)  # integer j: only symmetric vectors have an m = 0 entry
        off = e[n - c - mid :].copy()
        if mid:
            off[0] *= np.sqrt(2.0)  # <0| J_x (|1> + |-1>)/sqrt2
        half = np.diag(off, 1) + np.diag(off, -1)
        if n % 2 == 0:
            half[0, 0] = flip * e[c - 1]  # the coupling across the middle of the ladder
        try:
            w, u = np.linalg.eigh(half)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is pathological
            raise DiagonalizationError(
                f"J_x eigensolver failed for a half of dim={off.size + 1} at dim={n}: {exc}"
            ) from exc
        vals[cols] = w
        u.setflags(write=False)
        halves.append(u)
    k = basis.m_values  # same ladder as m, ascending
    defect = np.max(np.abs(vals - k))
    if defect > 1e-8 * max(1.0, basis.j):
        raise DiagonalizationError(f"J_x spectrum defect {defect:.3e} at dim={basis.dim}")
    k.setflags(write=False)
    return k, halves[0], halves[1]


@functools.lru_cache(maxsize=4)
def _jx_dense(j: float) -> tuple[np.ndarray, np.ndarray]:
    """The N x N J_x eigenvectors mirrored from the halves; callers hold ``_JX_LOCK``."""
    k, sym, anti = _jx_halves(j)
    n = k.size
    vecs = np.empty((n, n))
    vecs[:, (n - 1) % 2 :: 2] = _mirror(sym, 1.0, n)
    vecs[:, n % 2 :: 2] = _mirror(anti, -1.0, n)
    vecs.setflags(write=False)
    return k, vecs


def jx_eigenbasis(basis: SpinBasis) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues k_x = -j..j and orthonormal eigenvectors of J_x.

    J_x is real symmetric tridiagonal in the Dicke basis with a
    palindromic off-diagonal, so it commutes with the flip m -> -m and
    every eigenvector is exactly flip-symmetric (k = j, j-2, ...) or
    flip-antisymmetric (the others).  Each kind is the eigenvector of
    one half of the ladder, mirrored with 1/sqrt2: for integer j a
    symmetric half of size j+1 whose first coupling, to m = 0, carries
    a factor sqrt2, and an antisymmetric half of size j; for
    half-integer j two halves of size j+1/2 that differ only in the
    diagonal entry +-e across the middle of the ladder.  Each half is
    one dense ``np.linalg.eigh``, memoized with the halves that
    ``diagonalize`` reads; the N x N matrix is mirrored from them by the
    helper ``diagonalize`` uses for its eigenvectors.  The exact
    spectrum is the integer (or half-integer) ladder -j..j, so the
    computed eigenvalues are snapped onto it after a sanity check.
    Memoized for the last few j; the returned arrays are read-only.
    Only the oracles ``wigner_d_matrix`` and ``parity_operator`` use it.
    """
    with _JX_LOCK:
        return _jx_dense(basis.j)


def wigner_d_matrix(basis: SpinBasis, alpha: float) -> np.ndarray:
    """Rotation matrix <j,m| exp(-i alpha J_x) |j,m'> in the Dicke basis.

    Built by spectral sum over the J_x eigenbasis; unitary to ~1e-10.
    """
    k, v = jx_eigenbasis(basis)
    return (v * np.exp(-1j * alpha * k)) @ v.T


def build_floquet(params: KickedTopParams) -> FloquetOperator:
    """Kicked-top propagator F[m,m'] = exp(-i kappa m^2 / 2j) d_mm'(alpha)."""
    basis = params.basis
    m = basis.m_values
    kick = np.exp(-1j * params.kappa * m**2 / (2.0 * params.j))
    d = wigner_d_matrix(basis, params.alpha)
    return FloquetOperator(matrix=kick[:, None] * d, params=params)


def parity_operator(basis: SpinBasis) -> np.ndarray:
    """Parity e^(i pi (Jx + j)): +1/-1 on alternate J_x eigenvectors.

    In the J_x eigenbasis the eigenvalue is e^(i pi (k_x + j)) = (-1)^(k_x+j),
    i.e. +1 on every second ladder state starting from k_x = -j.  Rotating
    back to the Dicke basis gives a real symmetric involution.
    """
    k, v = jx_eigenbasis(basis)
    signs = np.where((np.arange(basis.dim) % 2) == 0, 1.0, -1.0)
    return (v * signs) @ v.T


def _clusters(x: np.ndarray, tol: float, wrap: bool = False) -> list[np.ndarray]:
    """Index runs of sorted ``x`` with consecutive gaps below ``tol``.

    Only runs of two or more are returned, and only those are built.
    With ``wrap`` the values are phases on the circle: the gap
    x[0] + 2pi - x[-1] can merge the last run into the first.
    """
    cuts = np.flatnonzero(np.diff(x) >= tol) + 1
    starts, ends = np.append(0, cuts), np.append(cuts, x.size)
    long = np.flatnonzero(ends - starts > 1)
    if not (wrap and cuts.size and x[0] + 2 * np.pi - x[-1] < tol):
        return [np.arange(starts[i], ends[i]) for i in long]
    inner = long[(long > 0) & (long < cuts.size)]
    merged = np.append(np.arange(starts[-1], x.size), np.arange(ends[0]))
    return [merged] + [np.arange(starts[i], ends[i]) for i in inner]


def _rotate(idx: np.ndarray, r: np.ndarray, *arrays: np.ndarray) -> None:
    """Replace the columns ``idx`` of each array by their combinations ``r``."""
    for a in arrays:
        a[:, idx] = a[:, idx] @ r


def _split_collision(idx: np.ndarray, o: np.ndarray, ao: np.ndarray, bo: np.ndarray) -> None:
    """Resolve a cluster of near-equal A + cB eigenvalues, in place.

    A + cB maps nu and 2 atan(c) - nu onto one eigenvalue, so such
    folded pairs (and true degeneracies) share a cluster.  Within it the
    compressed cos(chi) A + sin(chi) B = cos(nu - chi) is diagonalized;
    it separates a pair in proportion to |sin(mu - chi)|, mu being the
    pair's mean phase, so chi is placed in the widest gap between the
    mean phases (mod pi) of the cluster.  chi = pi/2, plain B, folds at
    +-pi/2 in turn.
    """
    q = o[:, idx]
    ac, bc = q.T @ ao[:, idx], q.T @ bo[:, idx]
    nu = np.angle(np.linalg.eigvals(ac + 1j * bc))
    i, j = np.triu_indices(nu.size, 1)
    mean = np.sort((nu[i] + nu[j]) / 2 % np.pi)
    gaps = np.diff(mean, append=mean[0] + np.pi)
    chi = mean[np.argmax(gaps)] + np.max(gaps) / 2
    _, r = np.linalg.eigh(np.cos(chi) * ac + np.sin(chi) * bc)
    _rotate(idx, r, o, ao, bo)


def _sector_eigensystem(
    u: np.ndarray,
    k: np.ndarray,
    h: np.ndarray,
    m2: np.ndarray,
    gap_tol: float,
    params: KickedTopParams,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Eigenphases and real eigenvectors of one parity block of F'.

    The block is taken in the sector's flip-half Dicke basis, whose rows
    m >= 0 carry ``h`` = diag K^(1/2) and ``m2`` = m^2.  ``u`` holds the
    sector's J_x eigenvectors in that basis and ``k`` their eigenvalues,
    so D(alpha) = u diag(e^(-i alpha k)) u^T = C - iS with the real
    C = (u cos(alpha k)) u^T and S = (u sin(alpha k)) u^T, and the block
    M = diag(h) (C - iS) diag(h) is a complex-symmetric unitary A + iB.
    A and B are commuting real symmetric matrices, so one real orthogonal
    O diagonalizes both.  Returns (nu, O, number of gauge-fixed clusters,
    largest eigen-residual).
    """
    c = (u * np.cos(params.alpha * k)) @ u.T
    s = (u * np.sin(params.alpha * k)) @ u.T
    hh = np.multiply.outer(h, h)
    a = hh.real * c + hh.imag * s
    bi = hh.imag * c - hh.real * s
    try:
        lam, o = np.linalg.eigh(a + _MIX * bi)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(
            f"sector eigensolver failed for dim={k.size}, params={params}: {exc}"
        ) from exc
    ao, bo = a @ o, bi @ o
    for idx in _clusters(lam, _SPLIT_TOL):
        _split_collision(idx, o, ao, bo)

    nu = np.arctan2(np.sum(o * bo, axis=0), np.sum(o * ao, axis=0))
    nu[nu >= np.pi] -= 2 * np.pi
    order = np.argsort(nu, kind="stable")
    nu, o, ao, bo = nu[order], o[:, order], ao[:, order], bo[:, order]

    # true degeneracies: fix the gauge by diagonalizing the compressed Jz^2
    # (Jz itself is parity-odd and compresses to zero)
    clusters = _clusters(nu, gap_tol, wrap=True)
    for idx in clusters:
        q = o[:, idx]
        _, r = np.linalg.eigh(q.T @ (m2[:, None] * q))
        _rotate(idx, r, o, ao, bo)

    residual = np.sqrt(np.sum((ao - o * np.cos(nu)) ** 2 + (bo - o * np.sin(nu)) ** 2, axis=0))
    worst = float(np.max(residual))
    if not worst <= _RESIDUAL_TOL:
        raise DiagonalizationError(
            f"eigen-residual {worst:.3e} in a parity block of dim={k.size}, params={params}"
        )
    return nu, o, len(clusters), worst


def diagonalize(params: KickedTopParams, gap_tol: float = 1e-10) -> FloquetEigensystem:
    """Full parity-resolved eigensystem of F, one real symmetric eigensolve per sector.

    The kick is split symmetrically, F' = K^(1/2) D(alpha) K^(1/2) with
    K = exp(-i kappa Jz^2 / 2j), so F = K^(1/2) F' K^(-1/2).  For integer
    j the parity sectors are the flip halves m -> -m: the even sector has
    the basis {|0>, (|m> + |-m>)/sqrt2} and the odd one {(|m> - |-m>)/sqrt2},
    m = 1..j, and K^(1/2) is diagonal in both.  Each parity block of F'
    is complex symmetric in that real basis (the generalized time
    reversal of the kicked top), so its eigenvectors o are real: they
    come from eigh(A + cB), phases are read as nu = atan2(o^T B o, o^T A o),
    and the eigenvectors of F are v = K^(1/2) R with R the mirrored o,
    whose columns are exactly flip-symmetric (even) or -antisymmetric
    (odd).  Only the real R is kept, each column signed so its pivot
    entry (see ``FloquetEigensystem.eigenvectors``) is positive, together
    with the row phases diag K^(1/2).  Quasienergy clusters with internal
    gaps below ``gap_tol`` get a deterministic gauge from the compressed
    Jz^2 and are counted in ``degenerate_clusters``.  Every block is
    checked for |M o - e^(i nu) o| before returning; a failure raises
    DiagonalizationError, and the larger of the two blocks' residuals is
    kept as ``max_residual``.
    """
    j, n = params.j, params.basis.dim
    with _JX_LOCK:
        k, u_even, u_odd = _jx_halves(float(j))
    h = params.half_kick
    h_half, m2 = h[j:], np.arange(j + 1.0) ** 2  # on the rows m = 0..j

    nus, vec_blocks, pars, n_clusters, worst = [], [], [], 0, 0.0
    for par, u, ks, first in ((EVEN, u_even, k[0::2], 0), (ODD, u_odd, k[1::2], 1)):
        nu, o, clusters, residual = _sector_eigensystem(u, ks, h_half[first:], m2[first:], gap_tol, params)
        nus.append(nu)
        vec_blocks.append(_mirror(o, par, n))
        pars.append(np.full(nu.size, par, dtype=np.int8))
        n_clusters += clusters
        worst = max(worst, residual)

    nu = np.concatenate(nus)
    parities = np.concatenate(pars)
    order = np.lexsort((parities == ODD, nu))  # ascending nu, even first on ties
    real = np.concatenate(vec_blocks, axis=1)[:, order]
    real *= np.sign(real[_pivot_rows(real), np.arange(n)])
    return FloquetEigensystem(
        quasienergies=nu[order],
        real_vectors=real,
        row_phases=h,
        parities=parities[order],
        params=params,
        degenerate_clusters=n_clusters,
        max_residual=worst,
    )


def evolve_state(op: FloquetOperator, psi0: np.ndarray, n_kicks: int) -> np.ndarray:
    """Stroboscopic evolution psi_n = F^n psi_0 by repeated application."""
    if n_kicks < 0:
        raise ValueError("n_kicks must be >= 0")
    psi = np.array(psi0, dtype=complex)
    for _ in range(n_kicks):
        psi = op.matrix @ psi
    return psi
