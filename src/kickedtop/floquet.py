"""Kicked-top Floquet operator: its eigensystem, one parity sector at a time.

One period = free precession about x by angle alpha followed by a
torsional kick exp(-i kappa Jz^2 / 2j).  The operator conserves the
parity e^(i pi (Jx + j)), which splits the spectrum into an even sector
of dimension j+1 and an odd sector of dimension j (integer j).

Eigenphase convention: F|v> = e^(+i nu)|v> with nu restricted to the
principal range [-pi, pi).

``diagonalize(params, sector)`` solves one sector into a
``SectorEigensystem``, the one unit that is solved, cached and loaded.
Level statistics use one sector; the weights of a coherent state, which
has no definite parity, need a ``FloquetEigensystem``: both sectors of
one ``params``, built from two such solves.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from .spin import SpinBasis, jx_tridiagonal

__all__ = [
    "KickedTopParams",
    "FloquetEigensystem",
    "SectorEigensystem",
    "DiagonalizationError",
    "diagonalize",
]

EVEN, ODD = 1, -1
SECTORS = ("even", "odd")

# c in the mixed matrix A + cB; irrational, so the fold point atan(c) of
# the map nu -> cos(nu) + c sin(nu) is no rational multiple of pi
_MIX = 0.5 * (np.sqrt(5.0) - 1.0)
# A + cB eigenvalue gap below which clusters are resolved by _split_collision;
# eigh mixes vectors a gap g apart by ~1e-16/g, so pairs left unsplit keep
# residuals near 1e-12
_SPLIT_TOL = 1e-4
# largest accepted |M o - e^(i nu) o| of a parity block M
_RESIDUAL_TOL = 1e-9
# quasienergy gap below which a cluster is degenerate and gets the Jz^2 gauge
_GAP_TOL = 1e-10


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
class SectorEigensystem:
    """One parity sector of F as it is solved: sorted eigenphases, real half vectors.

    ``vectors[:, i]`` is the real eigenvector o_i of the sector's block of
    F' (see ``diagonalize``) for ``quasienergies[i]``, which ascend.  Its
    rows are the sector's flip half of the Dicke rows: m = 0..j for the
    even sector, m = 1..j for the odd one.  On the rows -j..j the
    eigenvector is r_i with r_i(m) = o_i(m)/sqrt2 and
    r_i(-m) = parity o_i(m)/sqrt2 for m > 0, and r_i(0) = o_i(0).
    ``degenerate_clusters`` counts the sector's gauge-fixed degenerate
    clusters and ``max_residual`` is its largest |M o - e^(i nu) o|.
    """

    parity: int
    quasienergies: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    degenerate_clusters: int = 0
    max_residual: float = 0.0


@dataclass(frozen=True)
class FloquetEigensystem:
    """Both parity sectors of F, each kept as solved, and the parameters they solve.

    ``sectors`` holds the even and then the odd ``SectorEigensystem``, of
    sizes j+1 and j for the integer j of ``params``; anything else is a
    ValueError at construction.  ``row_phases`` derives the per-row kick
    phases h = diag K^(1/2) over the Dicke rows -j..j from ``params``.
    The eigenvectors of F are
    v_i = diag(h) r_i c_i with r_i real, the mirrored half vector of its
    sector, and c_i a unit phase per column, so weights
    |<v_i|psi>|^2 = |r_i^T (h* psi)|^2 need no complex matrix, and no
    N x N one either: r_i^T y = o_i^T fold(y), a product with each
    sector's ``vectors`` as stored, read in place with no copy (see
    ``multifractal._weight_blocks``).  ``degenerate_clusters`` sums the
    sectors' gauge-fixed clusters (nonzero values flag gauge-dependent
    downstream quantities) and ``max_residual`` is the larger of their
    residuals.

    ``quasienergies``, ``parities``, ``real_vectors`` and ``eigenvectors``
    are derived from the sectors, on each access, for the oracles
    and the library API: their columns are sorted by quasienergy
    ascending, ties even first, and column i is column ``order[i]`` of
    the sectors side by side.  ``parities[i]`` is +1 (even) or -1 (odd).
    """

    sectors: tuple
    params: KickedTopParams

    def __post_init__(self):
        j = self.params.j
        if j != int(j):
            raise ValueError(f"the parity sectors are flip halves for integer j only, got j={j}")
        got = [(s.parity, s.quasienergies.shape, s.vectors.shape) for s in self.sectors]
        want = [(EVEN, (j + 1,), (j + 1, j + 1)), (ODD, (j,), (j, j))]
        if got != want:
            raise ValueError(f"sectors must be the even and the odd one at j={j}, {want}; got {got}")

    @property
    def dim(self) -> int:
        return 2 * self.params.j + 1

    @property
    def row_phases(self) -> np.ndarray:
        return self.params.half_kick

    @property
    def degenerate_clusters(self) -> int:
        return sum(s.degenerate_clusters for s in self.sectors)

    @property
    def max_residual(self) -> float:
        return max(s.max_residual for s in self.sectors)

    def block(self, parity: str) -> SectorEigensystem:
        """The sector 'even' or 'odd'; ValueError for another name."""
        return self.sectors[_parity(parity) == ODD]

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Quasienergies and parities of the sectors side by side, and ``order``."""
        nu = np.concatenate([s.quasienergies for s in self.sectors])
        par = np.concatenate([np.full(s.quasienergies.size, s.parity, dtype=np.int8) for s in self.sectors])
        return nu, par, np.lexsort((par == ODD, nu))  # ascending nu, even first on ties

    @property
    def order(self) -> np.ndarray:
        return self._columns()[2]

    @property
    def quasienergies(self) -> np.ndarray:
        nu, _, order = self._columns()
        return nu[order]

    @property
    def parities(self) -> np.ndarray:
        _, par, order = self._columns()
        return par[order]

    @property
    def real_vectors(self) -> np.ndarray:
        """Real eigenvectors r_i on the rows -j..j, each signed so its pivot
        entry (see ``eigenvectors``) is positive."""
        n = self.dim
        halves = [_mirror(s.vectors, s.parity, n) for s in self.sectors]
        r = np.concatenate(halves, axis=1)[:, self.order]
        r *= np.sign(r[_pivot_rows(r), np.arange(r.shape[1])])
        return r

    @property
    def eigenvectors(self) -> np.ndarray:
        """Complex eigenvectors of F, column i for ``quasienergies[i]``.

        Each column is turned so its largest-magnitude entry is real
        positive; parity makes |v(m)| = |v(-m)|, so the pivot is sought
        among m <= 0 lest rounding pick the row.
        """
        r, h = self.real_vectors, self.row_phases
        vecs = r * h[_pivot_rows(r)].conj()
        vecs *= h[:, None]
        return vecs


def _parity(sector: str) -> int:
    """+1 for the sector 'even', -1 for 'odd'; ValueError for another name."""
    if sector not in SECTORS:
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    return EVEN if sector == "even" else ODD


def _pivot_rows(r: np.ndarray) -> np.ndarray:
    """Row of each column's largest-magnitude entry among m <= 0."""
    return np.argmax(np.abs(r[: r.shape[0] // 2 + 1]), axis=0)


_JX_LOCK = threading.Lock()  # lru_cache alone lets two threads miss on the same (j, parity)


def _half_dim(parity: int, n: int) -> int:
    """Dimension of a parity sector, n = 2j + 1: the rows of its flip
    half, m = 0..j for the even sector and m = 1..j for the odd one."""
    return n // 2 + (parity == EVEN)


def _mirror(half: np.ndarray, flip: float, n: int) -> np.ndarray:
    """Dicke rows -j..j of flip-(anti)symmetric vectors given on their upper half.

    ``half`` holds the rows m = 0..j (a flip-symmetric half, whose m = 0
    entry is kept as is) or m > 0; each row m > 0 is spread
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


@functools.lru_cache(maxsize=8)
def _jx_half(j: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Ladder values k and eigenvectors u of one flip half of J_x, both read-only.

    J_x is real symmetric tridiagonal in the Dicke basis with a
    palindromic off-diagonal, so it commutes with the flip m -> -m, the
    parity of integer j, and every eigenvector is exactly flip-symmetric
    (parity = 1, k = -j, -j+2, ..., j) or flip-antisymmetric
    (parity = -1, the k in between).  Each kind is an eigenvector of one
    half of the ladder, given on its rows m >= 0 as ``_mirror`` takes
    them: the symmetric half, of size j+1, whose first coupling, to
    m = 0, carries a factor sqrt2, and the antisymmetric half, of size
    j, on m = 1..j.  Each half is one dense ``np.linalg.eigh``; the
    exact spectrum is the integer ladder, so the computed eigenvalues
    are checked against it and k is the ladder itself.  The only
    eigensolve of J_x, memoized per (j, parity); callers hold
    ``_JX_LOCK``.
    """
    j = int(j)
    _, e = jx_tridiagonal(SpinBasis(j))
    mid = int(parity > 0)  # only symmetric vectors have an m = 0 entry
    off = e[j + 1 - mid :].copy()
    if mid:
        off[0] *= np.sqrt(2.0)  # <0| J_x (|1> + |-1>)/sqrt2
    try:
        w, u = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is pathological
        raise DiagonalizationError(
            f"J_x eigensolver failed for a half of dim={off.size + 1} at dim={2 * j + 1}: {exc}"
        ) from exc
    k = np.arange(1.0 - mid - j, j + 1, 2)  # every other rung of the ladder m = -j..j, ascending
    defect = np.max(np.abs(w - k))
    if defect > 1e-8 * j:
        raise DiagonalizationError(f"J_x spectrum defect {defect:.3e} at dim={2 * j + 1}")
    k.setflags(write=False)
    u.setflags(write=False)
    return k, u


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


def _kick_in_place(c: np.ndarray, s: np.ndarray, h: np.ndarray) -> None:
    """Overwrite C and S with A = Re M and B = Im M, M = diag(h) (C - iS) diag(h).

    h h^T is formed in eight bands of rows, one at a time, so no n x n
    complex array and no n x n temporary is ever held.
    """
    step = -(-h.size // 8)
    for i in range(0, h.size, step):
        hh = np.multiply.outer(h[i : i + step], h)
        cb, sb = c[i : i + step], s[i : i + step]
        cb[...], sb[...] = hh.real * cb + hh.imag * sb, hh.imag * cb - hh.real * sb


def diagonalize(params: KickedTopParams, sector: str) -> SectorEigensystem:
    """The parity sector 'even' or 'odd' of F, from one real symmetric eigensolve.

    The sector needs only its own half of J_x, so it costs about half of
    both.  The kick is split symmetrically, F' = K^(1/2) D(alpha) K^(1/2)
    with K = exp(-i kappa Jz^2 / 2j), so F = K^(1/2) F' K^(-1/2).  For
    integer j the parity sectors are the flip halves m -> -m: the even
    sector has the basis {|0>, (|m> + |-m>)/sqrt2} and the odd one
    {(|m> - |-m>)/sqrt2}, m = 1..j, and K^(1/2) is diagonal in both.
    On the sector's rows m >= 0, h = diag K^(1/2) and m2 = m^2; u holds
    the sector's J_x eigenvectors in that basis and k their eigenvalues,
    so D(alpha) = u diag(e^(-i alpha k)) u^T = C - iS with the real
    C = (u cos(alpha k)) u^T and S = (u sin(alpha k)) u^T, and the block
    M = diag(h) (C - iS) diag(h) is a complex-symmetric unitary A + iB
    (the generalized time reversal of the kicked top).  A and B are
    commuting real symmetric matrices, so one real orthogonal O
    diagonalizes both: O comes from eigh(A + cB), phases are read as
    nu = atan2(o^T B o, o^T A o), and the eigenvectors of F are
    v = K^(1/2) r with r the mirrored o.  The sector is kept as solved,
    its nu ascending and its real half block O (``SectorEigensystem``);
    nothing is mirrored or re-signed.  Quasienergy clusters with
    internal gaps below ``_GAP_TOL`` get a deterministic gauge from the
    compressed Jz^2 and are counted in ``degenerate_clusters``.  The
    block is checked for |M o - e^(i nu) o| before returning; a failure
    raises DiagonalizationError, and the largest residual is kept as
    ``max_residual``.

    Working set: never more than four n x n arrays of doubles are alive.
    C and S are overwritten by A and B (``_kick_in_place``); during eigh
    the four are A, B, A + cB and O (eigh adds its own LAPACK copy and
    workspace).  A O and B O then take the buffers of A + cB and A, and
    B is dropped, so O, A O, B O and one temporary are alive while nu,
    the Jz^2 gauge and the residual are taken, on the unsorted columns.
    Only O is permuted, once, into the C-contiguous ``vectors``.
    """
    parity = _parity(sector)
    j = params.j
    with _JX_LOCK:
        k, u = _jx_half(j, parity)
    first = int(parity == ODD)  # the odd half starts at m = 1
    h, m2 = params.half_kick[j + first :], np.arange(first, j + 1.0) ** 2
    a = (u * np.cos(params.alpha * k)) @ u.T  # C, until _kick_in_place makes it A
    b = (u * np.sin(params.alpha * k)) @ u.T  # S, until it becomes B
    _kick_in_place(a, b, h)
    mixed = b * _MIX
    mixed += a
    try:
        lam, o = np.linalg.eigh(mixed)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(
            f"sector eigensolver failed for dim={k.size}, params={params}: {exc}"
        ) from exc
    ao = np.matmul(a, o, out=mixed)
    bo = np.matmul(b, o, out=a)  # A is not read again
    del a, b
    for idx in _clusters(lam, _SPLIT_TOL):
        _split_collision(idx, o, ao, bo)

    nu = np.arctan2(np.sum(o * bo, axis=0), np.sum(o * ao, axis=0))
    nu[nu >= np.pi] -= 2 * np.pi
    order = np.argsort(nu, kind="stable")

    # true degeneracies: fix the gauge by diagonalizing the compressed Jz^2
    # (Jz itself is parity-odd and compresses to zero)
    clusters = _clusters(nu[order], _GAP_TOL, wrap=True)
    for idx in clusters:
        cols = order[idx]
        q = o[:, cols]
        _, r = np.linalg.eigh(q.T @ (m2[:, None] * q))
        _rotate(cols, r, o, ao, bo)

    # |M o - e^(i nu) o|^2 per column, in place; each column is then summed
    # as one contiguous run (pairwise), from a column-major copy
    ao -= o * np.cos(nu)
    bo -= o * np.sin(nu)
    np.square(ao, out=ao)
    np.square(bo, out=bo)
    ao += bo
    worst = float(np.sqrt(np.max(np.sum(np.asfortranarray(ao), axis=0))))
    if not worst <= _RESIDUAL_TOL:
        raise DiagonalizationError(
            f"eigen-residual {worst:.3e} in a parity block of dim={k.size}, params={params}"
        )
    return SectorEigensystem(parity, nu[order], np.take(o, order, axis=1), len(clusters), worst)
