"""Kicked-top Floquet operator: its eigensystem, one parity sector at a time.

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
    "FloquetEigensystem",
    "SectorEigensystem",
    "DiagonalizationError",
    "diagonalize",
]

EVEN, ODD = 1, -1
SECTORS = ("even", "odd")
_PARITY = {"even": EVEN, "odd": ODD}

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
class SectorEigensystem:
    """One parity sector of F as it is solved: sorted eigenphases, real half vectors.

    ``vectors[:, i]`` is the real eigenvector o_i of the sector's block of
    F' (see ``diagonalize``) for ``quasienergies[i]``, which ascend.  Its
    rows are the sector's flip half of the Dicke rows: m = 0..j for the
    half that holds m = 0, m = 1..j (or 1/2..j for half-integer j) for
    the others.  On the rows -j..j the eigenvector is r_i with
    r_i(m) = o_i(m)/sqrt2 and r_i(-m) = flip o_i(m)/sqrt2 for m > 0, and
    r_i(0) = o_i(0); flip is the parity for integer j (see ``_flip``).
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
    """Parity sectors of F, each kept as solved, and the row phases of F.

    ``sectors`` holds one or both ``SectorEigensystem``, even before odd,
    and ``row_phases`` the per-row kick phases h = diag K^(1/2) over the
    Dicke rows -j..j.  The eigenvectors of F are v_i = diag(h) r_i c_i
    with r_i real, the mirrored half vector of its sector, and c_i a unit
    phase per column, so weights |<v_i|psi>|^2 = |r_i^T (h* psi)|^2 need
    no complex matrix, and no N x N one either: r_i^T y = o_i^T fold(y)
    (see ``multifractal._weight_blocks``).  ``degenerate_clusters`` sums
    the sectors' gauge-fixed clusters (nonzero values flag
    gauge-dependent downstream quantities) and ``max_residual`` is the
    largest of their residuals.

    ``quasienergies``, ``parities``, ``real_vectors`` and ``eigenvectors``
    are derived from the sectors held, on each access, for the oracles
    and the library API: their columns are sorted by quasienergy
    ascending, ties even first, and column i is column ``order[i]`` of
    the sectors side by side.  ``parities[i]`` is +1 (even) or -1 (odd).
    """

    sectors: tuple
    row_phases: np.ndarray = field(repr=False)
    params: KickedTopParams | None = None

    @property
    def dim(self) -> int:
        return self.row_phases.size

    @property
    def degenerate_clusters(self) -> int:
        return sum(s.degenerate_clusters for s in self.sectors)

    @property
    def max_residual(self) -> float:
        return max(s.max_residual for s in self.sectors)

    def block(self, parity: str) -> SectorEigensystem:
        """The sector 'even' or 'odd'; ValueError for another name or a sector not held."""
        if parity not in _PARITY:
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        want = _PARITY[parity]
        for s in self.sectors:
            if s.parity == want:
                return s
        raise ValueError(f"the {parity} sector of this eigensystem was not solved")

    def sector(self, parity: str) -> np.ndarray:
        """Quasienergies of one parity sector ('even' or 'odd'), sorted (the stored array)."""
        return self.block(parity).quasienergies

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
        halves = [_mirror(s.vectors, _flip(s.parity, n), n) for s in self.sectors]
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


def _pivot_rows(r: np.ndarray) -> np.ndarray:
    """Row of each column's largest-magnitude entry among m <= 0."""
    return np.argmax(np.abs(r[: r.shape[0] // 2 + 1]), axis=0)


_JX_LOCK = threading.Lock()  # lru_cache alone lets two threads miss on the same (j, flip)


def _flip(parity: int, n: int) -> int:
    """Sign of v(-m) = flip v(m) in a parity sector of spin j, n = 2j + 1.

    The parity e^(i pi (Jx + j)) is the flip m -> -m for integer j (odd
    n) and minus it for half-integer j.
    """
    return parity if n % 2 else -parity


def _half_dim(parity: int, n: int) -> int:
    """Dimension of a parity sector: the rows of its flip half, m = 0..j
    for the symmetric half of integer j, m > 0 otherwise."""
    return n - n // 2 if _flip(parity, n) > 0 else n // 2


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


@functools.lru_cache(maxsize=8)
def _jx_half(j: float, flip: float) -> tuple[np.ndarray, np.ndarray]:
    """Ladder values k and eigenvectors u of one flip half of J_x, both read-only.

    J_x is real symmetric tridiagonal in the Dicke basis with a
    palindromic off-diagonal, so it commutes with the flip m -> -m, and
    for integer j every eigenvector is exactly flip-symmetric (flip = 1,
    k = -j, -j+2, ..., j) or flip-antisymmetric (flip = -1, the k in
    between).  Each kind is an eigenvector of one half of the ladder,
    given on its rows m >= 0 as ``_mirror`` takes them: the symmetric
    half, of size j+1, whose first coupling, to m = 0, carries a factor
    sqrt2, and the antisymmetric half, of size j, on m = 1..j.  Each
    half is one dense ``np.linalg.eigh``; the exact spectrum is the
    integer ladder, so the computed eigenvalues are checked against it
    and k is the ladder itself.  The only eigensolve of J_x, memoized
    per (j, flip); callers hold ``_JX_LOCK``.
    """
    basis = SpinBasis(j)
    n = basis.dim
    _, e = jx_tridiagonal(basis)
    mid = int(flip > 0)  # only symmetric vectors have an m = 0 entry
    off = e[n // 2 + 1 - mid :].copy()
    if mid:
        off[0] *= np.sqrt(2.0)  # <0| J_x (|1> + |-1>)/sqrt2
    try:
        w, u = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is pathological
        raise DiagonalizationError(
            f"J_x eigensolver failed for a half of dim={off.size + 1} at dim={n}: {exc}"
        ) from exc
    k = basis.m_values[1 - mid :: 2]  # same ladder as m, ascending
    defect = np.max(np.abs(w - k))
    if defect > 1e-8 * max(1.0, basis.j):
        raise DiagonalizationError(f"J_x spectrum defect {defect:.3e} at dim={basis.dim}")
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


def diagonalize(params: KickedTopParams, gap_tol: float = 1e-10, sectors=SECTORS) -> FloquetEigensystem:
    """Parity sectors of F, one real symmetric eigensolve per sector asked for.

    ``sectors`` names the sectors to solve, 'even' and/or 'odd'; each
    needs only its own half of J_x, so one sector costs about half of
    both.  The kick is split symmetrically, F' = K^(1/2) D(alpha) K^(1/2)
    with K = exp(-i kappa Jz^2 / 2j), so F = K^(1/2) F' K^(-1/2).  For
    integer j the parity sectors are the flip halves m -> -m: the even
    sector has the basis {|0>, (|m> + |-m>)/sqrt2} and the odd one
    {(|m> - |-m>)/sqrt2}, m = 1..j, and K^(1/2) is diagonal in both.
    Each parity block of F' is complex symmetric in that real basis (the
    generalized time reversal of the kicked top), so its eigenvectors o
    are real: they come from eigh(A + cB), phases are read as
    nu = atan2(o^T B o, o^T A o), and the eigenvectors of F are
    v = K^(1/2) r with r the mirrored o.  Each sector is kept as solved,
    its nu ascending and its real half block O (``SectorEigensystem``),
    together with the row phases diag K^(1/2); nothing is mirrored,
    merged or re-signed.  Quasienergy clusters with internal gaps below
    ``gap_tol`` get a deterministic gauge from the compressed Jz^2 and
    are counted in the sector's ``degenerate_clusters``.  Every block is
    checked for |M o - e^(i nu) o| before returning; a failure raises
    DiagonalizationError, and the block's largest residual is kept as
    its ``max_residual``.
    """
    if not sectors or not set(sectors) <= set(SECTORS):
        raise ValueError(f"sectors must name 'even' and/or 'odd', got {sectors!r}")
    j = params.j
    h = params.half_kick
    h_half, m2 = h[j:], np.arange(j + 1.0) ** 2  # on the rows m = 0..j
    blocks = []
    for name in SECTORS:
        if name not in sectors:
            continue
        parity = _PARITY[name]
        with _JX_LOCK:
            k, u = _jx_half(float(j), float(parity))  # integer j: the parity is the flip
        first = int(parity == ODD)  # the odd half starts at m = 1
        nu, o, clusters, residual = _sector_eigensystem(u, k, h_half[first:], m2[first:], gap_tol, params)
        blocks.append(SectorEigensystem(parity, nu, o, clusters, residual))
    return FloquetEigensystem(sectors=tuple(blocks), row_phases=h, params=params)

