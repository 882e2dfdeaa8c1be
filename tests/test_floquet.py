import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from kickedtop import floquet
from kickedtop.classical import ClassicalState, classical_step
from kickedtop.floquet import KickedTopParams, diagonalize
from kickedtop.spin import SpinBasis, angular_momentum, coherent_state, jx_tridiagonal

ALPHA = 4 * np.pi / 7


def eigensystem(j, kappa, alpha=ALPHA):
    params = KickedTopParams(alpha=alpha, kappa=kappa, j=j)
    return diagonalize(params)


def circle_distance(nu, reference):
    """Largest |e^(i nu) - z| over the best one-to-one pairing with the
    unit-circle eigenvalues ``reference``.  Comparing on the circle keeps
    phases that fold at +-pi paired, which a raw sort of nu does not."""
    d = np.abs(np.exp(1j * np.asarray(nu))[:, None] - np.asarray(reference)[None, :])
    rows, cols = linear_sum_assignment(d)
    return d[rows, cols].max()


def char_poly_phases(matrix):
    """Eigenphases via Faddeev-LeVerrier characteristic polynomial + roots.

    Trace-recursion coefficients plus a companion-matrix root solve; an
    eigensolver-independent oracle for small matrices.
    """
    n = matrix.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(matrix)
    for k in range(1, n + 1):
        m = matrix @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(matrix @ m) / k
    roots = np.roots(coeffs)
    nu = np.angle(roots)
    return np.sort(np.where(nu >= np.pi, nu - 2 * np.pi, nu))


def dense_jx(basis):
    """Eigenvalues and eigenvectors of the full N x N J_x, one dense eigh."""
    return np.linalg.eigh(angular_momentum(basis, "x").real)


def dense_floquet(params):
    """Dense F = diag(e^(-i kappa m^2 / 2j)) V diag(e^(-i alpha k)) V^T.

    An oracle that shares no code with ``diagonalize``: no flip halves,
    no J_x memo, no split kick, the J_x eigensystem (k, V) from
    ``dense_jx``.
    """
    k, v = dense_jx(params.basis)
    d = (v * np.exp(-1j * params.alpha * k)) @ v.T
    m = params.basis.m_values
    return np.exp(-1j * params.kappa * m**2 / (2.0 * params.j))[:, None] * d


def flip(n):
    """The parity e^(i pi (J_x + j)) of integer j: the flip m -> -m."""
    return np.eye(n)[::-1]


def jx_half(j, sign):
    """The package's flip-symmetric (sign = 1) or antisymmetric J_x half."""
    with floquet._JX_LOCK:
        return floquet._jx_half(float(j), float(sign))


def test_wigner_d_vs_matrix_exponential():
    # the oracle's rotation (kappa = 0) and its F against expm
    basis = SpinBasis(20)
    d = dense_floquet(KickedTopParams(alpha=ALPHA, kappa=0.0, j=20))
    assert np.max(np.abs(d.conj().T @ d - np.eye(41))) < 1e-10
    expected = sla.expm(-1j * ALPHA * angular_momentum(basis, "x"))
    assert np.max(np.abs(d - expected)) < 1e-8
    f = dense_floquet(KickedTopParams(alpha=ALPHA, kappa=3.0, j=20))
    kick = np.exp(-1j * 3.0 * basis.m_values**2 / 40.0)
    assert np.max(np.abs(f - kick[:, None] * expected)) < 1e-8


def test_parity_is_the_flip():
    for j in (1, 5, 12):
        basis = SpinBasis(j)
        n = basis.dim
        p = sla.expm(1j * np.pi * (angular_momentum(basis, "x") + j * np.eye(n)))
        assert np.max(np.abs(p - flip(n))) < 1e-10


def test_floquet_kappa_zero_phases():
    # F = rotation about x: eigenphases are -alpha*k folded to [-pi, pi)
    j, alpha = 25, 1.0
    eig = eigensystem(j, 0.0, alpha)
    expected = -alpha * np.arange(-j, j + 1)
    expected = (expected + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(np.sort(eig.quasienergies) - np.sort(expected))) < 1e-10


def test_parity_commutes_with_floquet():
    params = KickedTopParams(alpha=ALPHA, kappa=3.0, j=50)
    f = dense_floquet(params)
    p = flip(params.basis.dim)
    assert np.max(np.abs(f @ p - p @ f)) < 1e-10


def test_diagonalize_identity_floquet():
    eig = eigensystem(8, 0.0, 0.0)
    assert np.max(np.abs(eig.quasienergies)) < 1e-12
    assert int(np.sum(eig.parities == 1)) == 9
    assert int(np.sum(eig.parities == -1)) == 8


def test_small_matrix_vs_characteristic_polynomial():
    params = KickedTopParams(alpha=ALPHA, kappa=3.0, j=2)
    eig = diagonalize(params)
    oracle = char_poly_phases(dense_floquet(params))
    assert np.max(np.abs(np.sort(eig.quasienergies) - oracle)) < 1e-10


@pytest.mark.parametrize("j", [1, 2, 3])
def test_small_j_eigenphases_bruteforce(j):
    params = KickedTopParams(alpha=ALPHA, kappa=7.0, j=j)
    eig = diagonalize(params)
    assert np.max(np.abs(np.sort(eig.quasienergies) - char_poly_phases(dense_floquet(params)))) < 1e-10


@pytest.mark.parametrize("j,kappa", [(2, 3.0), (5, 0.4), (150, 3.0)])
def test_sector_counts(j, kappa):
    eig = eigensystem(j, kappa)
    assert int(np.sum(eig.parities == 1)) == j + 1
    assert int(np.sum(eig.parities == -1)) == j


@pytest.mark.slow
def test_sector_counts_j1000():
    eig = eigensystem(1000, 7.0)
    assert int(np.sum(eig.parities == 1)) == 1001
    assert int(np.sum(eig.parities == -1)) == 1000


def test_eigen_residual_and_orthonormality():
    eig = eigensystem(150, 3.0)
    f = dense_floquet(KickedTopParams(alpha=ALPHA, kappa=3.0, j=150))
    residual = f @ eig.eigenvectors - eig.eigenvectors * np.exp(1j * eig.quasienergies)
    assert np.max(np.linalg.norm(residual, axis=0)) < 1e-8
    gram = eig.eigenvectors.conj().T @ eig.eigenvectors
    assert np.max(np.abs(gram - np.eye(301))) < 1e-8
    assert np.all(eig.quasienergies >= -np.pi) and np.all(eig.quasienergies < np.pi)
    assert np.all(np.diff(eig.quasienergies) >= 0)


def test_degenerate_clusters_resolved():
    # kappa=0 with alpha=4pi/7: phases -alpha*k repeat with period 7 in k,
    # so the spectrum has exact degeneracies that need the cluster path
    eig = eigensystem(30, 0.0)
    assert eig.degenerate_clusters > 0
    f = dense_floquet(KickedTopParams(alpha=ALPHA, kappa=0.0, j=30))
    residual = f @ eig.eigenvectors - eig.eigenvectors * np.exp(1j * eig.quasienergies)
    assert np.max(np.abs(residual)) < 1e-10
    gram = eig.eigenvectors.conj().T @ eig.eigenvectors
    assert np.max(np.abs(gram - np.eye(61))) < 1e-10
    assert int(np.sum(eig.parities == 1)) == 31


def test_two_diagonalization_routes_agree():
    # brute-force oracle: a general complex eigensolver on the dense F
    params = KickedTopParams(alpha=ALPHA, kappa=3.0, j=60)
    eig = diagonalize(params)
    z, vecs = sla.eig(dense_floquet(params))
    assert circle_distance(eig.quasienergies, z) < 1e-8
    pexp = np.real(np.sum(vecs.conj() * (flip(params.basis.dim) @ vecs), axis=0))
    for parity, sign in (("even", 1), ("odd", -1)):
        assert circle_distance(eig.sector(parity), z[np.sign(pexp) == sign]) < 1e-8
    gram = eig.eigenvectors.conj().T @ eig.eigenvectors
    assert np.max(np.abs(gram - np.eye(121))) < 1e-8


def test_phases_folding_at_pi_match_oracle():
    # alpha = pi/2, kappa = 0: phases sit on -pi/2, 0, pi/2 and the branch
    # cut at -pi, where the oracle may report +pi
    params = KickedTopParams(alpha=np.pi / 2, kappa=0.0, j=9)
    eig = diagonalize(params)
    assert circle_distance(eig.quasienergies, sla.eigvals(dense_floquet(params))) < 1e-10
    assert np.all(eig.quasienergies >= -np.pi) and np.all(eig.quasienergies < np.pi)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    alpha=st.floats(0.0, 2 * np.pi, exclude_max=True),
    kappa=st.floats(0.0, 12.0),
    j=st.integers(1, 40),
)
def test_diagonalize_properties(alpha, kappa, j):
    params = KickedTopParams(alpha=alpha, kappa=kappa, j=j)
    eig = diagonalize(params)
    f = dense_floquet(params)
    v = eig.eigenvectors
    residual = np.linalg.norm(f @ v - v * np.exp(1j * eig.quasienergies), axis=0)
    assert np.max(residual) < 1e-9
    assert np.max(np.abs(v.conj().T @ v - np.eye(2 * j + 1))) < 1e-10
    pexp = np.real(np.sum(v.conj() * (flip(2 * j + 1) @ v), axis=0))
    assert np.max(np.abs(pexp - eig.parities)) < 1e-10
    assert int(np.sum(eig.parities == 1)) == j + 1
    assert int(np.sum(eig.parities == -1)) == j
    assert np.all(eig.quasienergies >= -np.pi) and np.all(eig.quasienergies < np.pi)
    assert np.all(np.diff(eig.quasienergies) >= 0)
    assert circle_distance(eig.quasienergies, sla.eigvals(f)) < 1e-9


@pytest.mark.parametrize(
    "alpha",
    [
        # -alpha k and -alpha (-2 - k) sum to 2 atan(c): exactly folded pairs of A + cB
        np.arctan(floquet._MIX),
        # pairs straddling pi/2 within 1e-9, where the compressed B alone is degenerate
        np.pi / 2 + 1e-9,
    ],
    ids=["folded-pair", "b-fold"],
)
def test_collision_split(monkeypatch, alpha):
    sizes = []
    split = floquet._split_collision

    def spy(idx, *arrays):
        sizes.append(idx.size)
        split(idx, *arrays)

    monkeypatch.setattr(floquet, "_split_collision", spy)
    j = 20
    params = KickedTopParams(alpha=alpha, kappa=0.0, j=j)
    eig = diagonalize(params)
    assert sizes and max(sizes) >= 2
    f = dense_floquet(params)
    residual = f @ eig.eigenvectors - eig.eigenvectors * np.exp(1j * eig.quasienergies)
    assert np.max(np.linalg.norm(residual, axis=0)) < 1e-10
    expected = np.exp(-1j * alpha * np.arange(-j, j + 1))
    assert circle_distance(eig.quasienergies, expected) < 1e-10


def test_eigenvector_phase_convention():
    # largest-magnitude entry real positive; of the mirror pair m, -m the m <= 0 one
    eig = eigensystem(40, 7.0)
    mags = np.abs(eig.eigenvectors)
    pivot = np.argmax(mags[:41], axis=0)
    entries = eig.eigenvectors[pivot, np.arange(81)]
    assert np.all(entries.real > 0)
    assert np.max(np.abs(entries.imag) / entries.real) < 1e-14
    assert np.max(np.abs(mags[pivot, np.arange(81)] / mags.max(axis=0) - 1)) < 1e-12


def test_eigensystem_stores_only_real_matrices():
    # v = diag(h) R diag(c): R real and sign-fixed at the pivot, h = diag K^(1/2);
    # each sector stores one real matrix, its half vectors, and R is derived from them
    params = KickedTopParams(alpha=ALPHA, kappa=7.0, j=40)
    eig = diagonalize(params)

    def matrices(obj):
        fields = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        return [a for a in fields if isinstance(a, np.ndarray) and a.ndim == 2]

    assert matrices(eig) == []
    for sector, n in zip(eig.sectors, (41, 40)):
        stored = matrices(sector)
        assert len(stored) == 1 and stored[0].dtype == np.float64 and stored[0].shape == (n, n)
    r = eig.real_vectors
    assert np.all(r[np.argmax(np.abs(r[:41]), axis=0), np.arange(81)] > 0)
    assert np.array_equal(eig.row_phases, params.half_kick)
    # odd-sector columns of R are flip-antisymmetric, exact zeros at m = 0
    nonzero = r != 0
    assert np.all(eig.eigenvectors[~nonzero] == 0)
    phases = np.divide(eig.eigenvectors, eig.row_phases[:, None] * r, out=np.zeros_like(eig.eigenvectors), where=nonzero)
    pivot = phases[np.argmax(np.abs(r), axis=0), np.arange(81)]
    assert np.max(np.abs(phases - pivot)[nonzero]) < 1e-14  # one unit phase per column
    assert 0.0 < eig.max_residual <= 1e-9


def test_jx_eigenbasis_memoized_read_only():
    for sign in (1, -1):
        k, u = jx_half(17, sign)
        again = floquet._jx_half(17, sign)
        assert again[0] is k and again[1] is u
        assert not k.flags.writeable and not u.flags.writeable


@pytest.mark.parametrize("j", [1, 30, 400])
def test_jx_eigenbasis_from_flip_halves(j):
    # the halves mirrored into the N x N matrix, as diagonalize's real_vectors does
    basis = SpinBasis(j)
    n = basis.dim
    k, v = np.empty(n), np.empty((n, n))
    for sign in (1, -1):
        cols = slice(int(sign < 0), None, 2)
        k[cols], half = jx_half(j, sign)
        v[:, cols] = floquet._mirror(half, sign, n)
    # flip-symmetric columns at k = j, j-2, ..., antisymmetric in between
    for i in range(n):
        sign = 1.0 if (n - 1 - i) % 2 == 0 else -1.0
        assert np.array_equal(v[::-1, i], sign * v[:, i])
    assert np.array_equal(k, basis.m_values)
    jx = angular_momentum(basis, "x").real
    assert np.max(np.abs(jx @ v - v * k)) <= 1e-12 * max(1.0, j)
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-14
    d, e = jx_tridiagonal(basis)
    _, ref = sla.eigh_tridiagonal(d, e)
    signs = np.sign(np.sum(v * ref, axis=0))
    assert np.max(np.abs(v - ref * signs)) <= 1e-13


def test_clusters_match_split_oracle():
    def oracle(x, tol, wrap):
        runs = np.split(np.arange(x.size), np.nonzero(np.diff(x) >= tol)[0] + 1)
        if wrap and len(runs) > 1 and x[0] + 2 * np.pi - x[-1] < tol:
            runs[0] = np.concatenate([runs.pop(), runs[0]])
        return [r for r in runs if r.size > 1]

    rng = np.random.default_rng(5)
    near = [-np.pi, -np.pi + 1e-5, -1.0, -1.0 + 1e-5, 0.0, 1e-5, 2e-5, np.pi - 2e-5, np.pi - 1e-6]
    cases = [np.array([]), np.array([0.0]), np.array([0.0, 1e-5]), np.array([-np.pi, np.pi - 1e-5])]
    for _ in range(2000):
        picks = rng.choice(near, size=rng.integers(0, 10))
        cases.append(np.sort(np.concatenate([picks, rng.uniform(-np.pi, np.pi, rng.integers(0, 4))])))
    for x in cases:
        for wrap in (False, True):
            got, want = floquet._clusters(x, 1e-4, wrap), oracle(x, 1e-4, wrap)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


def test_diagonalize_solves_jx_once_across_threads():
    # the J_x memo is per (j, flip half): one sector needs one half, solved once
    floquet._jx_half.cache_clear()
    n_threads = 4

    def solve_all(sectors):
        barrier = threading.Barrier(n_threads)

        def solve(i):
            barrier.wait()
            return diagonalize(KickedTopParams(alpha=ALPHA, kappa=1.0 + i, j=250), sectors=sectors)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(solve, range(n_threads)))

    solve_all(("odd",))
    assert floquet._jx_half.cache_info().misses == 1
    solve_all(("even", "odd"))
    assert floquet._jx_half.cache_info().misses == 2


@pytest.mark.parametrize("j,kappa", [(1, 7.0), (30, 0.0), (60, 3.0)])
def test_one_sector_solve_matches_both(j, kappa):
    params = KickedTopParams(alpha=ALPHA, kappa=kappa, j=j)
    both = diagonalize(params)
    for sector in ("even", "odd"):
        floquet._jx_half.cache_clear()
        one = diagonalize(params, sectors=(sector,))
        assert floquet._jx_half.cache_info().currsize == 1  # only this sector's J_x half
        assert len(one.sectors) == 1
        (got,), want = one.sectors, both.block(sector)
        assert np.array_equal(got.quasienergies, want.quasienergies)
        assert np.array_equal(got.vectors, want.vectors)
        assert got.max_residual == want.max_residual
        assert got.degenerate_clusters == want.degenerate_clusters
        # bit-identical to the sector of the derived, sorted full spectrum
        assert np.array_equal(one.sector(sector), np.sort(both.quasienergies[both.parities == got.parity]))
        with pytest.raises(ValueError, match="not solved"):
            one.sector("odd" if sector == "even" else "even")
    for bad in ((), ("even", "both")):
        with pytest.raises(ValueError, match="sectors"):
            diagonalize(params, sectors=bad)


@pytest.mark.parametrize("kappa", [0.0, 0.4, 7.0])
@pytest.mark.parametrize("j", [1, 2, 3, 40, 200])
def test_eigenvectors_exactly_flip_symmetric(j, kappa):
    eig = eigensystem(j, kappa)
    r = eig.real_vectors
    assert np.array_equal(r[::-1], r * eig.parities)


@pytest.mark.parametrize("kappa", [0.4, 1.7, 3.0, 7.0])
@pytest.mark.parametrize("j", [20, 60, 200])
def test_sectors_match_full_row_oracle(j, kappa):
    # each sector block in the full-row J_x basis: W = b^T K^(1/2) b, M = W diag(e^(-i alpha k)) W
    params = KickedTopParams(alpha=ALPHA, kappa=kappa, j=j)
    eig = diagonalize(params)
    k, v = dense_jx(params.basis)
    for parity, cols in (("even", slice(0, None, 2)), ("odd", slice(1, None, 2))):
        b = v[:, cols]
        w = (b.T * params.half_kick) @ b
        block = (w * np.exp(-1j * ALPHA * k[cols])) @ w
        _, o = np.linalg.eigh(block.real + floquet._MIX * block.imag)
        nu = np.arctan2(np.sum(o * (block.imag @ o), axis=0), np.sum(o * (block.real @ o), axis=0))
        nu[nu >= np.pi] -= 2 * np.pi
        assert np.max(np.abs(np.sort(nu) - eig.sector(parity))) <= 1e-13
    r = eig.real_vectors
    assert np.max(np.abs(r.T @ r - np.eye(2 * j + 1))) <= 1e-14
    assert eig.max_residual <= 1e-9


def test_evolve_norm_and_classical_tracking():
    # expectation values track the classical map until the Ehrenfest
    # time ~ ln(sqrt(j))/lambda, about 2 kicks at j=50, kappa=7
    j, theta0, phi0 = 50, 2.0, 0.8
    params = KickedTopParams(alpha=ALPHA, kappa=7.0, j=j)
    eig = diagonalize(params)
    v, nu = eig.eigenvectors, eig.quasienergies

    def evolve(psi, n_kicks):
        # psi_n = F^n psi_0 = V diag(e^(i n nu)) V^dagger psi_0
        return v @ (np.exp(1j * n_kicks * nu) * (v.conj().T @ psi))

    jz = angular_momentum(SpinBasis(j), "z")
    psi0 = coherent_state(SpinBasis(j), theta0, phi0).amplitudes
    state = ClassicalState.from_angles(theta0, phi0)
    for n in range(3):
        psi = evolve(psi0, n)
        quantum = (psi.conj() @ jz @ psi).real / j
        tol = 1e-10 if n <= 1 else 0.1
        assert abs(quantum - state.S[2]) < tol, f"kick {n}"
        state = classical_step(state, params)
    assert abs(np.linalg.norm(evolve(psi0, 100)) - 1.0) < 1e-8


def test_params_validation():
    with pytest.raises(ValueError):
        KickedTopParams(alpha=-0.1, kappa=1.0, j=5)
    with pytest.raises(ValueError):
        KickedTopParams(alpha=1.0, kappa=-1.0, j=5)
    with pytest.raises(ValueError):
        KickedTopParams(alpha=1.0, kappa=np.nan, j=5)
    with pytest.raises(ValueError):
        KickedTopParams(alpha=1.0, kappa=np.inf, j=5)
    with pytest.raises(ValueError):
        KickedTopParams(alpha=1.0, kappa=1.0, j=0)
