import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from kickedtop import spin
from kickedtop.classical import haar_sphere, rng_for_task
from kickedtop.spin import (
    AMPLITUDE_CUTOFF,
    SpinBasis,
    angular_momentum,
    coherent_band,
    coherent_state_matrix,
)


def test_jz_spin_half_diagonal():
    jz = angular_momentum(SpinBasis(0.5), "z")
    assert np.allclose(jz, np.diag([-0.5, 0.5]))


def test_jx_spin_half_offdiagonal():
    jx = angular_momentum(SpinBasis(0.5), "x")
    assert np.allclose(jx, np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_ladder_matrix_elements():
    # <m+1|J+|m> = sqrt(j(j+1) - m(m+1)) shows up in Jx as half that
    j = 5
    jx = angular_momentum(SpinBasis(j), "x")
    m = np.arange(-j, j)
    expected = 0.5 * np.sqrt(j * (j + 1) - m * (m + 1))
    assert np.allclose(np.diag(jx, k=-1).real, expected)


@pytest.mark.parametrize("j", [0.5, 5, 50, 100])
def test_commutation_relations(j):
    basis = SpinBasis(j)
    jx, jy, jz = (angular_momentum(basis, a) for a in "xyz")
    defect = np.max(np.abs(jx @ jy - jy @ jx - 1j * jz))
    # dense matmul rounding scales with the ~j^2 entries; 1e-12 absolute
    # holds through j=50, the scale-aware bound covers larger j
    assert defect < max(1e-12, 2.5e-14 * j)
    if j <= 50:
        assert defect < 1e-12
    assert np.max(np.abs(jx - jx.conj().T)) == 0.0
    assert np.max(np.abs(jy - jy.conj().T)) == 0.0


def test_basis_validation():
    with pytest.raises(ValueError):
        SpinBasis(0.3)
    with pytest.raises(ValueError):
        SpinBasis(0)
    assert SpinBasis(1.5).dim == 4


def test_coherent_north_pole():
    state = coherent_state_matrix(SpinBasis(7), [0.0], [2.2])[:, 0]
    expected = np.zeros(15)
    expected[-1] = 1.0  # m = +j
    assert np.allclose(state, expected)


def test_coherent_south_pole():
    state = coherent_state_matrix(SpinBasis(7), [np.pi], [0.0])[:, 0]
    expected = np.zeros(15)
    expected[0] = 1.0  # m = -j
    assert np.allclose(state, expected)


def test_coherent_jz_expectation():
    j = 10
    state = coherent_state_matrix(SpinBasis(j), [np.pi / 3], [1.2])[:, 0]
    jz = angular_momentum(SpinBasis(j), "z")
    mean = (state.conj() @ jz @ state).real / j
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    assert abs(mean - 0.5) < 1e-10  # cos(pi/3)


@pytest.mark.parametrize("j", [0.5, 5, 50])
def test_normalization_on_grid(j):
    thetas = np.linspace(0.0, np.pi, 20)
    phis = np.linspace(0.0, 2 * np.pi, 20, endpoint=False)
    for theta in thetas:
        for phi in phis:
            amps = coherent_state_matrix(SpinBasis(j), [theta], [phi])[:, 0]
            assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("j", [2, 20, 80])
def test_bloch_vector_expectations(j):
    # <J>/j = (sin t cos p, sin t sin p, cos t) exactly for coherent states
    basis = SpinBasis(j)
    ops = [angular_momentum(basis, a) for a in "xyz"]
    theta, phi = 1.9, 4.4
    amps = coherent_state_matrix(basis, [theta], [phi])[:, 0]
    vec = np.array([(amps.conj() @ op @ amps).real / j for op in ops])
    target = np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    assert np.max(np.abs(vec - target)) < 1e-10


def test_large_j_no_overflow():
    # (2j)! overflows near j ~ 85; log-space construction must survive
    amps = coherent_state_matrix(SpinBasis(800), [1.3], [0.4])[:, 0]
    assert np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_theta_out_of_range():
    with pytest.raises(ValueError):
        coherent_state_matrix(SpinBasis(3), [-0.1], [0.0])
    with pytest.raises(ValueError):
        coherent_state_matrix(SpinBasis(3), [np.pi + 0.1], [0.0])
    with pytest.raises(ValueError):
        coherent_state_matrix(SpinBasis(3), [np.nan], [0.0])
    # one bad column among good ones must not come back as a zero column
    for bad in (-0.1, np.pi + 0.1, np.nan):
        with pytest.raises(ValueError):
            coherent_state_matrix(SpinBasis(3), [bad, 1.0], [0.0, 0.0])


def test_phi_not_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"phi must be finite, got {bad}"):
            coherent_state_matrix(SpinBasis(3), [1.0], [bad])
        with pytest.raises(ValueError, match="phi"):
            coherent_state_matrix(SpinBasis(3), [1.0, 1.0], [0.0, bad])


def test_phi_overflowing_the_phase_product():
    # (j - m) phi reaches 2j |phi|; past the largest double it would be a NaN column
    with pytest.raises(ValueError, match=r"2j \|phi\| < 1.8e308, \|phi\| <= 1.79769e\+307 at j = 5.0"):
        coherent_state_matrix(SpinBasis(5), [1.0], [1.7e308])
    with pytest.raises(ValueError, match="phi"):
        coherent_state_matrix(SpinBasis(5), [1.0, 1.0], [0.0, -1.7e308])
    amps = coherent_state_matrix(SpinBasis(5), [1.0], [1.7e307])  # 10 |phi| is finite
    assert np.all(np.isfinite(amps)) and abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_no_subnormal_amplitudes_and_cutoff_is_relative():
    # without the cutoff about 1% of these entries are subnormal, which
    # puts the expansion GEMM on the slow path
    j = 800
    theta, phi = haar_sphere(2000, rng_for_task(11))
    amps = coherent_state_matrix(SpinBasis(j), theta, phi)
    tiny = np.finfo(float).tiny
    for part in (amps.real, amps.imag):
        assert np.count_nonzero((part != 0) & (np.abs(part) < tiny)) == 0
    # independent magnitudes, log space without any cutoff: every zero
    # entry lies below the relative cutoff, every kept one matches
    m = np.arange(-j, j + 1)
    t = np.tan(theta / 2)
    log_mag = (
        np.outer(j - m, np.log(t))
        - j * np.log1p(t * t)
        + 0.5 * (gammaln(2 * j + 1) - gammaln(j + m + 1) - gammaln(j - m + 1))[:, None]
    )
    log_rel = log_mag - log_mag.max(axis=0)
    kept = amps != 0
    assert np.all(log_rel[~kept] < np.log(AMPLITUDE_CUTOFF) + 1e-9)
    assert np.all(log_rel[kept] > np.log(AMPLITUDE_CUTOFF) - 1e-9)
    assert np.max(np.abs(np.abs(amps[kept]) / np.exp(log_mag[kept]) - 1.0)) < 1e-11


@pytest.mark.parametrize("j", [0.5, 30, 150, 800, 1000])
def test_ln_binomial_exact(j):
    n = round(2 * j)
    got = spin._ln_binomial(j)
    assert got.shape == (n + 1,) and not got.flags.writeable
    with localcontext() as ctx:
        ctx.prec = 50
        exact = [Decimal(math.comb(n, k)).ln() for k in range(n + 1)]
        assert max(abs(Decimal(float(g)) - e) for g, e in zip(got, exact)) <= Decimal("3e-13")
    assert np.array_equal(got, got[::-1])


def test_batch_matches_single():
    basis = SpinBasis(30)
    thetas = np.array([0.0, 0.3, np.pi / 2, 2.8, np.pi])
    phis = np.array([0.1, 1.0, 2.0, 3.0, 4.0])
    batch = coherent_state_matrix(basis, thetas, phis)
    for k, (theta, phi) in enumerate(zip(thetas, phis)):
        single = coherent_state_matrix(basis, [theta], [phi])[:, 0]
        assert np.max(np.abs(batch[:, k] - single)) < 1e-13


def test_tiled_phases_match_exact_exponential_at_large_j():
    # entry m carries e^(i (j - m) phi).  np.exp(1j * (j - m) * phi) first
    # rounds the product n * phi, which alone moves it by up to 9e-13 here
    # (n = 1600, phi near 2pi), so the reference adds that rounding back
    # exactly: e^(i (p + e)) = e^(i p) (1 + i e) for the rounded p and |e| < 1e-12
    j = 800
    thetas = np.repeat(np.linspace(0.02, np.pi - 0.02, 20), 3)
    phis = np.tile([2 * np.pi - 1e-3, 1.234567, -10.0], 20)
    amps = coherent_state_matrix(SpinBasis(j), thetas, phis)
    rows, cols = np.nonzero(amps)
    n = (2 * j - rows).astype(float)
    prod = n * phis[cols]
    rounding = [float(Fraction(a) * Fraction(b) - Fraction(p)) for a, b, p in zip(n, phis[cols], prod)]
    exact = np.exp(1j * prod) * (1 + 1j * np.array(rounding))
    phases = amps[rows, cols] / np.abs(amps[rows, cols])
    assert set(rows) == set(range(2 * j + 1))  # every Dicke row is checked
    assert np.max(np.abs(phases - exact)) < 1e-13


def _full_rows(j, thetas):
    return 0, round(2 * j) + 1


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    twoj=st.one_of(st.integers(1, 40), st.integers(1, 2000)),
    thetas=st.lists(
        st.one_of(
            st.sampled_from([0.0, np.pi, 5e-324, 1e-9, np.pi - 1e-9]),
            st.floats(0.0, np.pi),
        ),
        min_size=1,
        max_size=200,
    ),
    seed=st.integers(0, 2**32 - 1),
    with_row_phase=st.booleans(),
)
def test_row_window_band_equals_full_rows(twoj, thetas, seed, with_row_phase):
    # the band evaluated on the proven row window is bit-identical to the
    # one evaluated on all 2j+1 rows, and its nonzero entries are exactly
    # those that the log-space formula keeps over all rows
    j = twoj / 2
    basis = SpinBasis(j)
    thetas = np.array(thetas)
    rng = np.random.default_rng(seed)
    phis = rng.uniform(-10.0, 10.0, thetas.size)
    row_phase = np.exp(2j * np.pi * rng.random(basis.dim)) if with_row_phase else None
    band, lo, hi = coherent_band(basis, thetas, phis, row_phase)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spin, "_row_window", _full_rows)
        full, full_lo, full_hi = coherent_band(basis, thetas, phis, row_phase)
    assert (lo, hi) == (full_lo, full_hi)
    assert np.array_equal(band, full)

    m = basis.m_values
    t = np.tan(thetas / 2)
    interior = (t != 0) & (thetas != np.pi)
    t = np.where(interior, t, 1.0)
    with np.errstate(divide="ignore"):
        log_mag = (
            np.outer(j - m, np.log(t))
            - j * np.log1p(t * t)
            + 0.5 * (gammaln(2 * j + 1) - gammaln(j + m + 1) - gammaln(j - m + 1))[:, None]
        )
    log_mag[:, ~interior] = -np.inf
    log_mag[-1, (~interior) & (thetas != np.pi)] = 0.0
    log_mag[0, thetas == np.pi] = 0.0
    keep = log_mag >= log_mag.max(axis=0) + np.log(AMPLITUDE_CUTOFF)
    assert not keep[:lo].any() and not keep[hi:].any()
    assert np.array_equal(keep[lo:hi], band != 0)
    # the window is never tight: a row beyond the kept ones separates them
    # from each end of the window that is not an end of the ladder
    a, b = spin._row_window(j, thetas)
    assert (a == 0 or lo > a) and (b == basis.dim or hi < b)
