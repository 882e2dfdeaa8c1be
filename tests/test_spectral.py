import numpy as np
import pytest
from scipy.integrate import quad

from kickedtop.floquet import SECTORS, FloquetEigensystem, KickedTopParams, diagonalize
from kickedtop.spectral import (
    SpacingEnsemble,
    brody_pdf,
    brody_sample,
    fit_brody,
    ratio_stats,
    spacings_from_quasienergies,
)

ALPHA = 4 * np.pi / 7


def test_uniform_spectrum_unit_spacings():
    nu = np.linspace(-np.pi, np.pi, 40, endpoint=False)
    ens = spacings_from_quasienergies(nu, periodic=True)
    assert np.allclose(ens.spacings, 1.0, atol=1e-12)
    assert ens.raw_gaps.size == 40  # wrap gap included


def test_wrap_gap_toggle():
    nu = np.array([-1.0, 0.0, 2.0])
    periodic = spacings_from_quasienergies(nu, periodic=True)
    open_ends = spacings_from_quasienergies(nu, periodic=False)
    assert periodic.raw_gaps.size == 3
    assert open_ends.raw_gaps.size == 2
    assert abs(periodic.raw_gaps[-1] - (-1.0 + 2 * np.pi - 2.0)) < 1e-12


def test_spacings_normalized_to_unit_mean():
    rng = np.random.default_rng(0)
    nu = np.sort(rng.uniform(-np.pi, np.pi, 500))
    ens = spacings_from_quasienergies(nu)
    assert abs(ens.spacings.mean() - 1.0) < 1e-10
    assert np.all(ens.spacings >= 0)


def test_spacings_input_validation():
    with pytest.raises(ValueError):
        spacings_from_quasienergies(np.array([0.1, 0.0, 0.2]))
    with pytest.raises(ValueError):
        spacings_from_quasienergies(np.array([0.0, 1.0]))


def test_zero_gaps_flagged_not_fatal():
    ens = spacings_from_quasienergies(np.array([0.0, 0.0, 1.0, 2.0]), periodic=False)
    assert ens.n_zero_gaps == 1


def test_brody_poisson_limit():
    s = np.linspace(0.0, 5.0, 64)
    assert np.max(np.abs(brody_pdf(s, 0.0) - np.exp(-s))) < 1e-12


def test_brody_wigner_dyson_limit():
    s = np.linspace(0.0, 5.0, 64)
    wd = (np.pi / 2) * s * np.exp(-np.pi * s**2 / 4)
    assert np.max(np.abs(brody_pdf(s, 1.0) - wd)) < 1e-12


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
def test_brody_normalization_and_mean(beta):
    norm, _ = quad(lambda s: brody_pdf(s, beta), 0.0, np.inf)
    mean, _ = quad(lambda s: s * brody_pdf(s, beta), 0.0, np.inf)
    assert abs(norm - 1.0) < 1e-8
    assert abs(mean - 1.0) < 1e-8


def test_brody_pdf_validation():
    with pytest.raises(ValueError):
        brody_pdf(1.0, -0.1)
    with pytest.raises(ValueError):
        brody_pdf(1.0, 1.1)


@pytest.mark.parametrize("beta_true", [0.0, 0.3, 0.7, 1.0])
def test_brody_fit_recovers_synthetic(beta_true):
    rng = np.random.default_rng(17)
    s = brody_sample(beta_true, 100_000, rng)
    ens = SpacingEnsemble(spacings=np.sort(s / s.mean()), raw_gaps=s)
    fit = fit_brody(ens)
    assert abs(fit.beta - beta_true) <= 0.03
    assert np.isfinite(fit.fit_error)


def test_brody_fit_poisson_samples():
    rng = np.random.default_rng(3)
    s = rng.exponential(size=100_000)
    ens = SpacingEnsemble(spacings=np.sort(s / s.mean()), raw_gaps=s)
    assert fit_brody(ens).beta < 0.05


def test_brody_fit_degenerate_rejected():
    ens = SpacingEnsemble(spacings=np.zeros(300), raw_gaps=np.zeros(300))
    with pytest.raises(ValueError):
        fit_brody(ens)


def test_ratio_equal_spacings():
    stats = ratio_stats(np.full(100, 0.37))
    assert stats.mean_r == 1.0
    assert stats.count == 99


def test_ratio_scale_invariance():
    rng = np.random.default_rng(5)
    gaps = rng.exponential(size=2000)
    assert abs(ratio_stats(gaps).mean_r - ratio_stats(137.0 * gaps).mean_r) < 1e-14


def test_ratio_poisson_value():
    # independent exponential gaps: <r> = 2 ln 2 - 1 = 0.3863
    rng = np.random.default_rng(10)
    gaps = rng.exponential(size=200_000)
    assert abs(ratio_stats(gaps).mean_r - (2 * np.log(2) - 1)) < 0.005


def test_ratio_zero_gap_exclusion():
    gaps = np.array([1.0, 0.0, 2.0, 2.0, 0.0, 3.0])
    stats = ratio_stats(gaps)
    assert stats.count == 3  # ratios among the four positive gaps


def test_ratio_all_zero_rejected():
    with pytest.raises(ValueError):
        ratio_stats(np.zeros(10))


@pytest.fixture(scope="module")
def eig_j200():
    out = {}
    for kappa in (0.4, 7.0):
        p = KickedTopParams(alpha=ALPHA, kappa=kappa, j=200)
        out[kappa] = FloquetEigensystem(tuple(diagonalize(p, s) for s in SECTORS), p)
    return out


def test_kicked_top_regular_regime(eig_j200):
    ens = spacings_from_quasienergies(eig_j200[0.4].block("even").quasienergies)
    assert fit_brody(ens).beta < 0.2
    assert abs(ratio_stats(ens.raw_gaps).mean_r - 0.386) < 0.04


def test_kicked_top_chaotic_regime(eig_j200):
    ens = spacings_from_quasienergies(eig_j200[7.0].block("even").quasienergies)
    assert fit_brody(ens).beta > 0.8
    assert abs(ratio_stats(ens.raw_gaps).mean_r - 0.527) < 0.04


def test_sectors_fit_consistently(eig_j200):
    # both parity sectors carry the same statistics; mixing them would fake
    # Poisson, so they are always analyzed separately
    for kappa, spread in ((0.4, 0.15), (7.0, 0.15)):
        betas = [
            fit_brody(spacings_from_quasienergies(eig_j200[kappa].block(s).quasienergies)).beta
            for s in ("even", "odd")
        ]
        assert abs(betas[0] - betas[1]) < spread


def test_mixed_sectors_fake_poisson(eig_j200):
    # superposition of the two independent sequences kills level repulsion
    eig = eig_j200[7.0]
    mixed = spacings_from_quasienergies(np.sort(eig.quasienergies))
    even = spacings_from_quasienergies(eig.block("even").quasienergies)
    assert fit_brody(mixed).beta < 0.35 < fit_brody(even).beta
