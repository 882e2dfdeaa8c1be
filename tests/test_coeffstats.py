import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf, gammainc, gammaincc

from kickedtop import coeffstats
from kickedtop.classical import haar_sphere, rng_for_task
from kickedtop.coeffstats import (
    RescaledCoefficients,
    chisq_cdf,
    chisq_logpdf_form,
    chisq_pdf,
    distance_report,
    empirical_log_histogram,
    pool_rescaled,
)
from kickedtop.floquet import SECTORS, FloquetEigensystem, KickedTopParams, diagonalize
from kickedtop.multifractal import coherent_weights


def test_nu2_is_exponential():
    x = np.linspace(0.0, 20.0, 200)
    assert np.max(np.abs(chisq_pdf(x, 2, 1.0) - np.exp(-x))) < 1e-12


def test_nu1_porter_thomas_form():
    x = np.linspace(0.01, 10.0, 100)
    expected = np.exp(-x / 2) / np.sqrt(2 * np.pi * x)
    assert np.max(np.abs(chisq_pdf(x, 1, 1.0) - expected)) < 1e-12


@pytest.mark.parametrize("nu", [1, 2, 4])
@pytest.mark.parametrize("mean_x", [0.5, 1.0, 2.0])
def test_pdf_normalization_and_mean(nu, mean_x):
    norm, _ = quad(lambda x: chisq_pdf(x, nu, mean_x), 0.0, np.inf)
    mean, _ = quad(lambda x: x * chisq_pdf(x, nu, mean_x), 0.0, np.inf)
    assert abs(norm - 1.0) < 1e-8
    assert abs(mean - mean_x) < 1e-8


def test_nu4_quadrature_tight():
    norm, _ = quad(lambda x: chisq_pdf(x, 4, 1.0), 0.0, np.inf)
    mean, _ = quad(lambda x: x * chisq_pdf(x, 4, 1.0), 0.0, np.inf)
    assert abs(norm - 1.0) < 1e-10
    assert abs(mean - 1.0) < 1e-10


def test_invalid_nu_rejected():
    with pytest.raises(ValueError):
        chisq_pdf(1.0, 3, 1.0)


def test_log_form_is_x_times_pdf():
    x = np.linspace(0.01, 15.0, 64)
    assert np.max(np.abs(chisq_logpdf_form(x, 2, 1.0) - x * np.exp(-x))) < 1e-12


@pytest.mark.parametrize("nu,mean_x", [(2, 1.0), (2, 3.0), (1, 1.0), (4, 0.7)])
def test_log_form_peaks_at_mean(nu, mean_x):
    x = np.linspace(0.01 * mean_x, 8 * mean_x, 20_000)
    peak = x[np.argmax(chisq_logpdf_form(x, nu, mean_x))]
    assert abs(peak - mean_x) < 0.01 * mean_x + 1e-3


def test_cdf_limits():
    assert chisq_cdf(0.0, 2, 1.0) == 0.0
    assert abs(chisq_cdf(1e4, 2, 1.0) - 1.0) < 1e-12
    assert abs(chisq_cdf(1e4, 1, 1.0) - 1.0) < 1e-12
    for nu in (1, 2, 4):
        assert chisq_cdf(-1.0, nu) == chisq_cdf(0.0, nu) == 0.0
        assert chisq_cdf(1e4, nu) == chisq_cdf(np.inf, nu) == 1.0
        assert coeffstats._chisq_sf(0.0, nu) == 1.0 and coeffstats._chisq_sf(np.inf, nu) == 0.0
        assert np.isnan(chisq_cdf(np.nan, nu))
        assert np.ndim(chisq_cdf(1.0, nu)) == np.ndim(coeffstats._chisq_sf(1.0, nu)) == 0
        assert chisq_cdf(np.ones((2, 3)), nu).shape == (2, 3)


def test_cdf_exponential_median():
    assert abs(chisq_cdf(np.log(2.0), 2, 1.0) - 0.5) < 1e-12


def test_cdf_nu1_erf_form():
    # F_1(x) = erf(sqrt(x / 2<x>)); cross-check against quadrature too
    value = chisq_cdf(1.0, 1, 1.0)
    assert abs(value - erf(np.sqrt(0.5))) < 1e-12
    by_quad, _ = quad(lambda t: chisq_pdf(t, 1, 1.0), 0.0, 1.0)
    assert abs(value - by_quad) < 1e-10


# x/<x> from deep in the lower tail, where 1 - e^-u (1 + u) cancels to 0 for nu = 4, up to 60
CDF_GRID = np.logspace(-40, np.log10(60.0), 2001)


@pytest.mark.parametrize("nu", [1, 2, 4])
@pytest.mark.parametrize("mean_x", [0.5, 1.0, 2.0])
def test_closed_forms_match_gammainc(nu, mean_x):
    x = CDF_GRID * mean_x
    u = 0.5 * nu * x / mean_x
    assert np.max(np.abs(chisq_cdf(x, nu, mean_x) / gammainc(0.5 * nu, u) - 1)) < 5e-14
    assert np.max(np.abs(coeffstats._chisq_sf(x, nu, mean_x) / gammaincc(0.5 * nu, u) - 1)) < 5e-14


# x/<x> at which Q falls to about 1e-300
TAIL_END = {1: 1376.0, 2: 690.0, 4: 348.0}


@pytest.mark.parametrize("nu", [1, 2, 4])
@pytest.mark.parametrize("mean_x", [0.5, 1.0, 2.0])
def test_survival_forms_deep_in_the_tail(nu, mean_x):
    # against 40-digit mpmath: gammaincc itself errs by up to 1.1e-13 relative out here
    t = np.linspace(60.0, TAIL_END[nu], 120)
    with mpmath.workdps(40):  # u = nu t / 2 is exact in doubles, and so is x / <x> = t
        exact = np.array([float(mpmath.gammainc(mpmath.mpf(nu) / 2, 0.5 * nu * v, mpmath.inf, regularized=True))
                          for v in t])
    assert 1e-301 < exact[-1] < 1e-299
    assert np.max(np.abs(coeffstats._chisq_sf(t * mean_x, nu, mean_x) / exact - 1)) < 5e-14


@pytest.mark.parametrize("nu", [1, 2, 4])
def test_cdf_is_antiderivative_of_pdf(nu):
    x = np.logspace(-2, 1.5, 200)
    h = 1e-5
    deriv = (chisq_cdf(x + h, nu, 1.0) - chisq_cdf(x - h, nu, 1.0)) / (2 * h)
    assert np.max(np.abs(deriv - chisq_pdf(x, nu, 1.0))) < 1e-6


def test_pool_rescaled_unit_mean():
    rng = np.random.default_rng(0)
    w = rng.dirichlet(np.ones(31), size=50)
    pool = pool_rescaled(w)
    assert pool.x.size == 50 * 31
    assert abs(pool.mean_x - 1.0) < 1e-12
    # per-state mean of x is exactly 1
    assert np.max(np.abs((w * 31).mean(axis=1) - 1.0)) < 1e-12


def dirichlet_with_zeros(n_states=300, dim=41, seed=3):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(dim), size=n_states)
    w[rng.random(w.shape) < 0.1] = 0.0  # exact zeros, as a cut-off amplitude leaves
    return w / w.sum(axis=1, keepdims=True)


def test_pool_sorted_with_input_order_mean():
    w = dirichlet_with_zeros()
    pool = pool_rescaled(w)
    assert np.count_nonzero(w == 0) > 0
    assert np.all(pool.x[:-1] <= pool.x[1:])
    assert pool.mean_x == float((w * w.shape[1]).ravel().mean())
    assert np.shares_memory(pool.positive, pool.x)
    assert pool.positive.size == np.count_nonzero(w) and pool.positive[0] > 0


def test_readers_exact_on_a_shuffled_pool():
    w = dirichlet_with_zeros()
    pool = pool_rescaled(w)
    shuffled = np.random.default_rng(4).permutation(pool.x)
    kept = shuffled.copy()
    other = RescaledCoefficients(x=shuffled, mean_x=pool.mean_x)
    assert np.array_equal(shuffled, kept)  # sorted as a copy
    assert np.array_equal(other.x, pool.x)
    a, b = empirical_log_histogram(pool), empirical_log_histogram(other)
    assert np.array_equal(a.bin_edges, b.bin_edges) and np.array_equal(a.density, b.density)
    assert a.n_zero_excluded == b.n_zero_excluded == np.count_nonzero(w == 0)
    for nu in (1, 2, 4):
        assert distance_report(pool, nu) == distance_report(other, nu)


@pytest.mark.parametrize("x", [[0.0, 0.0], [1.0, np.nan, 2.0], [np.nan]])
def test_pool_needs_a_positive_entry_and_no_nan(x):
    with pytest.raises(ValueError):
        RescaledCoefficients(x=np.array(x), mean_x=1.0)


def test_log_histogram_matches_exponential_reference():
    rng = np.random.default_rng(12)
    pool = RescaledCoefficients(x=rng.exponential(size=1_000_000), mean_x=1.0)
    hist = empirical_log_histogram(pool, bins=40)
    edges_x = np.exp(hist.bin_edges)
    prob = np.diff(chisq_cdf(edges_x, 2, 1.0))
    widths = np.diff(hist.bin_edges)
    expected_density = prob / widths
    counts = hist.density * widths * pool.n
    sigma = np.sqrt(np.maximum(prob * pool.n, 1.0))
    z = (counts - prob * pool.n) / sigma
    keep = prob * pool.n > 10
    assert np.max(np.abs(z[keep])) < 3.0
    bulk = prob * pool.n > 2000  # relative check only where it is meaningful
    assert np.max(np.abs(hist.density[bulk] - expected_density[bulk])
                  / expected_density[bulk]) < 0.1


def test_log_histogram_excludes_zeros():
    pool = RescaledCoefficients(x=np.array([0.0, 0.0, 1.0, 2.0, 3.0]), mean_x=1.2)
    hist = empirical_log_histogram(pool, bins=4)
    assert hist.n_zero_excluded == 2


def test_log_histogram_empty_rejected():
    with pytest.raises(ValueError):
        empirical_log_histogram(RescaledCoefficients(x=np.array([]), mean_x=1.0))


def test_self_distance_shrinks_with_samples():
    rng = np.random.default_rng(7)
    small = pool_from_samples(rng.chisquare(2, size=10_000) / 2)
    large = pool_from_samples(rng.chisquare(2, size=1_000_000) / 2)
    rep_small = distance_report(small, nu=2)
    rep_large = distance_report(large, nu=2)
    assert rep_large.skld < rep_small.skld
    assert rep_large.rmse < rep_small.rmse
    assert rep_large.skld < 0.05
    assert rep_large.rmse < 0.005


def pool_from_samples(x):
    return RescaledCoefficients(x=np.asarray(x), mean_x=float(np.mean(x)))


def scipy_bin_masses(pool, nu):
    """Counts of ``distance_report``'s bins, and their chi^2_nu masses as
    differences of gammainc alone and, past the median, of gammaincc."""
    positive = pool.positive
    edges = np.exp(coeffstats._fd_log_edges(pool.log_positive))
    edges[0], edges[-1] = positive[0], positive[-1]
    counts, _ = np.histogram(positive, bins=edges)
    u = 0.5 * nu * edges / pool.mean_x
    f, q = gammainc(0.5 * nu, u), gammaincc(0.5 * nu, u)
    return counts, np.diff(f), np.where(f[:-1] < 0.5, np.diff(f), -np.diff(q))


def assert_no_bin_clamped(pool, nu):
    counts, f_masses, masses = scipy_bin_masses(pool, nu)
    held = counts > 0
    assert np.any(f_masses[held] < coeffstats.DENSITY_FLOOR)  # differences of F lose the tail bins
    assert np.all(masses[held] > coeffstats.DENSITY_FLOOR)
    p = counts[held] / pool.positive.size
    skld = np.sqrt(np.sum(p * np.log(p / masses[held])))
    assert abs(distance_report(pool, nu).skld / skld - 1) < 1e-9


@pytest.mark.parametrize("nu", [1, 2, 4])
def test_skld_keeps_upper_tail_masses(nu):
    # a chi^2_nu pool with a few entries at 80-120 <x>, where F rounds to 1 for each nu
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.chisquare(nu, size=100_000) / nu, rng.uniform(80.0, 120.0, size=20)])
    assert_no_bin_clamped(pool_from_samples(x), nu)


def test_skld_clamps_no_bin_at_kappa3():
    # the pool of the default coeffdist at kappa = 3 (j = 150, 10^4 states, task 2): differences
    # of F floored 15 of its 641 bins, which hold x up to 140 <x>
    p = KickedTopParams(alpha=4 * np.pi / 7, kappa=3.0, j=150)
    eig = FloquetEigensystem(tuple(diagonalize(p, s) for s in SECTORS), p)
    theta, phi = haar_sphere(10_000, rng_for_task(0, 2))
    assert_no_bin_clamped(pool_rescaled(coherent_weights(eig, theta, phi)), 2)


def test_distance_scale_invariance():
    rng = np.random.default_rng(8)
    x = rng.chisquare(2, size=50_000) / 2
    a = distance_report(pool_from_samples(x), nu=2)
    b = distance_report(pool_from_samples(10.0 * x), nu=2)
    assert abs(a.skld - b.skld) < 1e-10
    assert abs(a.rmse - b.rmse) < 1e-10


def test_distance_nonnegative_and_metadata():
    rng = np.random.default_rng(9)
    rep = distance_report(pool_from_samples(rng.exponential(size=20_000)), nu=2)
    assert rep.skld >= 0 and rep.rmse >= 0
    assert rep.x_range[0] > 0 and rep.x_range[1] > rep.x_range[0]
    assert rep.n_bins >= 10 and rep.n_grid > 0


def test_degenerate_pool_rejected():
    with pytest.raises(ValueError):
        distance_report(RescaledCoefficients(x=np.full(100, 2.0), mean_x=2.0), nu=2)


def quartile_bits(y):
    return np.array([coeffstats._sorted_percentile(y, 75), coeffstats._sorted_percentile(y, 25)]).view(np.uint64)


def test_sorted_quartiles_equal_np_percentile_bit_for_bit():
    rng = np.random.default_rng(12)
    for n in range(1, 65):
        for y in (
            rng.standard_normal(n),
            rng.integers(-3, 3, n).astype(float),  # ties
            np.log(rng.exponential(size=n)),
            rng.choice([0.0, 1e-300, -1e300, 5.0, -2.5], n),  # ties at extreme values
        ):
            y = np.sort(y)
            assert np.array_equal(quartile_bits(y), np.percentile(y, [75, 25]).view(np.uint64)), y
    pool = pool_rescaled(rng.dirichlet(np.ones(100), size=10_000))
    y = pool.log_positive
    assert y.size == 10**6
    assert np.array_equal(quartile_bits(y), np.percentile(y, [75, 25]).view(np.uint64))
