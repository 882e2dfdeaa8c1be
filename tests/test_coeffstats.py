import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from kickedtop import coeffstats
from kickedtop.coeffstats import (
    RescaledCoefficients,
    chisq_cdf,
    chisq_logpdf_form,
    chisq_pdf,
    distance_report,
    empirical_log_histogram,
    pool_rescaled,
)


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


def test_cdf_exponential_median():
    assert abs(chisq_cdf(np.log(2.0), 2, 1.0) - 0.5) < 1e-12


def test_cdf_nu1_erf_form():
    # F_1(x) = erf(sqrt(x / 2<x>)); cross-check against quadrature too
    value = chisq_cdf(1.0, 1, 1.0)
    assert abs(value - erf(np.sqrt(0.5))) < 1e-12
    by_quad, _ = quad(lambda t: chisq_pdf(t, 1, 1.0), 0.0, 1.0)
    assert abs(value - by_quad) < 1e-10


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
