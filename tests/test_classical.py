import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from kickedtop import classical
from kickedtop.classical import (
    GridSpec,
    averaged_lyapunov,
    haar_sphere,
    jacobian,
    kappa_threshold,
    lyapunov_field,
    phase_portrait,
    rng_for_task,
    _lyapunov_batch,
    _step_batch,
)
from kickedtop.floquet import KickedTopParams

ALPHA = 4 * np.pi / 7


def params(alpha=ALPHA, kappa=3.0):
    return KickedTopParams(alpha=alpha, kappa=kappa, j=1)


def random_unit_vectors(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_alpha_zero_preserves_sz():
    s = np.array([[0.36, 0.48, 0.8]])
    for kappa in (0.0, 2.0, 9.0):
        out = _step_batch(s, 0.0, kappa)
        assert abs(out[0, 2] - 0.8) < 1e-14


def test_pure_rotation_about_x():
    out = _step_batch(np.array([[0.0, 0.0, 1.0]]), np.pi / 2, 0.0)
    assert np.max(np.abs(out[0] - np.array([0.0, -1.0, 0.0]))) < 1e-14


def test_norm_preserved_long_run():
    s = np.array([[0.6, 0.8, 0.0]])
    for _ in range(1000):
        s = _step_batch(s, ALPHA, 3.0)
    assert abs(np.linalg.norm(s[0]) - 1.0) < 1e-11


def test_one_step_matrix_is_orthogonal():
    # M = dS'/dS at kappa=0 is the rotation itself; at kappa>0 check via
    # norm preservation of random tangent rotations of the map matrix
    for v in random_unit_vectors(10, seed=3):
        p = params(kappa=7.0)
        xi = p.kappa * (v[1] * np.sin(p.alpha) + v[2] * np.cos(p.alpha))
        ca, sa = np.cos(p.alpha), np.sin(p.alpha)
        cx, sx = np.cos(xi), np.sin(xi)
        m = np.array([[cx, -ca * sx, sa * sx], [sx, ca * cx, -sa * cx], [0, sa, ca]])
        assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-14


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for v in random_unit_vectors(20, seed=1):
        p = params(alpha=rng.uniform(0.1, 6.2), kappa=rng.uniform(0.0, 10.0))
        analytic = jacobian(v, p)
        fd = np.empty((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fp = _step_batch((v + e)[None, :], p.alpha, p.kappa)[0]
            fm = _step_batch((v - e)[None, :], p.alpha, p.kappa)[0]
            fd[:, k] = (fp - fm) / (2 * h)
        assert np.max(np.abs(analytic - fd)) < 1e-6


def test_lyapunov_zero_for_isometry():
    (lam,) = _lyapunov_batch(np.array([[0.6, 0.8, 0.0]]), 1.3, 0.0, 2000)
    assert abs(lam) < 1e-12


def test_lyapunov_small_in_regular_regime():
    (lam,) = _lyapunov_batch(np.array([[0.6, 0.8, 0.0]]), ALPHA, 0.4, 5000)
    assert abs(lam) < 0.01


def test_lyapunov_strong_kick_matches_asymptote():
    lams = _lyapunov_batch(random_unit_vectors(100, seed=2), np.pi / 2, 30.0, 2000)
    target = np.log(30.0) - 1.0
    assert abs(lams.mean() - target) / target < 0.10


def test_tangent_growth_is_linear_in_time():
    # chaotic orbit: the mean log stretch per kick settles well above zero;
    # its convergence in the kick count is test_estimator_stability_under_doubling
    s = np.array([[0.43, -0.31, 0.85]]) / np.linalg.norm([0.43, -0.31, 0.85])
    (lam,) = _lyapunov_batch(s, ALPHA, 7.0, 5000)
    assert lam > 0.8


def test_estimator_stability_under_doubling():
    s = np.array([[0.43, -0.31, 0.85]]) / np.linalg.norm([0.43, -0.31, 0.85])
    (l1,) = _lyapunov_batch(s, ALPHA, 7.0, 2500)
    (l2,) = _lyapunov_batch(s, ALPHA, 7.0, 5000)
    assert abs(l2 - l1) / l1 < 0.02


def test_lyapunov_batch_independent_of_chunking(monkeypatch):
    # 37 trajectories in chunks of 16: two full chunks and a partial one
    monkeypatch.setattr(classical, "CHUNK_TRAJECTORIES", 16)
    s0 = random_unit_vectors(37, seed=5)
    for alpha, kappa in ((ALPHA, 3.0), (np.pi / 2, 7.0)):
        batch = _lyapunov_batch(s0, alpha, kappa, 150, 20)
        single = [_lyapunov_batch(s[None, :], alpha, kappa, 150, 20)[0] for s in s0]
        assert np.array_equal(batch, single)


def benettin_by_hand(p, s0, n_kicks, n_transient):
    # Benettin by hand: one-point kicks for the orbit, the analytic
    # jacobian for the tangent vector, renormalized every kick
    expected = []
    for s in s0:
        state, d, acc = s, np.full(3, 1.0 / np.sqrt(3.0)), 0.0
        for n in range(n_transient + n_kicks):
            d = jacobian(state, p) @ d
            state = _step_batch(state[None, :], p.alpha, p.kappa)[0]
            r = np.linalg.norm(d)
            if n >= n_transient:
                acc += np.log(r)
            d = d / r
        expected.append(acc / n_kicks)
    return np.array(expected)


@pytest.mark.parametrize("kappa", [0.4, 3.0, 7.0])
def test_lyapunov_batch_matches_jacobian_oracle(kappa):
    p = params(kappa=kappa)
    s0 = random_unit_vectors(20, seed=6)
    n_kicks, n_transient = 500, 100
    expected = benettin_by_hand(p, s0, n_kicks, n_transient)
    lam = _lyapunov_batch(s0, p.alpha, p.kappa, n_kicks, n_transient)
    assert np.max(np.abs(lam - expected)) < 1e-10


@pytest.mark.parametrize("kappa", [1e19, 1e25])
def test_lyapunov_batch_finite_at_extreme_kappa(kappa):
    # a kick stretches the tangent by up to 1 + kappa = 2^63 or 2^83, so 15 kicks
    # since the last multiple of 16, where each norm is taken here, overflow its
    # square; the rescale period follows kappa instead
    p = params(kappa=kappa)
    s0 = random_unit_vectors(20, seed=7)
    n_kicks, n_transient = 207, 15
    lam = _lyapunov_batch(s0, p.alpha, p.kappa, n_kicks, n_transient)
    assert np.all(np.isfinite(lam))
    assert np.max(np.abs(lam - benettin_by_hand(p, s0, n_kicks, n_transient))) < 1e-10


def test_lyapunov_batch_mixing_kappa_matches_single_runs(monkeypatch):
    # kappa = 3 and 1e19 alternate trajectory by trajectory, so every chunk mixes
    # rescale periods; each trajectory must still give its single-run bits
    monkeypatch.setattr(classical, "CHUNK_TRAJECTORIES", 5)
    s0 = random_unit_vectors(12, seed=8)
    kappa = np.tile([3.0, 1e19], 6)
    alpha = np.linspace(0.5, 2.5, 12)
    batch = _lyapunov_batch(s0, alpha, kappa, 150, 20)
    single = [_lyapunov_batch(s[None, :], a, k, 150, 20)[0] for s, a, k in zip(s0, alpha, kappa)]
    assert np.all(np.isfinite(batch))
    assert np.array_equal(batch, single)


def test_lyapunov_needs_a_kick():
    s0 = random_unit_vectors(3)
    for n_kicks in (0, -1):
        with pytest.raises(ValueError, match="n_kicks"):
            _lyapunov_batch(s0, ALPHA, 3.0, n_kicks)
    with pytest.raises(ValueError, match="n_kicks"):
        lyapunov_field(params(), GridSpec(n_phi=2, n_theta=2), n_kicks=0)
    with pytest.raises(ValueError, match="n_kicks"):
        averaged_lyapunov(params(), n_samples=4, n_kicks=0)


def test_field_regular_regime_mostly_zero():
    field = lyapunov_field(params(kappa=0.4), GridSpec(n_phi=50, n_theta=50), n_kicks=5000)
    assert np.mean(field.grid < 0.01) > 0.95
    # volume-preserving sphere map: largest exponent non-negative up to
    # estimator noise
    assert field.grid.min() > -5e-3


def test_field_chaotic_regime_uniform():
    field = lyapunov_field(params(kappa=7.0), GridSpec(n_phi=50, n_theta=50), n_kicks=2000)
    assert field.grid.std() / field.grid.mean() < 0.15


def test_field_mixed_regime_bimodal():
    field = lyapunov_field(params(kappa=3.0), GridSpec(n_phi=50, n_theta=50), n_kicks=2000)
    regular = field.grid < 0.01
    assert np.any(field.grid > 0.3)
    assert regular.sum() >= 10
    labels, n_islands = ndimage.label(regular)
    sizes = ndimage.sum_labels(np.ones_like(labels), labels, index=range(1, n_islands + 1))
    assert sizes.max() >= 10  # a connected regular island, not scattered noise


def test_averaged_zero_kappa():
    avg = averaged_lyapunov(params(kappa=0.0), n_samples=200, n_kicks=200, seed=0)
    assert abs(avg.mean) < 1e-10


def test_averaged_needs_two_samples():
    for n in (1, 0, -1):
        with pytest.raises(ValueError, match="n_samples"):
            averaged_lyapunov(params(), n_samples=n, n_kicks=10)


@pytest.mark.parametrize("alpha", [0.0, np.pi])
def test_averaged_integrable_lines(alpha):
    for kappa in (1.0, 5.0, 9.0):
        avg = averaged_lyapunov(params(alpha, kappa), n_samples=1000, n_kicks=1000, seed=0)
        assert abs(avg.mean) < 0.01


@pytest.mark.xfail(
    strict=True,
    reason="measured phase-space average at kappa=7 sits ~15% above the "
    "large-kick asymptote ln(kappa sin alpha) - 1; 10% is only reached "
    "for kappa >~ 15 (see kappa=30 test below)",
)
def test_averaged_asymptote_kappa7():
    avg = averaged_lyapunov(params(kappa=7.0), n_samples=5000, n_kicks=5000, seed=0)
    target = np.log(7.0 * np.sin(ALPHA)) - 1.0
    assert abs(avg.mean - target) / target < 0.10


def test_averaged_asymptote_kappa30():
    avg = averaged_lyapunov(params(np.pi / 2, 30.0), n_samples=2000, n_kicks=2000, seed=0)
    target = np.log(30.0) - 1.0
    assert abs(avg.mean - target) / target < 0.10
    assert avg.stderr < 0.05
    assert abs(avg.ks_entropy - 4 * np.pi * avg.mean) < 1e-12


def test_symmetry_alpha_shift_with_spin_flip():
    # matched sample sets: Haar points for alpha, flipped points for alpha+pi
    theta, phi = haar_sphere(400, rng_for_task(11))
    s0 = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1
    )
    for alpha, kappa in ((1.1, 7.0), (0.7, 3.0)):
        l1 = _lyapunov_batch(s0, alpha, kappa, 1500)
        l2 = _lyapunov_batch(-s0, alpha + np.pi, kappa, 1500)
        se = np.sqrt(l1.std(ddof=1) ** 2 + l2.std(ddof=1) ** 2) / np.sqrt(400)
        assert abs(l1.mean() - l2.mean()) < 3 * se + 1e-3


def test_haar_sampling_moments():
    theta, phi = haar_sphere(200_000, rng_for_task(4))
    assert abs(np.mean(np.cos(theta))) < 0.01
    assert abs(np.mean(np.cos(theta) ** 2) - 1.0 / 3.0) < 0.01
    assert abs(np.mean(phi) - np.pi) < 0.02


def test_rng_substreams_deterministic():
    a = rng_for_task(5, 3).random(4)
    b = rng_for_task(5, 3).random(4)
    c = rng_for_task(5, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_kappa_threshold_maximal_at_pi_half():
    kwargs = dict(n_samples=1000, n_kicks=1500, resolution=0.1, seed=2)
    kc_mid = kappa_threshold(np.pi / 2, **kwargs)
    assert kc_mid > kappa_threshold(1.0, **kwargs)
    assert kc_mid > kappa_threshold(2.2, **kwargs)


def test_kappa_threshold_mirror_symmetry():
    kwargs = dict(n_samples=1000, n_kicks=1500, resolution=0.1, seed=2)
    kc1 = kappa_threshold(0.9, **kwargs)
    kc2 = kappa_threshold(2 * np.pi - 0.9, **kwargs)
    assert abs(kc1 - kc2) <= 0.2 + 1e-12


def test_kappa_threshold_integrable_raises():
    # needs the full kick count: the regular-orbit estimator floor
    # ln(n)/n must drop below the 0.002 threshold
    with pytest.raises(ValueError):
        kappa_threshold(0.0, n_samples=200, n_kicks=5000)


def test_kappa_threshold_warns_at_the_bisection_floor():
    # 400 kicks leave every tested kappa above the threshold, so the
    # bisection never leaves kappa = 0
    with pytest.warns(RuntimeWarning, match=r"alpha=1\.0 .*n_kicks=400.*5000 kicks"):
        kc = kappa_threshold(1.0, n_samples=20, n_kicks=400)
    assert kc == 10.0 / 512


def test_kappa_threshold_resolved_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kc = kappa_threshold(np.pi / 2, n_samples=200)  # the default 5000 kicks
    assert kc > 0.05


def test_portrait_fixed_points_at_trivial_params():
    phi, theta, orbit = phase_portrait(params(0.0, 0.0), n_orbits=7, n_kicks=20, seed=1)
    assert phi.size == 7 * 21 and orbit.max() == 6
    for k in range(7):
        mask = orbit == k
        assert np.ptp(theta[mask]) < 1e-12
        assert np.ptp(phi[mask]) < 1e-12


def test_portrait_regular_orbits_conserve_theta_band():
    # alpha=0 keeps theta fixed for every orbit regardless of kappa
    phi, theta, orbit = phase_portrait(params(0.0, 5.0), n_orbits=5, n_kicks=50, seed=1)
    for k in range(5):
        assert np.ptp(theta[orbit == k]) < 1e-10


def test_portrait_points_follow_classical_step():
    # 41 points per orbit fill two record blocks; the angles are compared bit for bit
    p = params(kappa=7.0)
    n_orbits, n_kicks = 6, 40
    assert n_kicks + 1 > classical.RECORD_KICKS
    phi, theta, orbit = phase_portrait(p, n_orbits=n_orbits, n_kicks=n_kicks, seed=4)
    theta0, phi0 = haar_sphere(n_orbits, rng_for_task(4))
    s = np.stack(
        [np.sin(theta0) * np.cos(phi0), np.sin(theta0) * np.sin(phi0), np.cos(theta0)], axis=1
    )
    points = []
    for _ in range(n_kicks + 1):
        points.append([np.arctan2(s[:, 1], s[:, 0]) % (2 * np.pi), np.arccos(np.clip(s[:, 2], -1.0, 1.0))])
        s = _step_batch(s, p.alpha, p.kappa)
    points = np.array(points)  # (kick, phi/theta, orbit)
    for k in range(n_orbits):
        mask = orbit == k
        got = np.column_stack([phi[mask], theta[mask]])
        assert np.array_equal(got.view(np.uint64), points[:, :, k].view(np.uint64))


def test_phi_wrap_is_remainder_bit_for_bit():
    edges = [-0.0, 0.0, np.pi, -np.pi, 5e-324, -5e-324, np.nextafter(-np.pi, 0),
             np.nextafter(np.pi, 0), -1e-300, np.nan]
    uniform = np.random.default_rng(9).uniform(-np.pi, np.pi, 10**6)
    for phi in (np.array(edges), uniform):
        want = phi % (2 * np.pi)
        got = classical._wrap_phi(phi.copy(), np.empty_like(phi))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------- batched kernel

KAPPAS = st.one_of(st.sampled_from([0.0, 1e-9, 3.0, 7.0]), st.floats(0.0, 12.0))
ALPHAS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-9, np.pi - 1e-9, np.nextafter(np.pi, 0), np.pi,
                     np.nextafter(np.pi, 4), np.pi + 1e-9, 2 * np.pi - 1e-9]),
    st.floats(0.0, 2 * np.pi, exclude_max=True),
)


def reverse_scan(compute, items):
    # runs the chunks last first, as a thread pool may
    done = {i: compute(i, item) for i, item in reversed(list(enumerate(items)))}
    return [done[i] for i in range(len(items))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(ALPHAS, KAPPAS), min_size=1, max_size=5), st.integers(1, 4))
def test_per_trajectory_parameters_match_per_point_calls(pairs, per_point):
    s0 = random_unit_vectors(per_point, seed=len(pairs))
    alpha = np.repeat([a for a, _ in pairs], per_point)
    kappa = np.repeat([k for _, k in pairs], per_point)
    batch = _lyapunov_batch(np.tile(s0, (len(pairs), 1)), alpha, kappa, 30, 5, scan=reverse_scan)
    single = np.concatenate([_lyapunov_batch(s0, a, k, 30, 5) for a, k in pairs])
    assert np.array_equal(batch, single)


def test_chunks_on_more_threads_than_cores(monkeypatch):
    # each chunk writes only its own rows of the shared outputs
    monkeypatch.setattr(classical, "CHUNK_TRAJECTORIES", 7)
    points = [params(a, k) for a, k in ((ALPHA, 2.0), (1.0, 3.0), (np.pi / 2, 7.0))]
    serial = (averaged_lyapunov(points, n_samples=20, n_kicks=60, seed=1),
              phase_portrait(points, n_orbits=20, n_kicks=40, seed=1))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:

            def scan(compute, items):
                return list(pool.map(compute, range(len(items)), items, timeout=120))

            threaded = (averaged_lyapunov(points, n_samples=20, n_kicks=60, seed=1, scan=scan),
                        phase_portrait(points, n_orbits=20, n_kicks=40, seed=1, scan=scan))
    finally:
        sys.setswitchinterval(switch)
    assert threaded[0] == serial[0]
    for a, b in zip(threaded[1], serial[1]):
        assert all(np.array_equal(u, v) for u, v in zip(a, b))


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_batched_recipes_independent_of_chunk_size(monkeypatch, chunk):
    points = [params(a, k) for a, k in ((ALPHA, 0.0), (1.0, 3.0), (np.pi, 7.0), (2.5, 3.0))]
    spec = GridSpec(n_phi=3, n_theta=4)
    runs = []
    for size in (classical.CHUNK_TRAJECTORIES, chunk):
        monkeypatch.setattr(classical, "CHUNK_TRAJECTORIES", size)
        runs.append((
            averaged_lyapunov(points, n_samples=5, n_kicks=40, seed=3, n_transient=10),
            [f.grid for f in lyapunov_field(points, spec, n_kicks=40, n_transient=10)],
            phase_portrait(points, n_orbits=5, n_kicks=12, seed=3, scan=reverse_scan),
        ))
    (avg0, fields0, portraits0), (avg1, fields1, portraits1) = runs
    assert avg0 == avg1
    assert all(np.array_equal(a, b) for a, b in zip(fields0, fields1))
    for a, b in zip(portraits0, portraits1):
        assert all(np.array_equal(u, v) for u, v in zip(a, b))


def test_batched_recipes_match_one_point_calls():
    points = [params(a, k) for a, k in ((ALPHA, 0.0), (1e-9, 3.0), (np.pi, 7.0), (ALPHA, 7.0))]
    avgs = averaged_lyapunov(points, n_samples=6, n_kicks=50, seed=2, task_index=4)
    assert avgs == [
        averaged_lyapunov(p, n_samples=6, n_kicks=50, seed=2, task_index=4 + i)
        for i, p in enumerate(points)
    ]
    spec = GridSpec(n_phi=4, n_theta=3)
    fields = lyapunov_field(points, spec, n_kicks=50)
    for f, p in zip(fields, points):
        assert f.grid_spec == spec
        assert np.array_equal(f.grid, lyapunov_field(p, spec, n_kicks=50).grid)
    for got, p in zip(phase_portrait(points, n_orbits=4, n_kicks=9, seed=5), points):
        want = phase_portrait(p, n_orbits=4, n_kicks=9, seed=5)
        assert all(np.array_equal(u, v) for u, v in zip(got, want))


def per_kick_portrait(p, n_orbits, n_kicks, seed):
    # the angles taken after every kick, one column of the outputs at a time
    theta0, phi0 = haar_sphere(n_orbits, rng_for_task(seed))
    pts = classical._unit_vectors(theta0, phi0).T.copy()[:, None]  # one row: the points
    x, y, z = pts[:, 0]
    scratch = np.empty((5, n_orbits))
    phis = np.empty((n_orbits, n_kicks + 1))
    thetas = np.empty((n_orbits, n_kicks + 1))
    for n in range(n_kicks + 1):
        phis[:, n] = np.arctan2(y, x) % (2 * np.pi)
        thetas[:, n] = np.arccos(np.clip(z, -1.0, 1.0))
        if n < n_kicks:
            classical._kick(pts, np.sin(p.alpha), np.cos(p.alpha), p.kappa, scratch)
    return phis.ravel(), thetas.ravel(), np.repeat(np.arange(n_orbits), n_kicks + 1)


@pytest.mark.parametrize("n_kicks", [0, 1, 31, 32, 33, 300])
def test_blocked_portrait_matches_per_kick_recording(n_kicks):
    assert classical.RECORD_KICKS == 32
    points = [params(0.0, 5.0), params(kappa=0.0), params(kappa=3.0), params(np.pi, 7.0)]
    portraits = phase_portrait(points, n_orbits=9, n_kicks=n_kicks, seed=6)
    for got, p in zip(portraits, points):
        want = per_kick_portrait(p, 9, n_kicks, 6)
        assert all(np.array_equal(u, v) for u, v in zip(got, want))
    single = phase_portrait(points[2], n_orbits=9, n_kicks=n_kicks, seed=6)
    assert all(np.array_equal(u, v) for u, v in zip(single, per_kick_portrait(points[2], 9, n_kicks, 6)))


def bisect_one_alpha(alpha, threshold, n_samples, n_kicks, seed, resolution=0.05, kappa_max=10.0):
    """The per-alpha bisection: (kappa_c, stayed at the floor)."""

    def mean(kappa):
        p = KickedTopParams(alpha=alpha, kappa=kappa, j=1)
        return averaged_lyapunov(p, n_samples=n_samples, n_kicks=n_kicks, seed=seed).mean

    if mean(kappa_max) < threshold:
        raise ValueError(f"no crossing at alpha={alpha}")
    lo, hi = 0.0, kappa_max
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if mean(mid) >= threshold:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), lo == 0.0


@pytest.mark.parametrize(
    "threshold, n_kicks, resolution, kappa_max",
    [(0.05, 300, 0.05, 10.0), (0.002, 400, 0.05, 10.0), (0.05, 300, 0.3, 10.0),
     (0.05, 300, 0.07, 9.7), (0.02, 300, 0.01, 0.3 * 29)],
)
def test_lockstep_kappa_threshold_matches_per_alpha_bisection(threshold, n_kicks, resolution, kappa_max):
    alphas = [1.0, np.pi / 2, 2.2, 0.9, 4.0]
    kwargs = dict(threshold=threshold, n_samples=30, n_kicks=n_kicks, seed=4, resolution=resolution,
                  kappa_max=kappa_max)
    expected = [bisect_one_alpha(a, threshold, 30, n_kicks, 4, resolution, kappa_max) for a in alphas]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = kappa_threshold(alphas, scan=reverse_scan, **kwargs)
    assert got == [kc for kc, _ in expected]
    floored = [a for a, (_, floor) in zip(alphas, expected) if floor]
    assert [w.category for w in caught] == [RuntimeWarning] * len(floored)
    for w, a in zip(caught, floored):
        assert f"alpha={a} is the bisection floor" in str(w.message)
    # one angle alone gives a float, the same as its entry in the lockstep list
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert kappa_threshold(alphas[1], **kwargs) == got[1]


def test_lockstep_kappa_threshold_has_mixed_floors():
    # the last tested kappa is 10/256; there these angles read 3.285e-3, 3.236e-3,
    # 3.184e-3 and 3.271e-3, so alpha = 0.9 and 2.2 stay at the floor and the others resolve
    alphas = [0.9, 0.1, 3.0, 2.2]
    expected = [bisect_one_alpha(a, 0.00326, 30, 300, 1) for a in alphas]
    assert [floor for _, floor in expected] == [True, False, False, True]
    with pytest.warns(RuntimeWarning) as caught:
        got = kappa_threshold(alphas, threshold=0.00326, n_samples=30, n_kicks=300, seed=1)
    assert [str(w.message).split(" is ")[0] for w in caught] == [
        "kappa_c at alpha=0.9", "kappa_c at alpha=2.2"
    ]
    assert got == [kc for kc, _ in expected]


def test_lockstep_kappa_threshold_stops_each_alpha_on_its_own_interval():
    # from kappa_max = 3.1 the halved intervals round differently: after two levels
    # alpha = 2.5 spans 0.7749999999999999 and alpha = 0.9 and 2.2 span
    # 0.7750000000000001, so at this resolution alpha = 2.5 stops a level earlier
    kwargs = dict(threshold=0.05, n_samples=30, n_kicks=300, seed=4, resolution=0.7749999999999999,
                  kappa_max=3.1)
    alphas = [2.5, 0.9, 2.2]
    expected = [bisect_one_alpha(a, 0.05, 30, 300, 4, 0.7749999999999999, 3.1) for a in alphas]
    assert kappa_threshold(alphas, **kwargs) == [kc for kc, _ in expected]


def test_lockstep_kappa_threshold_first_alpha_without_crossing_raises():
    kwargs = dict(threshold=0.5, n_samples=30, n_kicks=300, seed=0)
    for alphas, culprit in (([1.0, 0.0], 0.0), ([1.0, np.pi, 0.0], np.pi), ([0.0, np.pi], 0.0)):
        for a in alphas:
            if a == culprit:
                with pytest.raises(ValueError):
                    bisect_one_alpha(a, 0.5, 30, 300, 0)
        with pytest.raises(ValueError, match=f"at alpha={culprit}$"):
            kappa_threshold(alphas, **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_phi=-1, n_theta=5),
        dict(n_phi=5, n_theta=0),
        dict(n_phi=2.5, n_theta=5),
        dict(n_phi=5, n_theta=True),
        dict(phi_range=(1.0, 1.0)),
        dict(phi_range=(2.0, 1.0)),
        dict(phi_range=(0.0, np.inf)),
        dict(theta_range=(np.nan, 1.0)),
        dict(theta_range=(0.0, 4.0)),
        dict(theta_range=(-0.1, 1.0)),
    ],
)
def test_grid_spec_rejects_bad_sizes_and_ranges(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


@pytest.mark.parametrize(
    "spec, solved",
    [
        (GridSpec(n_phi=4, n_theta=3), 6),
        (GridSpec(n_phi=5, n_theta=7), 18),
        (GridSpec(n_phi=1, n_theta=1), 1),
        (GridSpec(n_phi=6, n_theta=4, phi_range=(0.5, 2 * np.pi - 0.5)), 12),
        (GridSpec(n_phi=4, n_theta=4, theta_range=(0.5, np.pi - 0.5)), 8),
        (GridSpec(n_phi=4, n_theta=3, phi_range=(0.0, np.pi)), 12),
        (GridSpec(n_phi=4, n_theta=3, theta_range=(0.0, 3.0)), 12),
    ],
)
def test_grid_spec_solves_half_of_a_mirror_symmetric_grid(spec, solved):
    assert spec.solved_cells() == solved
    if solved < spec.n_phi * spec.n_theta:
        # the parity (phi, theta) -> (2 pi - phi, pi - theta) reverses the phi-major mesh
        phi, theta = spec.mesh()
        np.testing.assert_allclose(phi[::-1], 2 * np.pi - phi, atol=1e-12)
        np.testing.assert_allclose(theta[::-1], np.pi - theta, atol=1e-12)


@pytest.mark.parametrize("kappa, alpha", [(0.4, ALPHA), (3.0, 1.0), (7.0, 2.5)])
def test_kick_is_bitwise_parity_equivariant(kappa, alpha):
    # R = diag(1, -1, -1) on the points and on the tangents, renormalized by their
    # norm: the two batches stay exact mirrors, kick after kick; each batch holds
    # its points in row 0 and their tangents in row 1
    batch = np.stack([random_unit_vectors(200, seed=5).T, random_unit_vectors(200, seed=6).T], axis=1)
    mirror = batch * [[[1.0]], [[-1.0]], [[-1.0]]]
    (s, d), (ms, md) = batch.transpose(1, 0, 2), mirror.transpose(1, 0, 2)
    scratch = np.empty((7, 200))
    for _ in range(600):
        for pt, tg in ((batch, d), (mirror, md)):
            classical._kick(pt, np.sin(alpha), np.cos(alpha), kappa, scratch)
            tg /= np.sqrt((tg[0] * tg[0] + tg[1] * tg[1]) + tg[2] * tg[2])
        assert np.array_equal(ms[0], s[0]) and np.array_equal(ms[1:], -s[1:])
        assert np.array_equal(md[0], d[0]) and np.array_equal(md[1:], -d[1:])


def per_coordinate_kick(x, y, z, sa, ca, kappa, scratch, tangent):
    # the kick as it was before its rows were stacked: points and tangents
    # in separate coordinate arrays, one ufunc per operation
    wy, sx, cx, t, u = scratch
    np.multiply(ca, y, out=wy)
    np.multiply(sa, z, out=t)
    np.subtract(wy, t, out=wy)
    np.multiply(sa, y, out=sx)
    np.multiply(ca, z, out=t)
    np.add(sx, t, out=z)
    np.multiply(kappa, z, out=t)
    np.cos(t, out=cx)
    np.sin(t, out=sx)
    np.multiply(sx, wy, out=t)
    np.multiply(sx, x, out=y)
    np.multiply(cx, x, out=x)
    np.subtract(x, t, out=x)
    np.multiply(cx, wy, out=t)
    np.add(y, t, out=y)
    dx, dy, dz = tangent
    dwy = wy
    np.multiply(ca, dy, out=dwy)
    np.multiply(sa, dz, out=t)
    np.subtract(dwy, t, out=dwy)
    np.multiply(sa, dy, out=t)
    np.multiply(ca, dz, out=dy)
    np.add(t, dy, out=dz)
    np.multiply(kappa, dz, out=u)
    np.multiply(sx, dx, out=dy)
    np.multiply(cx, dwy, out=t)
    np.add(dy, t, out=dy)
    np.multiply(x, u, out=t)
    np.add(dy, t, out=dy)
    np.multiply(cx, dx, out=dx)
    np.multiply(sx, dwy, out=t)
    np.subtract(dx, t, out=dx)
    np.multiply(y, u, out=t)
    np.subtract(dx, t, out=dx)


@pytest.mark.parametrize("per_trajectory", [False, True])
def test_stacked_kick_keeps_the_per_coordinate_bits(per_trajectory):
    n = 300
    rng = np.random.default_rng(9)
    if per_trajectory:
        alpha, kappa = rng.uniform(0.0, 2 * np.pi, n), rng.uniform(0.0, 10.0, n)
    else:
        alpha, kappa = 1.3, 7.0
    sa, ca = np.sin(alpha), np.cos(alpha)
    s, d = random_unit_vectors(n, seed=10).T.copy(), random_unit_vectors(n, seed=11).T.copy()
    batch = np.stack([s, d], axis=1)  # x, y, z; row 0 the points, row 1 their tangents
    points = s[:, None].copy()  # one row: the points alone
    scratch, work = np.empty((5, n)), np.empty((7, n))
    for _ in range(500):
        per_coordinate_kick(*s, sa, ca, kappa, scratch, d)
        classical._kick(batch, sa, ca, kappa, work)
        classical._kick(points, sa, ca, kappa, work)
        assert np.array_equal(batch[:, 0], s) and np.array_equal(batch[:, 1], d)
        assert np.array_equal(points[:, 0], s)
        # the same renormalization on both sides keeps the tangents finite
        for tg in (d, batch[:, 1]):
            tg /= np.sqrt((tg[0] * tg[0] + tg[1] * tg[1]) + tg[2] * tg[2])


@pytest.mark.parametrize("n_phi, n_theta", [(4, 3), (5, 7), (1, 1), (2, 1)])
def test_lyapunov_field_solves_half_and_mirrors_it(n_phi, n_theta):
    spec = GridSpec(n_phi=n_phi, n_theta=n_theta)
    points = [params(kappa=3.0), params(alpha=1.0, kappa=7.0)]
    phi, theta = spec.mesh()
    solved = spec.solved_cells()
    for p, f in zip(points, lyapunov_field(points, spec, n_kicks=300)):
        lam = f.grid.ravel()
        assert np.array_equal(lam, lam[::-1])
        own = _lyapunov_batch(classical._unit_vectors(theta[:solved], phi[:solved]), p.alpha, p.kappa, 300)
        assert np.array_equal(lam[:solved], own)


def test_lyapunov_field_on_an_asymmetric_grid_solves_every_cell():
    spec = GridSpec(n_phi=4, n_theta=3, phi_range=(0.0, np.pi))
    phi, theta = spec.mesh()
    field = lyapunov_field(params(kappa=3.0), spec, n_kicks=300)
    own = _lyapunov_batch(classical._unit_vectors(theta, phi), ALPHA, 3.0, 300)
    assert np.array_equal(field.grid.ravel(), own)
    assert not np.array_equal(own, own[::-1])
