"""Output checks: reduce a recipe's CSVs to per-task quantities and compare
them with stored references.

Only CSV files are read, never the eigensystem cache, whose format is
free to change.  Each workload reduces its outputs to
``{task: {quantity: value}}``; a task is one kappa or j of the recipe,
and ``"all"`` holds quantities shared by every task (a failure there
fails them all).  Chaotic outputs (portrait coordinates, per-cell
Lyapunov exponents) are reduced to quantities that a correct reordering
of floating-point operations cannot move past tolerance: counts, ranges,
grid sums, field means and the first few kicks of each orbit.  Some of
them depend on where each value sits (lambda means per block of the
grid, orbit-weighted moments), so values written to the wrong cell or
orbit fail too.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

CHAOTIC_LAMBDA = 0.05  # cells above this count as chaotic
LAMBDA_BLOCKS = 10  # block means of lambda on a LAMBDA_BLOCKS x LAMBDA_BLOCKS (phi, theta) grid
PORTRAIT_KICKS_CHECKED = 5  # kicks 0..4


def read_csv(path: Path) -> tuple[dict, dict]:
    """(metadata, columns as lists of strings) of a '#'-headed CSV.

    Deliberately not kickedtop.io.read_csv: the checks must not trust the
    program under test to read back its own output.
    """
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path.name}: no header row")
    cols = list(zip(*rows)) if rows else [()] * len(header)
    return meta, dict(zip(header, (list(c) for c in cols)))


def _floats(values) -> list:
    return [float(v) for v in values]


def _kappa_task(value) -> str:
    return "kappa=%g" % float(value)


def summarize_spectrum_cold(out: Path) -> dict:
    tasks = {}
    _, scan = read_csv(out / "spectrum_scan.csv")
    for k, beta, r, n in zip(scan["kappa"], scan["beta"], scan["mean_r"], scan["n_levels"]):
        tasks[_kappa_task(k)] = {"beta": float(beta), "mean_r": float(r), "n_levels": int(n)}
    for path in sorted(out.glob("pspacing_kappa*.csv")):
        meta, cols = read_csv(path)
        task = tasks.setdefault(_kappa_task(meta["kappa"]), {})
        task["bin_center"] = _floats(cols["bin_center"])
        task["density"] = _floats(cols["density"])
    return tasks


def summarize_dq_warm(out: Path) -> dict:
    tasks = {}
    _, pts = read_csv(out / "scaling_points.csv")
    for j, n, q, dq, err in zip(pts["j"], pts["N"], pts["q"], pts["Dq_mean"], pts["stderr"]):
        task = tasks.setdefault(f"j={int(j)}", {"N": int(n), "q": [], "Dq_mean": [], "Dq_stderr": []})
        task["q"].append(q)
        task["Dq_mean"].append(float(dq))
        task["Dq_stderr"].append(float(err))
    _, fits = read_csv(out / "scaling_fits.csv")
    tasks["all"] = {
        "fit_labels": [f"{q}/{m}" for q, m in zip(fits["q"], fits["model"])],
        "fit_intercept": _floats(fits["intercept"]),
        "fit_slope": _floats(fits["slope"]),
        "fit_residual": _floats(fits["residual"]),
    }
    return tasks


def summarize_lyapunov_field(out: Path) -> dict:
    tasks = {}
    for path in sorted(out.glob("lyapunov_field_kappa*.csv")):
        meta, cols = read_csv(path)
        lam = np.array(_floats(cols["lambda"]))
        phi, theta = np.array(_floats(cols["phi"])), np.array(_floats(cols["theta"]))
        # blocks are found from each row's own coordinates, so lambda values
        # written against the wrong cells move the block means
        i = np.clip((phi / (2 * np.pi) * LAMBDA_BLOCKS).astype(int), 0, LAMBDA_BLOCKS - 1)
        k = np.clip((theta / np.pi * LAMBDA_BLOCKS).astype(int), 0, LAMBDA_BLOCKS - 1)
        block = i * LAMBDA_BLOCKS + k
        n_blocks = LAMBDA_BLOCKS * LAMBDA_BLOCKS
        counts = np.bincount(block, minlength=n_blocks)
        sums = np.bincount(block, weights=lam, minlength=n_blocks)
        tasks[_kappa_task(meta["kappa"])] = {
            "rows": int(lam.size),
            "phi_sum": math.fsum(phi),
            "theta_sum": math.fsum(theta),
            "block_counts": counts.tolist(),
            "block_lambda_mean": (sums / np.maximum(counts, 1)).tolist(),
            "lambda_mean": float(lam.mean()),
            "lambda_min": float(lam.min()),
            "lambda_max": float(lam.max()),
            "chaotic_frac": float(np.mean(lam > CHAOTIC_LAMBDA)),
        }
    return tasks


def summarize_portrait_csv(out: Path) -> dict:
    tasks = {}
    for path in sorted(out.glob("portrait_kappa*.csv")):
        meta, cols = read_csv(path)
        phi = np.array(_floats(cols["phi"]))
        theta = np.array(_floats(cols["theta"]))
        orbit = np.array([int(v) for v in cols["orbit_id"]])
        n_orbits = int(np.unique(orbit).size)
        per_orbit = phi.size // max(n_orbits, 1)
        layout_ok = phi.size == n_orbits * per_orbit and np.array_equal(
            orbit, np.repeat(np.arange(n_orbits), per_orbit)
        )
        # closed at 2pi: a correct phi of -1e-17 wraps to 2pi under % (2 pi)
        in_range = bool(np.all((phi >= 0) & (phi <= 2 * np.pi) & (theta >= 0) & (theta <= np.pi)))
        task = {
            "rows": int(phi.size),
            "orbits": n_orbits,
            "points_per_orbit": per_orbit,
            "orbit_layout_ok": int(layout_ok),
            "in_range": int(in_range),
        }
        if layout_ok:
            # unit vectors, so a phi wrapping across 0 / 2pi moves nothing
            shape = (n_orbits, per_orbit)
            ph, th = phi.reshape(shape), theta.reshape(shape)
            xyz = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
            # fixed pseudo-random weight per orbit: orbits written in another order move these
            weights = np.random.default_rng(0).standard_normal(n_orbits)
            moments, weighted = [], []
            for k in range(min(PORTRAIT_KICKS_CHECKED, per_orbit)):
                x, y, z = xyz[:, :, k]
                moments.extend(float(np.mean(v)) for v in (x, y, z, x * x, y * y, z * z, x * y, y * z, z * x))
                weighted.extend(float(np.mean(weights * v)) for v in (x, y, z))
            task["kick_moments"] = moments
            task["orbit_weighted_moments"] = weighted
        tasks[_kappa_task(meta["kappa"])] = task
    return tasks


SUMMARIES = {
    "spectrum_cold": summarize_spectrum_cold,
    "dq_warm": summarize_dq_warm,
    "lyapunov_field": summarize_lyapunov_field,
    "portrait_csv": summarize_portrait_csv,
}


def summarize(workload: str, out: Path) -> dict:
    return SUMMARIES[workload](Path(out))


def _within(got, want, tol: dict) -> bool:
    got, want = np.atleast_1d(np.array(got, dtype=object)), np.atleast_1d(np.array(want, dtype=object))
    if got.shape != want.shape:
        return False
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in [*got, *want]):
        return bool(np.all(got == want))
    g, w = got.astype(float), want.astype(float)
    limit = tol.get("atol", 0.0) + tol.get("rtol", 0.0) * np.abs(w)
    return bool(np.all(np.abs(g - w) <= limit))


def compare(summary: dict, reference: dict, tolerances: dict) -> dict:
    """{task: [reasons]} for every task whose outputs miss the reference."""
    failures = {}
    for task in sorted(set(summary) | set(reference)):
        got, want = summary.get(task), reference.get(task)
        if got is None or want is None:
            failures[task] = ["output missing" if got is None else "output not in the reference"]
            continue
        bad = []
        for name in sorted(set(got) | set(want)):
            if name not in tolerances:
                bad.append(f"{name}: no tolerance recorded")
            elif name not in got or name not in want:
                bad.append(f"{name}: missing")
            elif not _within(got[name], want[name], tolerances[name]):
                bad.append(f"{name}: outside tolerance")
        if bad:
            failures[task] = bad
    return failures


def failed_tasks(failures: dict, n_tasks: int) -> int:
    """Operations failed, counting a shared ('all') failure against every task."""
    if "all" in failures:
        return n_tasks
    return min(len(failures), n_tasks)
