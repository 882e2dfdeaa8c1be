"""Command-line driver: parameter scans, figure-style data recipes,
deterministic seeding, and CSV/manifest emission.

Subcommands: portrait, lyapunov, spectrum, multifractal, coeffdist.
Common flags: --j, --kappa (value, comma list, or start:stop:step),
--alpha, --seed, --threads, --out, --config.  Exit codes: 0 success,
1 usage error, 2 numerical failure.

Option precedence: command-line flags beat the config file, which beats
the built-in defaults copied from the standard figure recipes.  The
config file holds ``key = value`` lines ('#' comments allowed), keys
named like the long options without the leading dashes; an unknown key,
or a value the matching flag would reject, is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from decimal import ROUND_CEILING, Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from . import __version__
from .cache import cached_eigensystem
from .classical import (
    GridSpec,
    averaged_lyapunov,
    haar_sphere,
    kappa_threshold,
    lyapunov_field,
    phase_portrait,
    rng_for_task,
)
from .coeffstats import (
    chisq_cdf,
    chisq_logpdf_form,
    distance_report,
    empirical_log_histogram,
    pool_rescaled,
)
from .floquet import DiagonalizationError, KickedTopParams
from .io import write_csv, write_manifest
from .multifractal import averaged_dq, coherent_weights, dq_field, scaling_fit
from .spectral import fit_brody, ratio_stats, spacings_from_quasienergies
from .spin import SpinBasis

ALPHA_DEFAULT = 4 * np.pi / 7
FIGURE_KAPPAS = "0.4,1.7,3,7"
SCALING_JS = "100,200,300,400,600,800"


class UsageError(ValueError):
    """Malformed flags or config values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _decimal(part: str, text: str) -> Decimal:
    try:
        value = Decimal(part)
    except InvalidOperation:
        raise UsageError(f"cannot parse values {text!r}") from None
    if not value.is_finite():
        raise UsageError(f"range bounds must be finite, got {text!r}")
    return value


def parse_values(text: str) -> np.ndarray:
    """Parse a scan spec: single value, comma list, or start:stop:step.

    A range steps in exact decimal arithmetic on the digits as written,
    so 0.2:1:0.2 gives 0.6, not 0.6000000000000001, and matches the same
    value given in a comma list.  It holds every start + i*step below
    stop + step/2, so stop is included."""
    text = str(text).strip()
    if ":" in text:
        parts = [_decimal(p, text) for p in text.split(":")]
        if len(parts) != 3:
            raise UsageError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = parts
        if step <= 0 or stop < start:
            raise UsageError(f"bad range {text!r}")
        count = int(((stop - start) / step + Decimal("0.5")).to_integral_value(ROUND_CEILING))
        return np.array([float(start + i * step) for i in range(count)])
    try:
        values = np.array([float(p) for p in text.split(",") if p.strip() != ""])
    except ValueError as exc:
        raise UsageError(f"cannot parse values {text!r}: {exc}") from exc
    if values.size == 0:
        raise UsageError(f"empty value list {text!r}")
    return values


def _scan_str(text: str) -> str:
    """argparse validator: check the scan spec now, keep the raw string."""
    parse_values(text)
    return text


def load_config(path) -> dict:
    try:
        content = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    cfg = {}
    for raw in content.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def validate_config(cfg: dict, parser: argparse.ArgumentParser) -> dict:
    """Convert config values as the subcommand's flags would be.

    Every key must name a long option of the subcommand (``config`` and
    ``help`` excepted); each value goes through that option's ``type``
    and ``choices``, and on/off flags take true/false.  Any violation is
    a UsageError naming the key.
    """
    options = {
        a.option_strings[-1][2:]: a
        for a in parser._actions
        if a.option_strings and a.option_strings[-1][2:] not in ("config", "help")
    }
    out = {}
    for key, text in cfg.items():
        action = options.get(key)
        if action is None:
            raise UsageError(f"unknown config key {key!r}")
        if action.nargs == 0:
            if text.lower() not in _BOOLEANS:
                raise UsageError(f"config key {key!r}: expected true or false, got {text!r}")
            out[key] = _BOOLEANS[text.lower()]
            continue
        try:
            value = action.type(text) if action.type else text
        except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"config key {key!r}: invalid value {text!r}") from exc
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(str, action.choices))
            raise UsageError(f"config key {key!r}: invalid choice {text!r} (choose from {choices})")
        out[key] = value
    return out


def add_common(parser):
    parser.add_argument("--j", type=int, help="spin quantum number (integer)")
    parser.add_argument("--kappa", type=_scan_str, help="kick strength: value, comma list, or start:stop:step")
    parser.add_argument("--alpha", type=float, help="precession angle in radians (default 4pi/7)")
    parser.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    parser.add_argument("--threads", type=int, help="worker threads (default: available cores)")
    parser.add_argument("--out", help="output directory (default: ./out)")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--no-cache", action="store_true", default=None, help="disable the eigensystem cache")


class Run:
    """Resolved configuration plus bookkeeping for one CLI invocation."""

    def __init__(self, args):
        self.args = args
        self.cfg = validate_config(load_config(args.config), args.options) if args.config else {}
        self.command = args.command
        self.seed = int(self.pick("seed", 0))
        self.threads = int(self.pick("threads", os.cpu_count() or 1))
        self.out = Path(self.pick("out", "out"))
        self.alpha = float(self.pick("alpha", ALPHA_DEFAULT))
        self.files: list[str] = []
        self.t0 = time.perf_counter()
        self.resolved = {"alpha": self.alpha, "seed": self.seed, "threads": self.threads}

    def pick(self, name, default, conv=None):
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is None:
            value = self.cfg.get(name)
        if value is None:
            value = default
        if conv is not None and isinstance(value, str):
            value = conv(value)
        return value

    def opt(self, name, default, conv=float):
        """Resolve an option and record it for the metadata header."""
        value = self.pick(name, default, conv)
        self.resolved[name] = value
        return value

    def count(self, name, default, minimum) -> int:
        """Resolve an integer option that must be at least ``minimum``."""
        value = int(self.opt(name, default, int))
        if value < minimum:
            raise UsageError(f"--{name} must be at least {minimum}, got {value}")
        return value

    def kappas(self, default=FIGURE_KAPPAS) -> np.ndarray:
        values = self.pick("kappa", default)
        values = parse_values(values) if isinstance(values, str) else np.asarray(values)
        self.resolved["kappa"] = ",".join(repr(float(v)) for v in values)
        return values

    def cache_dir(self):
        return None if self.pick("no-cache", False) else self.out / "cache"

    def metadata(self, **extra) -> dict:
        meta = {"tool": f"kickedtop {__version__}", "command": self.command}
        meta.update({k: self.resolved[k] for k in sorted(self.resolved)})
        meta.update(extra)
        return meta

    def emit(self, name, columns, **extra):
        path = write_csv(self.out / name, columns, self.metadata(**extra))
        self.files.append(str(path))
        return path

    def parallel(self, fn, items):
        if self.threads <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return list(pool.map(fn, items))

    def finish(self) -> int:
        manifest = {
            "tool_version": __version__,
            "command": self.command,
            "config": {k: str(v) for k, v in self.resolved.items()},
            "seed": self.seed,
            "files": self.files,
            "wall_time_s": round(time.perf_counter() - self.t0, 3),
        }
        write_manifest(self.out / f"{self.command}_manifest.json", manifest)
        return 0


def _ktag(value: float) -> str:
    return ("%g" % value).replace(".", "p").replace("-", "m")


def _params(alpha: float, kappa: float, j: int) -> KickedTopParams:
    """Build params, mapping domain violations to usage errors."""
    try:
        return KickedTopParams(alpha=alpha, kappa=kappa, j=j)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------- portrait


def cmd_portrait(args) -> int:
    run = Run(args)
    kappas = run.kappas()
    orbits = run.count("orbits", 289, 1)
    kicks = run.count("kicks", 300, 0)
    j = int(run.opt("j", 1, int))  # classical map: j only recorded for provenance
    for kappa in kappas:
        params = _params(run.alpha, float(kappa), j)
        phi, theta, orbit = phase_portrait(params, n_orbits=orbits, n_kicks=kicks, seed=run.seed)
        run.emit(
            f"portrait_kappa{_ktag(kappa)}.csv",
            {"phi": phi, "theta": theta, "orbit_id": orbit},
            kappa=repr(float(kappa)),
        )
    return run.finish()


# ---------------------------------------------------------------- lyapunov


def cmd_lyapunov(args) -> int:
    run = Run(args)
    mode = run.opt("mode", "field", str)
    kicks = run.count("kicks", 5000, 1)
    j = int(run.opt("j", 1, int))  # classical map: j only recorded for provenance
    if mode == "field":
        n_grid = run.count("grid", 200, 1)
        for kappa in run.kappas():
            params = _params(run.alpha, float(kappa), j)
            field = lyapunov_field(params, GridSpec(n_phi=n_grid, n_theta=n_grid), n_kicks=kicks)
            phi, theta = field.grid_spec.mesh()
            run.emit(
                f"lyapunov_field_kappa{_ktag(kappa)}.csv",
                {"phi": phi, "theta": theta, "lambda": field.grid.ravel()},
                kappa=repr(float(kappa)),
            )
    elif mode == "scan":
        kappas = run.kappas("0:10:0.5")
        alphas = parse_values(str(run.opt("alpha-grid", "0.1:6.2:0.2", str)))
        samples = run.count("samples", 1000, 2)  # a standard error needs two samples
        # kappa_threshold finds no crossing on the integrable lines alpha = 0, pi, 2pi
        kc_alphas = [a for a in alphas if min(abs(a), abs(a - np.pi), abs(a - 2 * np.pi)) > 0.05]
        if run.pick("kappa-c", False) and not kc_alphas:
            raise UsageError("--kappa-c needs an alpha at least 0.05 away from 0, pi and 2pi")
        points = [
            (idx, float(k), float(a))
            for idx, (k, a) in enumerate((k, a) for a in alphas for k in kappas)
        ]

        def one(point):
            idx, kappa, alpha = point
            params = _params(alpha, kappa, j)
            avg = averaged_lyapunov(
                params, n_samples=samples, n_kicks=kicks, seed=run.seed, task_index=idx
            )
            return kappa, alpha, avg.mean, avg.stderr

        rows = run.parallel(one, points)
        arr = np.array(rows)
        run.emit(
            "lyapunov_scan.csv",
            {"kappa": arr[:, 0], "alpha": arr[:, 1], "lambda_bar": arr[:, 2], "stderr": arr[:, 3]},
        )
        if run.pick("kappa-c", False):
            kc = [
                (a, kappa_threshold(float(a), n_samples=samples, n_kicks=kicks, seed=run.seed))
                for a in kc_alphas
            ]
            arr = np.array(kc)
            run.emit("kappa_c.csv", {"alpha": arr[:, 0], "kappa_c": arr[:, 1]})
    else:
        raise UsageError(f"unknown lyapunov mode {mode!r} (expected field or scan)")
    return run.finish()


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(args) -> int:
    run = Run(args)
    j = int(run.opt("j", 1000, int))
    sector = str(run.opt("sector", "even", str))
    bins = np.linspace(0.0, 4.0, run.count("bins", 50, 1) + 1)
    kappas = run.kappas()
    cache = run.cache_dir()

    def one(task):
        idx, kappa = task
        eig = cached_eigensystem(_params(run.alpha, kappa, j), cache)
        nu = eig.sector(sector)
        ens = spacings_from_quasienergies(nu, periodic=True)
        density, _ = np.histogram(ens.spacings, bins=bins, density=True)
        return kappa, fit_brody(ens).beta, ratio_stats(ens.raw_gaps).mean_r, nu.size, density

    results = run.parallel(one, list(enumerate(float(k) for k in kappas)))
    centers = 0.5 * (bins[:-1] + bins[1:])
    for kappa, _, _, _, density in results:
        run.emit(
            f"pspacing_kappa{_ktag(kappa)}.csv",
            {"bin_center": centers, "density": density},
            kappa=repr(kappa),
            sector=sector,
            eigenphase_convention="F|v> = exp(+i nu)|v>, nu in [-pi, pi)",
        )
    run.emit(
        "spectrum_scan.csv",
        {
            "kappa": [r[0] for r in results],
            "beta": [r[1] for r in results],
            "mean_r": [r[2] for r in results],
            "n_levels": [r[3] for r in results],
        },
        sector=sector,
    )
    return run.finish()


# ------------------------------------------------------------ multifractal


def _q_label(q) -> str:
    return "Dinf" if np.isinf(q) else ("D%g" % q)


def _parse_qs(text: str) -> tuple:
    qs = []
    for part in str(text).split(","):
        part = part.strip().lower()
        try:
            q = np.inf if part in ("inf", "infinity") else float(part)
        except ValueError as exc:
            raise UsageError(f"cannot parse q value {part!r}") from exc
        if not q >= 0:
            raise UsageError(f"q values must be >= 0, got {part!r}")
        qs.append(q)
    return tuple(qs)


def cmd_multifractal(args) -> int:
    run = Run(args)
    mode = run.opt("mode", "field", str)
    qs = _parse_qs(run.opt("q", "1,2,inf", str))
    samples = run.count("samples", 10_000, 2)  # a standard error needs two samples
    cache = run.cache_dir()

    if mode == "field":
        j = int(run.opt("j", 150, int))
        n_grid = run.count("grid", 100, 1)
        basis = SpinBasis(j)
        for kappa in run.kappas():
            eig = cached_eigensystem(_params(run.alpha, float(kappa), j), cache)
            field = dq_field(basis, eig, GridSpec(n_phi=n_grid, n_theta=n_grid), qs)
            phi, theta = field.grid_spec.mesh()
            columns = {"phi": phi, "theta": theta}
            for q in qs:
                columns[_q_label(q)] = field.component(q).ravel()
            run.emit(f"dq_field_kappa{_ktag(kappa)}.csv", columns, kappa=repr(float(kappa)))
    elif mode == "scan":
        js = [int(v) for v in parse_values(str(run.opt("j-list", "50,100,150,200", str)))]
        kappas = run.kappas("0.2:8:0.2")
        tasks = [
            (idx, j, float(kappa))
            for idx, (j, kappa) in enumerate((j, k) for j in js for k in kappas)
        ]

        def one(task):
            idx, j, kappa = task
            eig = cached_eigensystem(_params(run.alpha, kappa, j), cache)
            res = averaged_dq(SpinBasis(j), eig, samples, qs, seed=run.seed, task_index=idx)
            return [(kappa, j, 2 * j + 1, q, res.D_q[l], res.stderr[l]) for l, q in enumerate(qs)]

        rows = [row for chunk in run.parallel(one, tasks) for row in chunk]
        run.emit(
            "multifractal_scan.csv",
            {
                "kappa": [r[0] for r in rows],
                "j": [r[1] for r in rows],
                "N": [r[2] for r in rows],
                "q": [("inf" if np.isinf(r[3]) else repr(float(r[3]))) for r in rows],
                "Dq_mean": [r[4] for r in rows],
                "stderr": [r[5] for r in rows],
            },
        )
    elif mode == "scaling":
        kappas = run.kappas("7")
        if kappas.size != 1:
            raise UsageError("scaling mode expects a single --kappa value")
        kappa = float(kappas[0])
        js = [int(v) for v in parse_values(str(run.opt("j-list", SCALING_JS, str)))]

        def one(task):
            idx, j = task
            eig = cached_eigensystem(_params(run.alpha, kappa, j), cache)
            return averaged_dq(SpinBasis(j), eig, samples, qs, seed=run.seed, task_index=idx)

        results = run.parallel(one, list(enumerate(js)))
        point_rows, fit_rows = [], []
        for l, q in enumerate(qs):
            pts = [(2 * j + 1, res.D_q[l]) for j, res in zip(js, results)]
            for (n, dq), j, res in zip(pts, js, results):
                point_rows.append((j, n, q, dq, res.stderr[l]))
            fit = scaling_fit(pts, "linear_in_invlogN")
            fit_rows.append((_q_label(q), fit.model, fit.intercept, fit.slope, fit.residual))
            if np.isinf(q):
                fit = scaling_fit(pts, "loglog_in_invlogN")
                fit_rows.append((_q_label(q), fit.model, fit.intercept, fit.slope, fit.residual))
        run.emit(
            "scaling_points.csv",
            {
                "j": [r[0] for r in point_rows],
                "N": [r[1] for r in point_rows],
                "q": [("inf" if np.isinf(r[2]) else repr(float(r[2]))) for r in point_rows],
                "Dq_mean": [r[3] for r in point_rows],
                "stderr": [r[4] for r in point_rows],
            },
            kappa=repr(kappa),
        )
        run.emit(
            "scaling_fits.csv",
            {
                "q": [r[0] for r in fit_rows],
                "model": [r[1] for r in fit_rows],
                "intercept": [r[2] for r in fit_rows],
                "slope": [r[3] for r in fit_rows],
                "residual": [r[4] for r in fit_rows],
            },
            kappa=repr(kappa),
        )
    else:
        raise UsageError(f"unknown multifractal mode {mode!r} (expected field, scan, or scaling)")
    return run.finish()


# -------------------------------------------------------------- coeffdist


def cmd_coeffdist(args) -> int:
    run = Run(args)
    nu = int(run.opt("nu", 2, int))
    samples = run.count("samples", 10_000, 1)
    js = [int(v) for v in parse_values(str(run.opt("j-list", "150", str)))]
    kappas = [float(k) for k in run.kappas()]
    cache = run.cache_dir()
    tasks = [
        (idx, j, kappa) for idx, (j, kappa) in enumerate((j, k) for j in js for k in kappas)
    ]

    def one(task):
        idx, j, kappa = task
        eig = cached_eigensystem(_params(run.alpha, kappa, j), cache)
        theta, phi = haar_sphere(samples, rng_for_task(run.seed, idx))
        pool = pool_rescaled(coherent_weights(SpinBasis(j), eig, theta, phi))
        return j, kappa, pool

    results = run.parallel(one, tasks)
    scan_rows = []
    for j, kappa, pool in results:
        hist = empirical_log_histogram(pool)
        run.emit(
            f"lnx_hist_j{j}_kappa{_ktag(kappa)}.csv",
            {
                "lnx_bin": hist.centers,
                "density": hist.density,
                "reference_density": chisq_logpdf_form(np.exp(hist.centers), nu, pool.mean_x),
            },
            j=j,
            kappa=repr(kappa),
            nu=nu,
            zeros_excluded=hist.n_zero_excluded,
        )
        xs = np.sort(pool.x[pool.x > 0])
        grid = np.linspace(xs[0], xs[-1], 512)
        f_emp = np.searchsorted(xs, grid, side="right") / xs.size
        run.emit(
            f"cdf_j{j}_kappa{_ktag(kappa)}.csv",
            {"x": grid, "F_emp": f_emp, "F_ref": chisq_cdf(grid, nu, pool.mean_x)},
            j=j,
            kappa=repr(kappa),
            nu=nu,
        )
        report = distance_report(pool, nu)
        scan_rows.append((kappa, j, report.skld, report.rmse))
    run.emit(
        "coeffdist_scan.csv",
        {
            "kappa": [r[0] for r in scan_rows],
            "j": [r[1] for r in scan_rows],
            "skld": [r[2] for r in scan_rows],
            "rmse": [r[3] for r in scan_rows],
        },
        nu=nu,
    )
    return run.finish()


# ------------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(prog="kickedtop", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"kickedtop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("portrait", help="classical phase-space portraits")
    add_common(p)
    p.add_argument("--orbits", type=int, help="number of random initial conditions (289)")
    p.add_argument("--kicks", type=int, help="kicks per orbit (300)")
    p.set_defaults(func=cmd_portrait, options=p)

    p = sub.add_parser("lyapunov", help="Lyapunov fields and phase-space averages")
    add_common(p)
    p.add_argument("--mode", choices=["field", "scan"], help="field (default) or scan")
    p.add_argument("--grid", type=int, help="field grid size per side (200)")
    p.add_argument("--kicks", type=int, help="kicks per trajectory (5000)")
    p.add_argument("--samples", type=int, help="initial conditions per scan point (1000)")
    p.add_argument("--alpha-grid", help="alpha range for scan mode (start:stop:step)")
    p.add_argument("--kappa-c", action="store_true", default=None, help="also locate the chaos threshold per alpha")
    p.set_defaults(func=cmd_lyapunov, options=p)

    p = sub.add_parser("spectrum", help="quasienergy spacing statistics")
    add_common(p)
    p.add_argument("--sector", choices=["even", "odd"], help="parity sector (even)")
    p.add_argument("--bins", type=int, help="histogram bins on s in [0,4] (50)")
    p.set_defaults(func=cmd_spectrum, options=p)

    p = sub.add_parser("multifractal", help="fractal dimensions of coherent states")
    add_common(p)
    p.add_argument("--mode", choices=["field", "scan", "scaling"], help="field (default), scan, scaling")
    p.add_argument("--grid", type=int, help="field grid size per side (100)")
    p.add_argument("--q", help="comma list of q orders, 'inf' allowed (1,2,inf)")
    p.add_argument("--samples", type=int, help="coherent states per average (10000)")
    p.add_argument("--j-list", help="comma list of j for scan/scaling modes")
    p.set_defaults(func=cmd_multifractal, options=p)

    p = sub.add_parser("coeffdist", help="expansion-coefficient distributions vs chi^2_nu")
    add_common(p)
    p.add_argument("--nu", type=int, choices=[1, 2, 4], help="reference chi^2 degrees of freedom (2)")
    p.add_argument("--samples", type=int, help="coherent states pooled per point (10000)")
    p.add_argument("--j-list", help="comma list of j values (150)")
    p.set_defaults(func=cmd_coeffdist, options=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"kickedtop: usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, DiagonalizationError, np.linalg.LinAlgError) as exc:
        print(f"kickedtop: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
