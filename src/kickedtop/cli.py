"""Command-line driver: parameter scans, figure-style data recipes,
deterministic seeding, and CSV/manifest emission.

Subcommands: portrait, lyapunov, spectrum, multifractal, coeffdist.
Common flags: --j, --kappa (value, comma list, or start:stop:step),
--alpha, --seed, --threads, --out, --config.  Exit codes: 0 success,
1 usage error, 2 numerical failure.  An option that the chosen mode
does not read, as a flag or a config key, is a usage error
(``Run.unread``), raised before any work.

Every subcommand builds its parameter points up front (``Run.grid``)
and computes them through one driver, ``Run.scan``, on --threads
threads; the classical recipes run all their points as one batch of
trajectories, whose chunks go through ``Run.scan``.  A point's task
index is its position and seeds its random substream, so CSVs do not
depend on the thread count.

Option precedence: command-line flags beat the config file, which beats
the built-in defaults copied from the standard figure recipes.  The
config file holds ``key = value`` lines ('#' comments allowed), keys
named like the long options without the leading dashes.  Each line
becomes the flag it names, and the subcommand's own parser reads those
flags ahead of the command-line ones, so a config value is typed and
checked exactly as its flag is; an unknown key is a usage error.
"""

from __future__ import annotations

import argparse
import itertools
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
    _pool,
    chisq_cdf,
    chisq_logpdf_form,
    distance_report,
    empirical_cdf,
    empirical_log_histogram,
)
from .floquet import SECTORS, DiagonalizationError, FloquetEigensystem, KickedTopParams
from .io import write_csv, write_manifest
from .multifractal import averaged_dq, coherent_weights, dq_field, scaling_fit
from .spectral import fit_brody, ratio_stats, spacings_from_quasienergies

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
    text = text.strip()
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
    if not np.all(np.isfinite(values)):
        raise UsageError(f"values must be finite, got {text!r}")
    return values


def _scan_str(text: str) -> str:
    """argparse validator: check the scan spec now, keep the raw string."""
    parse_values(text)
    return text


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def config_flags(path, parser: argparse.ArgumentParser) -> list[str]:
    """The flags that the ``key = value`` lines of a config file stand for.

    Every key must be the full name of a long option of the subcommand
    (``config`` and ``help`` excepted), so argparse's prefix matching
    never applies to it.  An on/off flag takes true or false, and false
    adds no flag.  Any other value is written ``--key=value``, so the
    parser checks it as it checks the flag, even one that starts with '-'.
    A key given twice keeps its last value.
    """
    try:
        content = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    options = {
        a.option_strings[-1][2:]: a
        for a in parser._actions
        if a.option_strings and a.option_strings[-1][2:] not in ("config", "help")
    }
    flags = {}
    for raw in content.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in options:
            raise UsageError(f"unknown config key {key!r}")
        if options[key].nargs != 0:
            flags[key] = f"--{key}={text}"
        elif text.lower() not in _BOOLEANS:
            raise UsageError(f"config key {key!r}: expected true or false, got {text!r}")
        else:
            flags[key] = f"--{key}" if _BOOLEANS[text.lower()] else ""
    return [flag for flag in flags.values() if flag]


def add_command(sub, name, func, summary) -> _Parser:
    """The subcommand ``name``, run by ``func``, with the flags common to all."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(func=func, options=parser)
    parser.add_argument("--j", type=int, help="spin quantum number (integer)")
    parser.add_argument("--kappa", type=_scan_str, help="kick strength: value, comma list, or start:stop:step")
    parser.add_argument("--alpha", type=float, help="precession angle in radians (default 4pi/7)")
    parser.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    parser.add_argument("--threads", type=int, help="worker threads (default: available cores)")
    parser.add_argument("--out", help="output directory (default: ./out)")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--no-cache", action="store_true", default=None, help="disable the eigensystem cache")
    return parser


class Run:
    """Resolved configuration plus bookkeeping for one CLI invocation.

    The parity sector is the unit of eigensystem work: ``cached_eigensystem``
    reads or solves one sector, which is all ``spectrum`` asks for, and
    ``eigensystem`` builds the full ``FloquetEigensystem`` of a point from
    two such calls for the coherent-state recipes.
    """

    def __init__(self, args):
        self.args = args
        self.command = args.command
        self.seed = self.pick("seed", 0)
        self.alpha = self.pick("alpha", ALPHA_DEFAULT)
        self.resolved = {"alpha": self.alpha, "seed": self.seed}
        # default: the cores this process may run on, which taskset narrows
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        self.threads = self.count("threads", cores, 1)
        self.out = Path(self.pick("out", "out"))
        self.cache = None if self.pick("no-cache", False) else self.out / "cache"
        self.files: list[str] = []
        self.t0 = time.perf_counter()

    def pick(self, name, default):
        value = getattr(self.args, name.replace("-", "_"))
        return default if value is None else value

    def opt(self, name, default):
        """Resolve an option and record it for the metadata header."""
        value = self.pick(name, default)
        self.resolved[name] = value
        return value

    def unread(self, recipe, *names) -> None:
        """Before any work: a usage error for any of ``names`` that was
        given, as a flag or a config key, since ``recipe`` does not read it."""
        given = [f"--{n}" for n in names if self.pick(n, None) is not None]
        if given:
            raise UsageError(f"{recipe} does not read {', '.join(given)}")

    def count(self, name, default, minimum) -> int:
        """Resolve an integer option that must be at least ``minimum``."""
        value = self.opt(name, default)
        if value < minimum:
            raise UsageError(f"--{name} must be at least {minimum}, got {value}")
        return value

    def kappas(self, default=FIGURE_KAPPAS) -> np.ndarray:
        values = parse_values(self.pick("kappa", default))
        self.resolved["kappa"] = ",".join(repr(float(v)) for v in values)
        return values

    def grid(self, kappas, js, alphas=None) -> list[KickedTopParams]:
        """Every scan point, alpha-major, then j, then kappa; built before
        any work, so a value outside the parameter domain, or a point given
        twice (its rows could not be told apart), fails up front."""
        points = itertools.product([self.alpha] if alphas is None else alphas, js, kappas)
        try:
            params = [KickedTopParams(alpha=float(a), kappa=float(k), j=j) for a, j, k in points]
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if len(set(params)) < len(params):
            twice = next(p for i, p in enumerate(params) if p in params[:i])
            raise UsageError(f"the scan point {twice} is given twice")
        return params

    def scan(self, compute, points) -> list:
        """``compute(task_index, point)`` for every point (or chunk of a
        classical batch), in order, on ``--threads`` threads.  task_index
        is the point's position.  When a task fails, the tasks still queued
        are cancelled."""
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return list(pool.map(compute, range(len(points)), points))

    def eigensystem(self, params) -> FloquetEigensystem:
        """Both parity sectors of F at ``params``, each read from the cache or solved."""
        return FloquetEigensystem(tuple(cached_eigensystem(params, s, self.cache) for s in SECTORS), params)

    def metadata(self, **extra) -> dict:
        # the thread count does not change the results, so only the manifest has it
        meta = {"tool": f"kickedtop {__version__}", "command": self.command}
        meta.update({k: self.resolved[k] for k in sorted(self.resolved) if k != "threads"})
        meta.update(extra)
        return meta

    def emit(self, name, columns, **extra):
        path = write_csv(self.out / name, columns, self.metadata(**extra))
        self.files.append(str(path))

    def emit_each(self, stem, points, tables, **extra):
        """One CSV ``<stem>_kappa<kappa>.csv`` per point of a scan over kappa."""
        for p, columns in zip(points, tables):
            self.emit(f"{stem}_{_tag(p)}.csv", columns, kappa=repr(p.kappa), **extra)

    def emit_rows(self, name, header, rows, **extra):
        """Emit row tuples as a CSV with one column per name in ``header``."""
        self.emit(name, {h: [r[i] for r in rows] for i, h in enumerate(header)}, **extra)

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


def _tag(p: KickedTopParams, with_j: bool = False) -> str:
    """File-name tag of a scan point: ``kappa<kappa>``, or ``j<j>_kappa<kappa>``."""
    kappa = ("%g" % p.kappa).replace(".", "p").replace("-", "m")
    return f"j{p.j}_kappa{kappa}" if with_j else f"kappa{kappa}"


def _check_file_names(points, with_j: bool = False) -> None:
    """Before any work: a recipe that writes one file per point must not
    give two points one tag, or it would write one file twice."""
    seen = set()
    for p in points:
        tag = _tag(p, with_j)
        if tag in seen:
            raise UsageError(
                f"two scan points share the output name {tag!r} (kappa={p.kappa!r}); "
                "kappa values must differ within 6 significant digits"
            )
        seen.add(tag)


# ---------------------------------------------------------------- portrait


def cmd_portrait(args) -> int:
    run = Run(args)
    orbits = run.count("orbits", 289, 1)
    kicks = run.count("kicks", 300, 0)
    points = run.grid(run.kappas(), [run.opt("j", 1)])  # classical map: j only recorded
    _check_file_names(points)

    portraits = phase_portrait(points, n_orbits=orbits, n_kicks=kicks, seed=run.seed, scan=run.scan)
    tables = [{"phi": phi, "theta": theta, "orbit_id": orbit} for phi, theta, orbit in portraits]
    run.emit_each("portrait", points, tables)
    return run.finish()


# ---------------------------------------------------------------- lyapunov


def cmd_lyapunov(args) -> int:
    run = Run(args)
    mode = run.opt("mode", "field")
    kicks = run.count("kicks", 5000, 1)
    j = run.opt("j", 1)  # classical map: j only recorded for provenance
    if mode == "field":
        run.unread("lyapunov field mode", "samples", "alpha-grid", "kappa-c")
        n_grid = run.count("grid", 200, 1)
        spec = GridSpec(n_phi=n_grid, n_theta=n_grid)
        phi, theta = spec.mesh()
        points = run.grid(run.kappas(), [j])
        _check_file_names(points)

        fields = lyapunov_field(points, spec, n_kicks=kicks, scan=run.scan)
        tables = [{"phi": phi, "theta": theta, "lambda": f.grid.ravel()} for f in fields]
        run.emit_each("lyapunov_field", points, tables)
    elif mode == "scan":
        run.unread("lyapunov scan mode", "grid", "alpha")  # the angles come from --alpha-grid
        kappas = run.kappas("0:10:0.5")
        alphas = parse_values(run.opt("alpha-grid", "0.1:6.2:0.2"))
        samples = run.count("samples", 1000, 2)  # a standard error needs two samples
        # kappa_threshold finds no crossing on the integrable lines alpha = 0, pi, 2pi
        kc_alphas = [a for a in alphas if min(abs(a), abs(a - np.pi), abs(a - 2 * np.pi)) > 0.05]
        if run.pick("kappa-c", False) and not kc_alphas:
            raise UsageError("--kappa-c needs an alpha at least 0.05 away from 0, pi and 2pi")
        points = run.grid(kappas, [j], alphas)

        # point i draws its samples from the (seed, i) substream
        avgs = averaged_lyapunov(points, n_samples=samples, n_kicks=kicks, seed=run.seed, scan=run.scan)
        rows = [(p.kappa, p.alpha, avg.mean, avg.stderr) for p, avg in zip(points, avgs)]
        run.emit_rows("lyapunov_scan.csv", ("kappa", "alpha", "lambda_bar", "stderr"), rows)
        if run.pick("kappa-c", False):
            kc = kappa_threshold(kc_alphas, n_samples=samples, n_kicks=kicks, seed=run.seed, scan=run.scan)
            run.emit_rows("kappa_c.csv", ("alpha", "kappa_c"), list(zip(kc_alphas, kc)))
    else:
        raise UsageError(f"unknown lyapunov mode {mode!r} (expected field or scan)")
    return run.finish()


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(args) -> int:
    run = Run(args)
    j = run.opt("j", 1000)
    sector = run.opt("sector", "even")
    bins = np.linspace(0.0, 4.0, run.count("bins", 50, 1) + 1)
    points = run.grid(run.kappas(), [j])
    _check_file_names(points)
    # the even sector holds j + 1 levels and the odd one j; spacing statistics need 3
    levels = j + 1 if sector == "even" else j
    if levels < 3:
        raise UsageError(f"the {sector} sector at j={j} has {levels} levels; spacing statistics need at least 3")

    def one(_, p):
        nu = cached_eigensystem(p, sector, run.cache).quasienergies
        ens = spacings_from_quasienergies(nu, periodic=True)
        density, _ = np.histogram(ens.spacings, bins=bins, density=True)
        return p.kappa, fit_brody(ens).beta, ratio_stats(ens.raw_gaps).mean_r, nu.size, density

    results = run.scan(one, points)
    centers = 0.5 * (bins[:-1] + bins[1:])
    run.emit_each(
        "pspacing",
        points,
        [{"bin_center": centers, "density": r[-1]} for r in results],
        sector=sector,
        eigenphase_convention="F|v> = exp(+i nu)|v>, nu in [-pi, pi)",
    )
    header = ("kappa", "beta", "mean_r", "n_levels")
    run.emit_rows("spectrum_scan.csv", header, results, sector=sector)
    return run.finish()


# ------------------------------------------------------------ multifractal


def _q_label(q) -> str:
    return "Dinf" if np.isinf(q) else ("D%g" % q)


def _q_text(q) -> str:
    return "inf" if np.isinf(q) else repr(float(q))


def _parse_qs(text: str) -> tuple:
    """The --q orders; two that share a column label are a usage error,
    since one would overwrite the other's column or repeat its rows."""
    qs, labels = [], {}
    for part in text.split(","):
        part = part.strip().lower()
        try:
            q = np.inf if part in ("inf", "infinity") else float(part)
        except ValueError as exc:
            raise UsageError(f"cannot parse q value {part!r}") from exc
        if not q >= 0:
            raise UsageError(f"q values must be >= 0, got {part!r}")
        label = _q_label(q)
        if label in labels:
            raise UsageError(f"q values {labels[label]!r} and {part!r} share the column label {label!r}")
        labels[label] = part
        qs.append(q)
    return tuple(qs)


def cmd_multifractal(args) -> int:
    run = Run(args)
    mode = run.opt("mode", "field")
    qs = _parse_qs(run.opt("q", "1,2,inf"))
    samples = run.count("samples", 10_000, 2)  # a standard error needs two samples

    def averaged(idx, p):
        return averaged_dq(run.eigensystem(p), samples, qs, seed=run.seed, task_index=idx)

    if mode == "field":
        run.unread("multifractal field mode", "j-list", "samples")
        j = run.opt("j", 150)
        n_grid = run.count("grid", 100, 1)
        spec = GridSpec(n_phi=n_grid, n_theta=n_grid)
        phi, theta = spec.mesh()
        points = run.grid(run.kappas(), [j])
        _check_file_names(points)

        def field(_, p):
            dq = dq_field(run.eigensystem(p), spec, qs)
            columns = {_q_label(q): dq.component(q).ravel() for q in qs}
            return {"phi": phi, "theta": theta, **columns}

        run.emit_each("dq_field", points, run.scan(field, points))
    elif mode == "scan":
        run.unread("multifractal scan mode", "j", "grid")
        js = parse_values(run.opt("j-list", "50,100,150,200"))
        points = run.grid(run.kappas("0.2:8:0.2"), js)
        results = run.scan(averaged, points)
        rows = [
            (p.kappa, p.j, 2 * p.j + 1, _q_text(q), res.D_q[l], res.stderr[l])
            for p, res in zip(points, results)
            for l, q in enumerate(qs)
        ]
        run.emit_rows("multifractal_scan.csv", ("kappa", "j", "N", "q", "Dq_mean", "stderr"), rows)
    elif mode == "scaling":
        run.unread("multifractal scaling mode", "j", "grid")
        kappas = run.kappas("7")
        if kappas.size != 1:
            raise UsageError("scaling mode expects a single --kappa value")
        kappa = float(kappas[0])
        js = parse_values(run.opt("j-list", SCALING_JS))
        if len(set(js)) < 2:
            raise UsageError(f"scaling mode fits over N and needs at least two distinct --j-list values, "
                             f"got {run.resolved['j-list']!r}")
        points = run.grid(kappas, js)
        results = run.scan(averaged, points)
        point_rows, fit_rows = [], []
        for l, q in enumerate(qs):
            pts = [(2 * p.j + 1, res.D_q[l]) for p, res in zip(points, results)]
            for (n, dq), p, res in zip(pts, points, results):
                point_rows.append((p.j, n, _q_text(q), dq, res.stderr[l]))
            models = ["linear_in_invlogN"] + (["loglog_in_invlogN"] if np.isinf(q) else [])
            for model in models:
                fit = scaling_fit(pts, model)
                fit_rows.append((_q_label(q), fit.model, fit.intercept, fit.slope, fit.residual))
        header = ("j", "N", "q", "Dq_mean", "stderr")
        run.emit_rows("scaling_points.csv", header, point_rows, kappa=repr(kappa))
        header = ("q", "model", "intercept", "slope", "residual")
        run.emit_rows("scaling_fits.csv", header, fit_rows, kappa=repr(kappa))
    else:
        raise UsageError(f"unknown multifractal mode {mode!r} (expected field, scan, or scaling)")
    return run.finish()


# -------------------------------------------------------------- coeffdist


def cmd_coeffdist(args) -> int:
    run = Run(args)
    run.unread("coeffdist", "j")  # the spins come from --j-list
    nu = run.opt("nu", 2)
    samples = run.count("samples", 10_000, 1)
    js = parse_values(run.opt("j-list", "150"))
    points = run.grid(run.kappas(), js)
    _check_file_names(points, with_j=True)

    def one(idx, p):
        # reduce the pooled weights in the task: only what is emitted outlives it
        theta, phi = haar_sphere(samples, rng_for_task(run.seed, idx))
        x = coherent_weights(run.eigensystem(p), theta, phi)
        x *= x.shape[1]  # x = N |w|^2 in place, the one pool
        pool = _pool(x)
        hist = empirical_log_histogram(pool)
        ref = chisq_logpdf_form(np.exp(hist.centers), nu, pool.mean_x)
        grid, f_emp = empirical_cdf(pool, 512)
        return hist, ref, (grid, f_emp, chisq_cdf(grid, nu, pool.mean_x)), distance_report(pool, nu)

    results = run.scan(one, points)
    for p, (hist, ref, (grid, f_emp, f_ref), _) in zip(points, results):
        tag = f"{_tag(p, with_j=True)}.csv"
        meta = {"j": p.j, "kappa": repr(p.kappa), "nu": nu}
        hist_columns = {"lnx_bin": hist.centers, "density": hist.density, "reference_density": ref}
        run.emit(f"lnx_hist_{tag}", hist_columns, **meta, zeros_excluded=hist.n_zero_excluded)
        run.emit(f"cdf_{tag}", {"x": grid, "F_emp": f_emp, "F_ref": f_ref}, **meta)
    rows = [(p.kappa, p.j, r[3].skld, r[3].rmse) for p, r in zip(points, results)]
    run.emit_rows("coeffdist_scan.csv", ("kappa", "j", "skld", "rmse"), rows, nu=nu)
    return run.finish()


# ------------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(prog="kickedtop", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"kickedtop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = add_command(sub, "portrait", cmd_portrait, "classical phase-space portraits")
    p.add_argument("--orbits", type=int, help="number of random initial conditions (289)")
    p.add_argument("--kicks", type=int, help="kicks per orbit (300)")

    p = add_command(sub, "lyapunov", cmd_lyapunov, "Lyapunov fields and phase-space averages")
    p.add_argument("--mode", choices=["field", "scan"], help="field (default) or scan")
    p.add_argument("--grid", type=int, help="field grid size per side (200)")
    p.add_argument("--kicks", type=int, help="kicks per trajectory (5000)")
    p.add_argument("--samples", type=int, help="initial conditions per scan point (1000)")
    p.add_argument("--alpha-grid", help="alpha range for scan mode (start:stop:step)")
    p.add_argument("--kappa-c", action="store_true", default=None, help="also locate the chaos threshold per alpha")

    p = add_command(sub, "spectrum", cmd_spectrum, "quasienergy spacing statistics")
    p.add_argument("--sector", choices=["even", "odd"], help="parity sector (even)")
    p.add_argument("--bins", type=int, help="histogram bins on s in [0,4] (50)")

    p = add_command(sub, "multifractal", cmd_multifractal, "fractal dimensions of coherent states")
    p.add_argument("--mode", choices=["field", "scan", "scaling"], help="field (default), scan, scaling")
    p.add_argument("--grid", type=int, help="field grid size per side (100)")
    p.add_argument("--q", help="comma list of q orders, 'inf' allowed (1,2,inf)")
    p.add_argument("--samples", type=int, help="coherent states per average (10000)")
    p.add_argument("--j-list", help="comma list of j for scan/scaling modes")

    p = add_command(sub, "coeffdist", cmd_coeffdist, "expansion-coefficient distributions vs chi^2_nu")
    p.add_argument("--nu", type=int, choices=[1, 2, 4], help="reference chi^2 degrees of freedom (2)")
    p.add_argument("--samples", type=int, help="coherent states pooled per point (10000)")
    p.add_argument("--j-list", help="comma list of j values (150)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the config flags go first, so the command-line flags after them win
            rest = argv[argv.index(args.command) + 1 :]
            args = parser.parse_args([args.command, *config_flags(args.config, args.options), *rest])
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"kickedtop: usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, DiagonalizationError, np.linalg.LinAlgError) as exc:
        print(f"kickedtop: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
