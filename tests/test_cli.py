import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kickedtop
from kickedtop.cli import main, parse_values
from kickedtop.io import read_csv


def run(*args):
    return main([str(a) for a in args])


def test_parse_values_forms():
    assert np.allclose(parse_values("0.4"), [0.4])
    assert np.allclose(parse_values("0.4,1.7,3"), [0.4, 1.7, 3.0])
    assert np.allclose(parse_values("0:1:0.25"), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        parse_values("0:1")
    with pytest.raises(ValueError):
        parse_values("abc")
    for text in ("0.4,nan", "inf", "1e400"):
        with pytest.raises(ValueError, match="finite"):
            parse_values(text)


def test_range_steps_in_decimal():
    values = parse_values("0.2:1:0.2")
    assert [repr(float(v)) for v in values] == ["0.2", "0.4", "0.6", "0.8", "1.0"]
    assert np.array_equal(parse_values("0.2:8:0.2")[2::5], parse_values("0.6,1.6,2.6,3.6,4.6,5.6,6.6,7.6"))
    assert [repr(float(v)) for v in parse_values("0.1:0.35:0.1")] == ["0.1", "0.2", "0.3"]
    with pytest.raises(ValueError):
        parse_values("0:nan:0.1")


def test_portrait_runs_and_is_deterministic(tmp_path):
    out = tmp_path / "run"
    args = ("portrait", "--kappa", "0.4", "--orbits", "5", "--kicks", "10",
            "--out", out, "--seed", "3")
    assert run(*args) == 0
    csv_path = out / "portrait_kappa0p4.csv"
    first = csv_path.read_bytes()
    meta, cols = read_csv(csv_path)
    assert meta["command"] == "portrait"
    assert meta["seed"] == "3"
    assert "tool" in meta
    assert cols["phi"].size == 5 * 11
    assert set(cols) == {"phi", "theta", "orbit_id"}
    manifest = json.loads((out / "portrait_manifest.json").read_text())
    assert str(csv_path) in manifest["files"]
    assert "wall_time_s" in manifest
    assert run(*args) == 0
    assert csv_path.read_bytes() == first  # byte-identical rerun


def test_lyapunov_field_mode(tmp_path):
    out = tmp_path / "lf"
    assert run("lyapunov", "--kappa", "7", "--grid", "8", "--kicks", "60",
               "--out", out) == 0
    _, cols = read_csv(out / "lyapunov_field_kappa7.csv")
    assert cols["lambda"].size == 64
    assert cols["lambda"].mean() > 0.5


def test_lyapunov_scan_mode(tmp_path):
    out = tmp_path / "ls"
    assert run("lyapunov", "--mode", "scan", "--kappa", "1:7:3",
               "--alpha-grid", "1.0:2.2:0.6", "--samples", "30", "--kicks", "80",
               "--out", out, "--threads", "2") == 0
    _, cols = read_csv(out / "lyapunov_scan.csv")
    assert cols["kappa"].size == 3 * 3
    assert np.all(cols["stderr"] >= 0)


def test_spectrum_small(tmp_path):
    out = tmp_path / "sp"
    assert run("spectrum", "--j", "40", "--kappa", "0.4,7", "--out", out) == 0
    meta, scan = read_csv(out / "spectrum_scan.csv")
    assert meta["sector"] == "even"
    assert list(scan["kappa"]) == [0.4, 7.0]
    assert np.all(scan["n_levels"] == 41)
    _, hist = read_csv(out / "pspacing_kappa0p4.csv")
    assert hist["bin_center"].size == 50
    assert (out / "cache").exists()  # eigensystem cache on by default


def test_spectrum_cache_disabled(tmp_path):
    out = tmp_path / "sp2"
    assert run("spectrum", "--j", "12", "--kappa", "3", "--no-cache", "--out", out) == 0
    assert not (out / "cache").exists()


def test_multifractal_field_mode(tmp_path):
    out = tmp_path / "mf"
    assert run("multifractal", "--j", "20", "--kappa", "7", "--grid", "10",
               "--out", out) == 0
    _, cols = read_csv(out / "dq_field_kappa7.csv")
    assert set(cols) == {"phi", "theta", "D1", "D2", "Dinf"}
    assert cols["D2"].size == 100
    assert np.all(cols["D2"] <= cols["D1"] + 1e-12)


def test_multifractal_scan_mode(tmp_path):
    out = tmp_path / "ms"
    assert run("multifractal", "--mode", "scan", "--j-list", "10,15",
               "--kappa", "1,5", "--samples", "40", "--q", "2", "--out", out) == 0
    _, cols = read_csv(out / "multifractal_scan.csv")
    assert cols["kappa"].size == 4
    assert np.all((cols["Dq_mean"] >= 0) & (cols["Dq_mean"] <= 1))


def test_multifractal_scaling_mode(tmp_path):
    out = tmp_path / "msc"
    assert run("multifractal", "--mode", "scaling", "--kappa", "7",
               "--j-list", "10,20,30,40", "--samples", "60", "--out", out) == 0
    _, fits = read_csv(out / "scaling_fits.csv")
    assert "intercept" in fits and "slope" in fits
    # linear fits for q=1,2,inf plus the loglog variant for q=inf
    assert fits["q"].size == 4
    _, pts = read_csv(out / "scaling_points.csv")
    assert pts["N"].size == 3 * 4


def test_coeffdist_small(tmp_path):
    out = tmp_path / "cd"
    assert run("coeffdist", "--j-list", "15", "--kappa", "1,6", "--samples", "400",
               "--out", out) == 0
    _, scan = read_csv(out / "coeffdist_scan.csv")
    assert scan["skld"].size == 2
    assert np.all(scan["skld"] >= 0)
    _, hist = read_csv(out / "lnx_hist_j15_kappa6.csv")
    assert {"lnx_bin", "density", "reference_density"} <= set(hist)
    _, cdf = read_csv(out / "cdf_j15_kappa1.csv")
    assert np.all(np.diff(cdf["F_emp"]) >= 0)


@pytest.mark.parametrize("threads", [1, 2])
def test_coeffdist_cdf_and_zeros_recomputed(tmp_path, threads):
    from kickedtop.classical import haar_sphere, rng_for_task
    from kickedtop.cli import ALPHA_DEFAULT
    from kickedtop.floquet import SECTORS, FloquetEigensystem, KickedTopParams, diagonalize
    from kickedtop.multifractal import coherent_weights

    assert run("coeffdist", "--j-list", "15", "--kappa", "1,6", "--samples", "400",
               "--threads", threads, "--out", tmp_path) == 0
    for idx, (kappa, tag) in enumerate([(1.0, "1"), (6.0, "6")]):  # task index = point order
        p = KickedTopParams(alpha=ALPHA_DEFAULT, kappa=kappa, j=15)
        theta, phi = haar_sphere(400, rng_for_task(0, idx))
        eig = FloquetEigensystem(tuple(diagonalize(p, s) for s in SECTORS), p)
        w = coherent_weights(eig, theta, phi)
        x = (w * w.shape[1]).ravel()
        xs = np.sort(x[x > 0])
        _, cdf = read_csv(tmp_path / f"cdf_j15_kappa{tag}.csv")
        assert np.array_equal(cdf["F_emp"], np.searchsorted(xs, cdf["x"], side="right") / xs.size)
        assert np.array_equal(cdf["x"], np.linspace(xs[0], xs[-1], 512))
        meta, _ = read_csv(tmp_path / f"lnx_hist_j15_kappa{tag}.csv")
        assert int(meta["zeros_excluded"]) == np.count_nonzero(x == 0)


PEAK_AFTER_MAIN = """
import sys
from kickedtop.cli import main
assert main(sys.argv[1:]) == 0
print([line for line in open("/proc/self/status") if line.startswith("VmHWM")][0].split()[1])
"""


def peak_mb(*argv):
    """VmHWM in MB of a fresh process that runs the CLI on ``argv`` with one BLAS thread."""
    src = str(Path(kickedtop.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PEAK_AFTER_MAIN, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024  # VmHWM is in kB


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_coeffdist_peak_memory_bounded(tmp_path):
    # one pool of 10^4 states at j = 400 is 64 MB of x; the reduction must not copy it many times
    assert peak_mb("coeffdist", "--j-list", "400", "--kappa", "7", "--threads", "1", "--no-cache",
                   "--out", tmp_path) <= 300


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_scaling_large_j_warm_peak_memory_bounded(tmp_path):
    # on a filled cache the peak is the expansion's: 85.0 MB when each call laid both
    # sectors side by side and took blocks of 128 states at any N, 61.6 MB reading each
    # sector in place with blocks of 64 above N = 401 (2-vCPU VM, OpenBLAS)
    argv = ("multifractal", "--mode", "scaling", "--kappa", "7", "--j-list", "600,1000",
            "--threads", "1", "--out", tmp_path)
    assert run(*argv, "--samples", "2") == 0
    assert peak_mb(*argv, "--samples", "1000") <= 72


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_spectrum_j1000_peak_memory_bounded(tmp_path):
    # one sector of n = 1001 (8 MB per n x n array): 146.7 MB when C, S, h h^T, A, B,
    # A + cB and the sorted copies were all alive, 107.7 MB with C and S made A and B
    # in place (2-vCPU VM, OpenBLAS)
    assert peak_mb("spectrum", "--j", "1000", "--kappa", "7", "--threads", "1", "--no-cache",
                   "--out", tmp_path) <= 125


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\norbits = 4\nkicks = 6\nseed = 9\n")
    out = tmp_path / "cfgout"
    assert run("portrait", "--kappa", "1", "--config", cfg, "--kicks", "3",
               "--out", out) == 0
    meta, cols = read_csv(out / "portrait_kappa1.csv")
    assert cols["phi"].size == 4 * 4  # orbits from config, kicks from CLI flag
    assert meta["seed"] == "9"


def test_usage_error_exit_code_bad_kappa():
    assert run("portrait", "--kappa", "nonsense") == 1


def test_usage_error_exit_code_bad_range():
    assert run("lyapunov", "--kappa", "5:1:1") == 1


def test_usage_error_unknown_subcommand():
    assert run("explode") == 1


def test_usage_error_missing_subcommand():
    assert run() == 1


def test_usage_error_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert run("portrait", "--kappa", "1", "--config", cfg) == 1


def test_usage_error_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("orbitz = 4\n")
    assert run("portrait", "--kappa", "1", "--config", cfg, "--out", tmp_path) == 1
    assert "orbitz" in capsys.readouterr().err


def test_usage_error_config_choice(tmp_path, capsys):
    cfg = tmp_path / "sector.cfg"
    cfg.write_text("sector = foo\n")
    assert run("spectrum", "--j", "4", "--kappa", "1", "--config", cfg, "--out", tmp_path) == 1
    assert "sector" in capsys.readouterr().err
    assert run("spectrum", "--j", "4", "--kappa", "1", "--sector", "foo", "--out", tmp_path) == 1


def test_config_values_use_flag_types(tmp_path):
    cfg = tmp_path / "types.cfg"
    cfg.write_text("orbits = four\n")
    assert run("portrait", "--kappa", "1", "--config", cfg, "--out", tmp_path) == 1
    cfg.write_text("no-cache = true\nj = 4\n")
    out = tmp_path / "nocache"
    assert run("spectrum", "--kappa", "1", "--config", cfg, "--out", out) == 0
    assert not (out / "cache").exists()


# each recipe with an on/off flag or a start:stop:step range among its values
CONFIG_RECIPES = {
    "portrait": ("portrait", "--kappa", "0.4:1.2:0.4", "--orbits", "4", "--kicks", "10", "--seed", "3"),
    "lyapunov": ("lyapunov", "--mode", "scan", "--kappa", "1,5", "--alpha-grid", "1:2:0.5",
                 "--samples", "6", "--kicks", "40", "--kappa-c"),
    "spectrum": ("spectrum", "--j", "12", "--kappa", "0.4:7:3.3", "--bins", "10", "--sector", "odd",
                 "--no-cache"),
    "multifractal": ("multifractal", "--mode", "scaling", "--kappa", "7", "--j-list", "5,8",
                     "--samples", "20", "--q", "2,inf", "--no-cache"),
    "coeffdist": ("coeffdist", "--j-list", "8,10", "--kappa", "1:7:6", "--samples", "50", "--nu", "1",
                  "--alpha", "1.5"),
}


def _as_config(flags):
    """The ``key = value`` lines that stand for a run's flags; an on/off flag reads ``true``."""
    lines, flags = [], list(flags)
    while flags:
        key = flags.pop(0)[2:]
        lines.append(f"{key} = {flags.pop(0) if flags and not flags[0].startswith('--') else 'true'}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv", list(CONFIG_RECIPES.values()), ids=list(CONFIG_RECIPES))
def test_config_file_gives_the_run_of_its_flags(tmp_path, argv):
    command, flags = argv[0], argv[1:]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_as_config(flags))
    assert run(*argv, "--out", tmp_path / "flags") == 0
    assert run(command, "--config", cfg, "--out", tmp_path / "cfg") == 0
    outputs, configs = [], []
    for out in (tmp_path / "flags", tmp_path / "cfg"):
        outputs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        configs.append(json.loads((out / f"{command}_manifest.json").read_text())["config"])
    assert outputs[0] and outputs[0] == outputs[1]
    assert configs[0] == configs[1]
    if "--no-cache" in flags:
        assert not (tmp_path / "cfg" / "cache").exists()


@pytest.mark.parametrize("off", ["false", "No", "0"])
def test_config_off_value_adds_no_flag(tmp_path, off):
    cfg = tmp_path / "off.cfg"
    cfg.write_text(f"no-cache = {off}\nj = 4\n")
    out = tmp_path / "out"
    assert run("spectrum", "--kappa", "1", "--config", cfg, "--out", out) == 0
    assert (out / "cache").exists()


@pytest.mark.parametrize("line", ["orb = 4", "help = true", "config = other.cfg", "no-cache = maybe"])
def test_usage_error_config_line_names_its_key(tmp_path, capsys, line):
    # only full option names: no prefix of --orbits, and no key that prints help or reads a file
    cfg = tmp_path / "keys.cfg"
    cfg.write_text(line + "\n")
    assert run("portrait", "--kappa", "1", "--config", cfg, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert repr(line.split(" = ")[0]) in err and "usage:" not in err
    assert not (tmp_path / "out").exists()


def test_config_value_starting_with_a_dash_reaches_its_check(tmp_path, capsys):
    cfg = tmp_path / "kappa.cfg"
    cfg.write_text("kappa = -1\n")
    assert run("portrait", "--config", cfg, "--out", tmp_path / "out") == 1
    assert "kappa must be finite and >= 0, got -1.0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",
    [
        ("lyapunov", "--mode", "scan", "--kappa", "1,1", "--alpha-grid", "1", "--samples", "4", "--kicks", "10"),
        ("multifractal", "--mode", "scaling", "--kappa", "7", "--j-list", "20,30,30", "--samples", "10",
         "--q", "2", "--no-cache"),
        ("multifractal", "--mode", "scan", "--j-list", "20,20", "--kappa", "7,7", "--samples", "10"),
    ],
)
def test_usage_error_repeated_scan_point(tmp_path, capsys, no_eigensystem, args):
    # two rows of one point, each from its own draw, could not be told apart
    out = tmp_path / "out"
    assert run(*args, "--out", out) == 1
    assert "is given twice" in capsys.readouterr().err
    assert not (out / "cache").exists() and not list(tmp_path.rglob("*.csv"))


def test_usage_error_kappa_c_without_chaotic_alpha(tmp_path, capsys):
    # every alpha on an integrable line: no threshold to locate
    assert run("lyapunov", "--mode", "scan", "--alpha-grid", "0", "--kappa-c",
               "--kappa", "1", "--samples", "4", "--kicks", "10", "--out", tmp_path) == 1
    assert "--kappa-c" in capsys.readouterr().err


def test_usage_error_scaling_several_kappas(tmp_path, capsys):
    assert run("multifractal", "--mode", "scaling", "--kappa", "1,2",
               "--j-list", "4,5", "--samples", "4", "--out", tmp_path) == 1
    assert "single --kappa" in capsys.readouterr().err


@pytest.fixture
def no_eigensystem(monkeypatch):
    """Fail any attempt to build or load an eigensystem."""
    from kickedtop import cli

    def refuse(params, sector, cache_dir=None):
        raise AssertionError("an eigensystem was requested")

    monkeypatch.setattr(cli, "cached_eigensystem", refuse)


@pytest.mark.parametrize("j_list", ["20", "20,20"])
def test_usage_error_scaling_one_distinct_j(tmp_path, capsys, no_eigensystem, j_list):
    # a fit of D_q against N needs two N, so this fails before any eigensystem is built
    out = tmp_path / "out"
    assert run("multifractal", "--mode", "scaling", "--kappa", "7", "--j-list", j_list,
               "--samples", "10", "--out", out) == 1
    assert "two distinct --j-list" in capsys.readouterr().err
    assert not (out / "cache").exists() and not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "args",
    [
        ("--mode", "scaling", "--kappa", "7", "--j-list", "4,5", "--samples", "0"),
        ("--mode", "scaling", "--kappa", "7", "--j-list", "4,5", "--samples", "1"),
        ("--mode", "scan", "--kappa", "7", "--j-list", "4", "--samples", "-1"),
        ("--j", "4", "--kappa", "7", "--grid", "0"),
    ],
)
def test_usage_error_multifractal_sizes(tmp_path, capsys, no_eigensystem, args):
    assert run("multifractal", *args, "--out", tmp_path) == 1
    assert "must be at least" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "args",
    [
        ("--mode", "scan", "--kappa", "3", "--alpha-grid", "1", "--samples", "1"),
        ("--kappa", "3", "--grid", "0"),
    ],
)
def test_usage_error_lyapunov_sizes(tmp_path, capsys, args):
    assert run("lyapunov", *args, "--kicks", "10", "--out", tmp_path) == 1
    assert "must be at least" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "args",
    [
        ("lyapunov", "--kappa", "3", "--grid", "4", "--kicks", "0"),
        ("lyapunov", "--mode", "scan", "--kappa", "3", "--alpha-grid", "1",
         "--samples", "4", "--kicks", "0"),
        ("portrait", "--kappa", "3", "--orbits", "0"),
        ("portrait", "--kappa", "3", "--kicks", "-1"),
    ],
)
def test_usage_error_classical_sizes(tmp_path, capsys, args):
    assert run(*args, "--out", tmp_path) == 1
    assert "must be at least" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_usage_error_spectrum_bins(tmp_path, capsys, no_eigensystem):
    assert run("spectrum", "--j", "4", "--kappa", "3", "--bins", "0", "--out", tmp_path) == 1
    assert "--bins must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("j, sector", [(1, "even"), (1, "odd"), (2, "odd")])
def test_usage_error_spectrum_sector_below_three_levels(tmp_path, capsys, j, sector):
    assert run("spectrum", "--j", str(j), "--kappa", "3", "--sector", sector, "--out", tmp_path) == 1
    assert "spacing statistics need at least 3" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.ktc"))
    assert not list(tmp_path.glob("*.csv"))


def test_usage_error_negative_q(tmp_path, capsys, no_eigensystem):
    assert run("multifractal", "--j", "4", "--kappa", "3", "--grid", "2", "--q", "1,-1",
               "--out", tmp_path) == 1
    assert "q values must be >= 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("mode", ["field", "scan", "scaling"])
@pytest.mark.parametrize("qs", ["1,1.0000001,2", "2,2", "inf,Infinity"])
def test_usage_error_q_orders_sharing_a_label(tmp_path, capsys, no_eigensystem, mode, qs):
    # D1 would be written once for two orders (field), or rows and fits twice (scan, scaling)
    assert run("multifractal", "--mode", mode, "--j-list", "4,5", "--kappa", "3", "--grid", "2",
               "--q", qs, "--out", tmp_path) == 1
    assert "share the column label" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _manifest_threads(out):
    return json.loads((out / "portrait_manifest.json").read_text())["config"]["threads"]


def test_default_threads_follow_cpu_affinity(tmp_path, monkeypatch):
    # a process pinned to one core (taskset -c 0) gets one thread, whatever cpu_count says
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert run("portrait", "--kappa", "3", "--orbits", "2", "--kicks", "1", "--out", tmp_path / "a") == 0
    assert _manifest_threads(tmp_path / "a") == "1"
    # a platform without sched_getaffinity falls back on cpu_count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert run("portrait", "--kappa", "3", "--orbits", "2", "--kicks", "1", "--out", tmp_path / "b") == 0
    assert _manifest_threads(tmp_path / "b") == "8"


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_usage_error_coeffdist_samples(tmp_path, capsys, no_eigensystem, samples):
    assert run("coeffdist", "--j-list", "4", "--kappa", "3", "--samples", samples,
               "--out", tmp_path) == 1
    assert "--samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_usage_error_threads_below_one(tmp_path, capsys, no_eigensystem, threads):
    assert run("spectrum", "--j", "4", "--kappa", "3", "--threads", threads, "--out", tmp_path) == 1
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--j", "4", "--kappa", "1,nan"),
        ("spectrum", "--j", "4", "--kappa", "inf"),
        ("multifractal", "--mode", "scan", "--kappa", "1", "--samples", "4", "--j-list", "10.5"),
        ("multifractal", "--mode", "scan", "--kappa", "1", "--samples", "4", "--j-list", "nan"),
        ("multifractal", "--mode", "scaling", "--kappa", "7", "--samples", "4",
         "--j-list", "1e400"),
        ("coeffdist", "--kappa", "1", "--samples", "4", "--j-list", "10,0"),
        ("coeffdist", "--kappa", "1", "--samples", "4", "--j-list", "10.5"),
    ],
)
def test_usage_error_scan_values_not_parameters(tmp_path, no_eigensystem, args):
    # non-finite or non-integer scan values fail before any eigensystem is built
    assert run(*args, "--out", tmp_path) == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "args",
    [
        ("lyapunov", "--kappa", "nan", "--grid", "4", "--kicks", "10"),
        ("lyapunov", "--mode", "scan", "--kappa", "1,inf", "--alpha-grid", "1",
         "--samples", "4", "--kicks", "10"),
        ("portrait", "--kappa", "inf", "--orbits", "2", "--kicks", "3"),
    ],
)
def test_usage_error_classical_non_finite_kappa(tmp_path, args):
    assert run(*args, "--out", tmp_path) == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "args",
    [
        ("portrait", "--kappa", "3.1415926,3.1415927", "--orbits", "2", "--kicks", "3"),
        ("lyapunov", "--kappa", "3.1415926,3.1415927", "--grid", "2", "--kicks", "3"),
        ("spectrum", "--j", "4", "--kappa", "3,3.0000001"),
        ("multifractal", "--j", "4", "--kappa", "1,1.0000001", "--grid", "2"),
        ("coeffdist", "--j-list", "4,5", "--kappa", "1,1.0000001", "--samples", "4"),
    ],
)
def test_usage_error_two_points_one_file_name(tmp_path, capsys, no_eigensystem, args):
    # kappa names its file with 6 significant digits; two points must not write one file
    assert run(*args, "--out", tmp_path, "--threads", "1") == 1
    assert "share the output name" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_spectrum_fill_serves_dq_recipes(tmp_path, monkeypatch):
    from kickedtop import cache

    solved = []
    solve = cache.diagonalize

    def spy(params, sector):
        solved.append((params.j, sector))
        return solve(params, sector)

    monkeypatch.setattr(cache, "diagonalize", spy)
    out = tmp_path / "filled"
    assert run("spectrum", "--j", "30", "--kappa", "7", "--out", out) == 0
    assert solved == [(30, "even")]
    assert [f.name.rsplit("_", 1)[1] for f in (out / "cache").iterdir()] == ["even.ktc"]
    solved.clear()
    scaling = ("multifractal", "--mode", "scaling", "--kappa", "7", "--j-list", "30,40", "--samples", "200")
    assert run(*scaling, "--out", out) == 0
    assert sorted(solved) == [(30, "odd"), (40, "even"), (40, "odd")]
    assert run(*scaling, "--out", tmp_path / "nocache", "--no-cache") == 0
    for name in ("scaling_points.csv", "scaling_fits.csv"):
        assert (out / name).read_bytes() == (tmp_path / "nocache" / name).read_bytes()


def test_failed_task_cancels_queued_tasks(monkeypatch, tmp_path):
    from kickedtop import cli
    from kickedtop.floquet import DiagonalizationError

    calls = []

    def fail(params, sector, cache_dir=None):
        calls.append(params.kappa)
        if len(calls) > 1:
            time.sleep(0.2)  # long enough for the driver to cancel what is still queued
        raise DiagonalizationError("synthetic eigensolver failure")

    monkeypatch.setattr(cli, "cached_eigensystem", fail)
    assert run("spectrum", "--j", "4", "--kappa", "1:8:1", "--threads", "1", "--out", tmp_path) == 2
    assert len(calls) <= 2


# one small recipe per mode, each with several scan points so the pool has work to share
THREAD_RECIPES = {
    "portrait": ("portrait", "--kappa", "0.4,3,7", "--orbits", "4", "--kicks", "10"),
    "lyapunov-field": ("lyapunov", "--kappa", "1,5", "--grid", "6", "--kicks", "40"),
    "lyapunov-scan": ("lyapunov", "--mode", "scan", "--kappa", "1,5", "--alpha-grid", "1:2:0.5",
                      "--samples", "6", "--kicks", "40", "--kappa-c"),
    "spectrum": ("spectrum", "--j", "12", "--kappa", "0.4,3,7", "--bins", "10"),
    "multifractal-field": ("multifractal", "--j", "8", "--kappa", "1,7", "--grid", "4"),
    "multifractal-scan": ("multifractal", "--mode", "scan", "--j-list", "5,8", "--kappa", "1,7",
                          "--samples", "20"),
    "multifractal-scaling": ("multifractal", "--mode", "scaling", "--kappa", "7",
                             "--j-list", "5,8,11", "--samples", "20"),
    # several blocks per point, on both sides of multifractal.BLOCK_HALVED_ABOVE (N = 401)
    "multifractal-scaling-blocks": ("multifractal", "--mode", "scaling", "--kappa", "7",
                                    "--j-list", "150,250", "--samples", "300"),
    "coeffdist": ("coeffdist", "--j-list", "8,10", "--kappa", "1,7", "--samples", "50"),
}


@pytest.mark.parametrize("argv", list(THREAD_RECIPES.values()), ids=list(THREAD_RECIPES))
def test_csvs_identical_for_any_thread_count(tmp_path, argv):
    outputs = []
    for threads in (1, 3):
        out = tmp_path / f"threads{threads}"
        assert run(*argv, "--seed", "7", "--threads", threads, "--out", out) == 0
        manifest = json.loads(next(out.glob("*_manifest.json")).read_text())
        assert manifest["config"]["threads"] == str(threads)
        outputs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    assert outputs[0] and outputs[0] == outputs[1]


def test_kappa_c_floor_warning_reaches_stderr(tmp_path):
    # in a child interpreter: pytest records in-process warnings instead of printing them
    src = str(Path(kickedtop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["lyapunov", "--mode", "scan", "--kappa", "1", "--alpha-grid", "1", "--samples", "6",
            "--kicks", "400", "--kappa-c", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-m", "kickedtop.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" in proc.stderr
    assert "alpha=1.0" in proc.stderr and "n_kicks=400" in proc.stderr and "5000" in proc.stderr
    _, columns = read_csv(tmp_path / "kappa_c.csv")
    assert list(columns["kappa_c"]) == [10.0 / 512]  # the floor, written as before


NO_SCIPY_RECIPES = """
import json, sys
from kickedtop.cli import main
out = sys.argv[1]
for argv in (
    ["portrait", "--kappa", "3", "--orbits", "3", "--kicks", "5"],
    ["lyapunov", "--kappa", "3", "--grid", "3", "--kicks", "20"],
    ["lyapunov", "--mode", "scan", "--kappa", "1", "--alpha-grid", "1", "--samples", "4", "--kicks", "20"],
    ["spectrum", "--j", "9", "--kappa", "0.4,7"],
    ["spectrum", "--j", "9", "--kappa", "7", "--sector", "odd"],
    ["multifractal", "--j", "6", "--kappa", "1", "--grid", "3"],
    ["multifractal", "--mode", "scan", "--j-list", "5,6", "--kappa", "1", "--samples", "10"],
    ["multifractal", "--mode", "scaling", "--j-list", "5,6", "--kappa", "7", "--samples", "10"],
    *(["coeffdist", "--j-list", "6", "--samples", "20", "--nu", nu] for nu in ("1", "2", "4")),
):
    assert main(argv + ["--out", out, "--threads", "1"]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_recipes_import_no_scipy(tmp_path):
    # a fresh interpreter: this test process has scipy loaded already
    src = str(Path(kickedtop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RECIPES, str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_usage_error_bad_domain(tmp_path):
    # physical-domain violations in resolved options are usage errors
    assert run("spectrum", "--j", "0", "--kappa", "1", "--out", tmp_path) == 1


def test_numerical_failure_exit_code(monkeypatch, tmp_path):
    from kickedtop import cli
    from kickedtop.floquet import DiagonalizationError

    def boom(params, sector, cache_dir=None):
        raise DiagonalizationError("synthetic eigensolver failure")

    monkeypatch.setattr(cli, "cached_eigensystem", boom)
    assert run("spectrum", "--j", "10", "--kappa", "1", "--out", tmp_path) == 2


def test_version_flag(capsys):
    assert run("--version") == 0
    assert "kickedtop" in capsys.readouterr().out
