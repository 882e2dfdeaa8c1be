"""kickedtop benchmark: reduced-size CLI recipes, each call in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Run from a checkout that holds ``src/kickedtop``.  Each repetition runs
one ``kickedtop.cli.main(argv)`` call in a new interpreter with
``--threads`` set to the usable core count and BLAS pinned to one
thread per worker.  Repetitions continue until ``--seconds`` have passed
(at least three, or two of each kind when tracing).  Every repetition's
CSVs are checked against the references in ``perfbench/refs``; ``--seed``
picks one of the shipped reference seeds (seed mod ``shipped_seeds``).

``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json
as medians over repetitions.  Their times are CPU times (user + system,
all threads) of the child process, not wall times: on a shared virtual
machine the hypervisor steals a varying share of wall time.  On a
2-vCPU VM, steal moved the run medians of portrait_csv's wall time
across a quarter to a third of their median, while its CPU time stayed
within a few percent.  Wall times are printed beside the CPU times and
reported by the traced run as ``e2e.wall_s``.  Since CPU time sums all
threads, the bounded metrics cannot show how work is spread over threads:
a parallel speed-up, or a pool that became serial, leaves them flat.
Quote ``e2e.wall_s`` for such changes.

``--trace 1`` alternates untraced and traced repetitions, requires their
CSVs to be byte-identical, and reports the per-layer metrics (medians
over traced repetitions) plus the tracing overhead; a warm workload's
cache fills are traced too and reported as ``setup.<metric>``.

Human-readable lines come first; the last line of standard output is
the JSON result.  A full record, with the
environment and every repetition, is written to
``.perfbench_out/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE / "workloads.json").read_text())
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 150  # stop starting repetitions after this, so a run ends well inside 180 s
KILL_AFTER_S = 170  # a child still running this long after the run began is killed and the run fails
# per-layer metrics of the traced cache fill, the layers predicted to move setup_s on dq_warm
SETUP_LAYER_METRICS = (
    "floquet.calls",
    "floquet.s",
    "floquet.diagonalize.s",
    "floquet.build_floquet.s",
    "floquet.parity_operator.s",
    "floquet.jx_eigenbasis.s",
    "cache.save_eigensystem.s",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; exits non-zero without a result."""


def load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(SPEC["blas_threads"])
    return env


def environment(cli_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kickedtop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_model": cpu,
        "nproc": usable_cores(),
        "cli_threads": cli_threads,
        "blas_threads": SPEC["blas_threads"],
    }


def run_child(argv: list, record: Path, trace: bool, env: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """One recipe call; adds wall set-up time (spawn to recipe start) and total wall time."""
    record.unlink(missing_ok=True)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(record), "1" if trace else "0", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=timeout,
    )
    total = time.monotonic() - t0
    if not record.exists():
        return {"rc": proc.returncode or 1, "total_s": total}
    rec = json.loads(record.read_text())
    rec["setup_wall_s"] = rec.pop("started") - t0
    rec["total_s"] = total
    return rec


def csv_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.wl = SPEC["workloads"][name]
        self.setup_repeats = SPEC["setup_repeats"]
        self.cli_seed = seed % SPEC["shipped_seeds"]
        self.ref_key = str(self.cli_seed) if self.wl["seed_dependent"] else "any"
        self.threads = usable_cores()
        self.work_dir = ROOT / ".perfbench_out" / name
        self.out = self.work_dir / "out"
        self.env = child_env()
        self.t_start = time.monotonic()  # reset when a run begins; bounds each child's time

    def argv(self, base: list) -> list:
        return [*base, "--seed", str(self.cli_seed), "--threads", str(self.threads), "--out", str(self.out)]

    def setup(self, trace: bool = False) -> list:
        """Fill the eigensystem cache of a warm workload; returns the fills' records."""
        if "setup_argv" not in self.wl:
            return []
        fills = []
        for _ in range(self.setup_repeats):
            shutil.rmtree(self.out, ignore_errors=True)
            argv = self.argv(self.wl["setup_argv"])
            rec = run_child(argv, self.work_dir / "setup.json", trace, self.env, self.time_left())
            if rec["rc"] != 0:
                raise BenchError(f"{self.name}: cache fill exited with {rec['rc']}")
            fills.append(rec)
        return fills

    def time_left(self) -> float:
        return max(1.0, self.t_start + KILL_AFTER_S - time.monotonic())

    def load_reference(self) -> dict:
        refs = load_json(HERE / "refs" / f"{self.name}.json")
        if self.ref_key not in refs:
            raise BenchError(f"{self.name}: no stored reference for seed {self.ref_key}")
        return refs[self.ref_key]

    def check(self) -> dict:
        try:
            summary = checks.summarize(self.name, self.out)
        except (OSError, ValueError, KeyError) as exc:
            return {"all": [f"unreadable output: {exc!r}"]}
        return checks.compare(summary, self.reference, self.wl["tolerances"])

    def run(self, seconds: float, trace: bool) -> dict:
        self.reference = self.load_reference()
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        self.t_start = time.monotonic()
        fills = self.setup(trace)
        deadline = time.monotonic() + seconds
        reps, canonical = [], None  # canonical: (CSV hashes, failures) of the first finished repetition
        attempted = failed = 0
        while True:
            traced = trace and len(reps) % 2 == 1
            if trace:
                enough = min(sum(r["traced"] for r in reps), sum(not r["traced"] for r in reps)) >= 2
            else:
                enough = len(reps) >= MIN_REPS
            if enough and (time.monotonic() >= deadline or time.monotonic() - self.t_start > RUN_LIMIT_S):
                break
            if self.wl["cache"] == "cold":
                shutil.rmtree(self.out, ignore_errors=True)
            argv = self.argv(self.wl["argv"])
            rec = run_child(argv, self.work_dir / "rep.json", traced, self.env, self.time_left())
            rec["traced"] = traced
            attempted += self.wl["tasks"]
            if rec["rc"] != 0:
                rec["failures"] = {"all": [f"exit code {rec['rc']}"]}
            else:
                hashes = csv_hashes(self.out)
                rec["csv_identical"] = canonical is None or hashes == canonical[0]
                if canonical is not None and rec["csv_identical"]:
                    rec["failures"] = canonical[1]
                else:
                    rec["failures"] = self.check()
                    if canonical is None:
                        canonical = (hashes, rec["failures"])
                    elif trace:
                        rec["failures"].setdefault("all", []).append("CSVs differ from the untraced repetition's")
            failed += checks.failed_tasks(rec["failures"], self.wl["tasks"])
            reps.append(rec)
        return {
            "reps": reps,
            "fills": fills,
            "attempted": attempted,
            "failed": failed,
        }


def setup_times(res: dict, ok: list) -> tuple[list, list]:
    """CPU and wall seconds of each set-up: the cache fills, else each repetition's start-up."""
    if res["fills"]:
        return [f["setup_cpu_s"] + f["cpu_s"] for f in res["fills"]], [f["total_s"] for f in res["fills"]]
    return [r["setup_cpu_s"] for r in ok], [r["setup_wall_s"] for r in ok]


def end_to_end(wl: Workload, res: dict) -> dict:
    ok = [r for r in res["reps"] if "wall_s" in r]
    if not ok:
        raise BenchError(f"{wl.name}: no repetition finished")
    cpu = statistics.median(r["cpu_s"] for r in ok)
    return {
        "cpu_s": cpu,
        "work_per_cpu_s": wl.wl["work"]["per_call"] / cpu,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "setup_s": statistics.median(setup_times(res, ok)[0]),
    }


def per_layer(res: dict, work_per_call: float) -> dict:
    traced = [r for r in res["reps"] if "wall_s" in r and r["traced"]]
    plain = [r for r in res["reps"] if "wall_s" in r and not r["traced"]]
    if not traced or not plain:
        raise BenchError("traced run needs a finished traced and untraced repetition")
    rows = [tracer.layer_metrics(r["trace"]) for r in traced]
    metrics = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    wall = statistics.median(r["wall_s"] for r in plain)
    metrics["e2e.wall_s"] = wall
    metrics["e2e.work_per_s"] = work_per_call / wall
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
    # the cache fill of a warm workload is set-up: its layers are reported apart, as setup.<metric>
    fills = [tracer.layer_metrics(f["trace"]) for f in res["fills"]]
    for name in SETUP_LAYER_METRICS:
        metrics[f"setup.{name}"] = statistics.median(row[name] for row in fills) if fills else 0.0
    return metrics


def _spread(values: list) -> str:
    """Median and quartiles, for the human-readable lines."""
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4f} (median of {len(values)}, quartiles {q1:.4f} .. {q3:.4f})"


def report(wl: Workload, res: dict, trace: bool, declared: list) -> dict:
    ok = [r for r in res["reps"] if "wall_s" in r]
    print(f"workload {wl.name}: reference seed {wl.ref_key}, {len(res['reps'])} repetitions, argv {' '.join(wl.argv(wl.wl['argv']))}")
    for r in res["reps"]:
        if r.get("failures"):
            print(f"  failed checks: {r['failures']}")
    values = per_layer(res, wl.wl["work"]["per_call"]) if trace else end_to_end(wl, res)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    units = {m["name"]: m["unit"] for m in declared}
    if trace:
        shares = sorted(((values[f"{l}.share"], l) for l in tracer.LAYERS), reverse=True)
        print("  layer shares of self thread-CPU time: " + ", ".join(f"{l} {s:.3f}" for s, l in shares))
        dominant = sum(values[f"{l}.share"] for l in wl.wl["dominant"])
        verdict = "yes" if dominant > 0.5 else "NO"
        print(f"  predicted dominant {'+'.join(wl.wl['dominant'])}: share {dominant:.3f}, dominates: {verdict}")
        print(f"  tracing overhead: {values['trace.overhead_s']:.4f} s over the untraced wall time")
        if res["fills"]:
            fill = f"floquet {values['setup.floquet.s']:.4f} s in {values['setup.floquet.calls']:.0f} calls"
            print(f"  cache fill (set-up): {fill}")
        dump = next(r["trace"] for r in res["reps"] if "trace" in r)
        absent = [f for f in tracer.FUNCTIONS if f not in dump["wrapped"]]
        if absent or dump["probe_errors"]:
            print(f"  absent functions: {absent}; probe errors: {dump['probe_errors']}")
    else:
        item = wl.wl["work"]["item"]
        setup_cpu, setup_wall = setup_times(res, ok)
        print(f"  cpu_s          {_spread([r['cpu_s'] for r in ok])} s   (CPU time of the recipe call)")
        print(f"  work_per_cpu_s {values['work_per_cpu_s']:.6g} {units['work_per_cpu_s']}   ({item} per CPU second)")
        print(f"  peak_rss_mb    {values['peak_rss_mb']:.1f} {units['peak_rss_mb']}")
        print(f"  setup_s        {_spread(setup_cpu)} s   (CPU time of set-up)")
        print(f"  wall time of the recipe call (not bounded): {_spread([r['wall_s'] for r in ok])} s")
        print(f"  wall time of set-up (not bounded): {_spread(setup_wall)} s")
    frac = res["failed"] / res["attempted"]
    print(f"  ops_failed_frac {frac:.3g} ({res['failed']}/{res['attempted']} operations)")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    env = environment(wl.threads)
    print(f"  env {json.dumps(env, sort_keys=True)}")
    (wl.work_dir / "result.json").write_text(
        json.dumps({"workload": wl.name, "trace": trace, "env": env, "result": result, **res}, indent=1, default=str)
    )
    return result


def main(argv=None) -> int:
    spec_names = list(SPEC["workloads"])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*spec_names, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        if not (ROOT / "src" / "kickedtop" / "cli.py").is_file():
            raise BenchError(f"no kickedtop sources under {ROOT / 'src'}; run from a checkout of the repository")
        bench = load_json(ROOT / "BENCHMARK.json")
        declared = bench["per_layer"] if args.trace else bench["end_to_end"]
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True, stdout=subprocess.DEVNULL)
        names = spec_names if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            wl = Workload(name, args.seed)
            results[name] = report(wl, wl.run(args.seconds, bool(args.trace)), bool(args.trace), declared)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        if not args.trace:
            print(f"{'workload':16s}" + "".join(f"{m['name'] + ' [' + m['unit'] + ']':>22s}" for m in declared) + "  ops_failed_frac")
            for name, r in results.items():
                row = "".join(f"{r['metrics'][m['name']]['value']:>22.6g}" for m in declared)
                print(f"{name:16s}{row}  {r['failed'] / r['attempted']:.3g}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
