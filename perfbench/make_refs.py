"""Regenerate perfbench/refs/<workload>.json from the current sources.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs each recipe once per shipped seed (once for seed-independent
workloads) and stores the checked quantities.  Only regenerate after a
change whose output differences were reviewed against the old
references: the references are what the benchmark calls correct.
"""

import json
import shutil
import sys

import checks
import run


def main(names) -> int:
    for name in names or run.SPEC["workloads"]:
        wl_spec = run.SPEC["workloads"][name]
        seeds = range(run.SPEC["shipped_seeds"]) if wl_spec["seed_dependent"] else [0]
        refs = {}
        for seed in seeds:
            wl = run.Workload(name, seed)
            wl.setup_repeats = 1
            shutil.rmtree(wl.work_dir, ignore_errors=True)
            wl.work_dir.mkdir(parents=True)
            wl.setup()
            rec = run.run_child(wl.argv(wl_spec["argv"]), wl.work_dir / "rep.json", False, wl.env)
            if rec["rc"] != 0:
                print(f"{name} seed {seed}: exit code {rec['rc']}", file=sys.stderr)
                return 1
            refs[wl.ref_key] = checks.summarize(name, wl.out)
            print(f"{name} seed {wl.ref_key}: {rec['wall_s']:.2f} s")
        (run.HERE / "refs" / f"{name}.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
