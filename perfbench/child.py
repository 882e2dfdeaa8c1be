"""One recipe call in a fresh process: ``child.py RECORD TRACE CLI-ARGS...``.

Writes RECORD, a JSON object with the exit code, the monotonic clock
when the recipe started (set-up ends there), the process CPU time spent
before it, the recipe's wall and CPU time, peak RSS and, with TRACE=1,
the tracer's dump.
"""

import json
import resource
import sys
import time

import kickedtop.cli as cli


def run(record: str, trace: bool, argv: list) -> None:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # rebinds cli.main to its traced wrapper
    c0 = time.process_time()
    started = time.monotonic()
    t0 = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - t0
    rec = {
        "rc": rc,
        "started": started,
        "setup_cpu_s": c0,  # interpreter start-up and imports
        "wall_s": wall,
        "cpu_s": time.process_time() - c0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        rec["trace"] = tracer.dump()
    with open(record, "w") as fh:
        json.dump(rec, fh)


if __name__ == "__main__":
    run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:])
