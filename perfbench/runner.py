"""One round of a workload: a fresh interpreter runs one andloc command.

Usage: python3 runner.py --trace 0|1 -- <andloc arguments>

andloc must be importable (run.py puts the checkout's src/ on PYTHONPATH).
The last line of standard output is a JSON object with the monotonic time at
which the imports were done, the command's exit code and wall time, the peak
resident memory of this process and of its largest worker, and, with
--trace 1, the per-layer metrics of spans.py.
"""

import json
import resource
import sys
import time

import andloc.cli

READY = time.monotonic()


def main() -> None:
    if sys.argv[1] != "--trace" or sys.argv[3] != "--":
        raise SystemExit("usage: runner.py --trace 0|1 -- <andloc arguments>")
    traced = sys.argv[2] == "1"
    argv = sys.argv[4:]
    tracer = None
    if traced:
        import spans
        tracer = spans.install()
    t0 = time.perf_counter()
    code = andloc.cli.main(argv)
    wall = time.perf_counter() - t0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "ready": READY,
        "exit": code,
        "wall_s": wall,
        "peak_rss_kb": own + workers,
        "layers": tracer.metrics() if tracer is not None else None,
    }))


if __name__ == "__main__":
    main()
