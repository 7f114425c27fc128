"""Benchmark for andloc: time one workload end to end, or trace it per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload moment_box --seed 1 --seconds 30 --trace 0

A round runs one andloc command in a fresh interpreter (runner.py), as a
user would: interpreter start and imports are the set-up, the command the
timed part.  Rounds follow each other in a closed loop, one at a time, as
long as the next round is expected to end within --seconds.  Round i of a
run with seed n gives andloc the seed 1000 n + i.  After the loop the
benchmark reruns the first round's inputs with another worker count where
the workload asks for it, checks every round's output, and plants a defect
for every check to show that it fails.

--trace 0 reports the end-to-end metrics as medians over the rounds.
--trace 1 runs each round's inputs twice, plain and traced, and reports the
per-layer metrics of the traced rounds, the tracing overhead (traced minus
plain wall time) and the estimator's time to a 10% error bar.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A round fails when the command could not
produce its artifact (a crash, a kill at the run's deadline, or exit code 2,
3 or 4); exit code 1, a bound check that failed, is an output and fails the
checks instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS
from workloads import WORKLOADS, round_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

#: a round still running this long after the run started is killed and
#: counted as failed, so that a run ends within 180 s
DEADLINE_S = 165.0
#: andloc exit codes that mean no result was produced
NO_RESULT_EXITS = {2, 3, 4}
#: what reading an artifact of the wrong shape raises; such output fails
MALFORMED = (KeyError, IndexError, TypeError, ValueError, StopIteration)


def _runner_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # worker counts come from the workload alone
    env.pop("ANDERSON_THREADS", None)
    return env


def run_round(argv: list, out_path: Path, traced: bool, keep_doc: bool,
              seed: int, workers: int, deadline: float) -> dict | None:
    """One andloc command in a fresh interpreter; None when it gave no result."""
    cmd = [sys.executable, str(HERE / "runner.py"), "--trace", "1" if traced else "0",
           "--", *argv, "--out", str(out_path)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=_runner_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - spawned, 0.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"round {' '.join(argv)}: killed at the run's deadline", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"round {' '.join(argv)}: runner exited {proc.returncode}\n{stderr}",
              file=sys.stderr)
        return None
    rec = json.loads(lines[-1])
    if rec["exit"] in NO_RESULT_EXITS:
        print(f"round {' '.join(argv)}: andloc exited {rec['exit']}\n{stderr}",
              file=sys.stderr)
        return None
    with open(out_path) as fh:
        doc = json.load(fh)
    out_path.unlink()
    rec.update(seed=seed, workers=workers, setup_s=rec["ready"] - spawned,
               digest=hashlib.sha256(json.dumps(doc["result"], sort_keys=True)
                                     .encode()).hexdigest(),
               doc=doc if keep_doc else None)
    return rec


def self_test(workload, outputs: dict, checks: dict, defects: list) -> list:
    """Plant each defect in a copy of the outputs; list those no check caught."""
    missed = []
    for description, name, plant in defects:
        planted = pickle.loads(pickle.dumps(outputs))
        plant(planted)
        try:
            caught = bool(checks[name](planted))
        except MALFORMED:
            caught = True
        if not caught:
            missed.append(f"{workload.name}: check {name} passed {description}")
    return missed


def _traced_unchanged(out: dict) -> list:
    return [f"seed {a['seed']}: traced result differs"
            for a, b in out["pairs"] if a["digest"] != b["digest"]]


def _plant_traced_change(out: dict) -> None:
    out["pairs"][0] = (out["pairs"][0][0], dict(out["pairs"][0][1], digest="planted"))


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "andloc" / "cli.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"error: no andloc source tree at {SRC} with {TESTS / 'oracles.py'}; "
              "run from the root of an andloc checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    traced = bool(args.trace)
    out_dir = ROOT / ".perfbench_out" / f"{wl.name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(wl, args, traced, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def _run(wl, args, traced: bool, out_dir: Path) -> int:
    plain, pairs = [], []
    attempted = failed = 0
    start = time.monotonic()
    deadline = start + DEADLINE_S
    durations = []
    index = 0
    # start a round only if rounds so far say it ends within --seconds
    while not durations or (time.monotonic() - start + statistics.median(durations)
                            <= args.seconds):
        began = time.monotonic()
        seed = round_seed(args.seed, index)
        cmd = wl.argv(seed, wl.workers)
        recs = []
        for tr in (False, True) if traced else (False,):
            attempted += 1
            keep = not tr and (wl.keep_every_doc or index == 0)
            rec = run_round(cmd, out_dir / f"round{index}-{int(tr)}.json", tr, keep,
                            seed, wl.workers, deadline)
            failed += rec is None
            recs.append(rec)
            if rec is not None:
                print(f"{wl.name} seed {seed}{' traced' if tr else ''}: "
                      f"setup {rec['setup_s']:.3f} s, wall {rec['wall_s']:.3f} s, "
                      f"exit {rec['exit']}", file=sys.stderr)
        if recs[0] is not None:
            plain.append(recs[0])
        if traced and None not in recs:
            pairs.append(tuple(recs))
        durations.append(time.monotonic() - began)
        index += 1

    problems = []
    reference = None
    if not plain:
        problems.append(f"{wl.name}: no round gave a result")
    elif wl.reference_workers is not None:
        first = plain[0]["seed"]
        reference = run_round(wl.argv(first, wl.reference_workers),
                              out_dir / "reference.json", False, True, first,
                              wl.reference_workers, deadline)
        if reference is None:
            problems.append(f"{wl.name}: the reference run gave no result")

    checks, defects = dict(wl.checks), list(wl.defects)
    if traced:
        checks["traced"] = _traced_unchanged
        defects.append(("a traced round with another result", "traced",
                        _plant_traced_change))
    if not problems:
        outputs = {"rounds": plain, "reference": reference, "pairs": pairs}
        try:
            outputs["extra"] = wl.prepare(outputs)
            for name, check in checks.items():
                problems += [f"{wl.name} {name}: {msg}" for msg in check(outputs)]
        except MALFORMED as exc:
            problems.append(f"{wl.name}: malformed output: {exc!r}")
        if not problems:
            problems += self_test(wl, outputs, checks, defects)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    if traced:
        metrics = {}
        for name, unit in LAYER_METRICS:
            metrics[name] = {"value": median(b["layers"][name] for _, b in pairs),
                             "unit": unit}
        metrics["moments.time_to_10pct_s"] = {
            "value": median(r["wall_s"] * (wl.precision(r["doc"]) / 0.1) ** 2
                            for r in plain) if wl.precision else 0.0,
            "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": median(b["wall_s"] - a["wall_s"] for a, b in pairs), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": median(r["setup_s"] for r in plain), "unit": "s"},
            "wall_s": {"value": median(r["wall_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": median(r["peak_rss_kb"] / 1024.0 for r in plain),
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
