"""Benchmark of symtest: one workload per call, in fresh single-threaded processes.

    python3 bench/run.py --workload mmd-null --seed 1 --seconds 30 --trace 0

Times SETUP_SAMPLES fresh processes from start until symtest is imported and
the workload's configs are built (``setup_s`` is their median), the last of
which goes on to run the workload (see worker.py).  Prints the worker's
notes, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The replication times behind ``reps_per_s``, ``rep_ms_p50`` and
``rep_ms_p90`` are taken at the nominal speed of speed.py, so that the
machine's drift does not read as a change to the program; the wall times
are printed too.  ``--smoke`` runs the same checks at tiny sizes.  The full record of the run,
with per-replication times, goes to ``.bench_runs/`` in the checkout.
Exits with a nonzero code, printing no result, when the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def spawn(args):
    return subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, env=dict(os.environ, **BLAS_ENV),
    )


def seconds_to_ready(proc, t0):
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise BenchError("the workload process did not get ready")
    return time.perf_counter() - t0


def finish(proc, deadline):
    """Wait for ``proc`` until ``deadline``; return its remaining output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("the workload process ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"the workload process exited with {proc.returncode}")
    return out


def run(args, deadline):
    worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        worker_args.append("--smoke")
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            t0 = time.perf_counter()
            proc = spawn(worker_args + ["--setup-only"])
            try:
                setup.append(seconds_to_ready(proc, t0))
            finally:
                finish(proc, deadline)
    t0 = time.perf_counter()
    proc = spawn(worker_args + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
    try:
        setup.append(seconds_to_ready(proc, t0))
    finally:
        out = finish(proc, deadline)
    record = json.loads(out.splitlines()[-1])
    record["setup_s_samples"] = setup
    if setup and not args.trace:
        record["metrics"]["setup_s"] = statistics.median(setup)
    return record


def result_line(record, spec, trace):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in record["metrics"]]
    if missing:
        raise BenchError(f"the run did not measure {missing}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n], "unit": units[n]}
                    for n in names},
    }


def main(argv=None):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"benchmark failed: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for testing the benchmark itself")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    try:
        record = run(args, deadline)
        line = result_line(record, spec, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for p in record["problems"]:
        print(f"problem: {p}")
    slow = record["slowdown"]
    wall = record["wall"]
    print(f"machine slowdown: median {statistics.median(slow):.3f}, "
          f"from {min(slow):.3f} to {max(slow):.3f} over {len(slow)} probes")
    print(f"wall time (not a metric): {wall['rep_ms_p50']:.1f} ms p50, "
          f"{wall['rep_ms_p90']:.1f} ms p90, {wall['reps_per_s']:.3f} reps/s")
    print(f"{record['attempted']} replications, {record['failed']} failed, "
          f"checks {record['checks']}")
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    tag = "-smoke" if args.smoke else ""
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
