"""Test of the benchmark itself, in about a minute.

    python3 bench/selftest.py

Runs every workload in smoke mode (tiny sizes, the same checks) with
tracing off and on, and checks that the result line has the schema
BENCHMARK.json asks for, that every run is correct with no failed
replication, and that the count metrics of two traced runs on one seed are
equal.  Then copies BENCHMARK.json and the benchmark into a directory
without the library and checks that the benchmark fails there, printing no
result.  Exits nonzero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5


def bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, text=True,
        capture_output=True, timeout=180,
    )


def smoke(workload, trace):
    out = bench(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--smoke"])
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n"
                             f"{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def check_line(line, metrics, where):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, where
    assert line["correct"] is True, where
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1, where
    assert line["failed"] == 0, where
    assert list(line["metrics"]) == [m["name"] for m in metrics], where
    for m in metrics:
        got = line["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], where
        assert isinstance(got["value"], (int, float)), where
        assert math.isfinite(got["value"]) and got["value"] >= 0, where


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        check_line(smoke(w, 0), spec["end_to_end"], f"{w} untraced")
        first, second = smoke(w, 1), smoke(w, 1)
        for line in (first, second):
            check_line(line, spec["per_layer"], f"{w} traced")
        for m in spec["per_layer"]:
            if m["unit"] == "count":
                a = first["metrics"][m["name"]]["value"]
                b = second["metrics"][m["name"]]["value"]
                assert a == b, f"{w}: {m['name']} reads {a} and then {b}"
        print(f"ok {w}", flush=True)

    bare = ROOT / ".bench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = bench(["--workload", "mmd-null", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert out.returncode != 0, "the benchmark ran without the library"
    assert '"metrics"' not in out.stdout, "a result was printed without the library"
    print("ok fails without the library")
    return 0


if __name__ == "__main__":
    sys.exit(main())
