"""Check a BENCH file's parent/change comparison against BENCHMARK.json.

    python3 tools/bench_compare.py BENCH_<label>.json

For each workload and each end-to-end metric of BENCHMARK.json, recomputes
the parent and change medians from the metric's ``runs``, the relative
change ``(change - parent) / parent`` and whether the change stays within
the metric's bound in its worse direction (``better`` says which way is
better).  Prints one row per workload and metric.  Exits 1 when a metric is
worse than its bound, or when a stored field (unit, better, bound, the
medians, the relative change, within_bound) disagrees with what it
recomputes.

A workload may also carry ``wall`` runs: for each of WALL_METRICS, the
parent and change values of the plain wall-time block ``wall`` of each
run's ``.bench_runs/`` record.  Their medians and relative change are
printed as ``wall.<metric>`` rows with the verdict ``info``; they never
fail.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
WALL_METRICS = ("rep_ms_p50", "rep_ms_p90", "reps_per_s")
_REL_TOL = 1e-9


def _same(stored, value):
    if isinstance(value, float):
        return isinstance(stored, (int, float)) and math.isclose(
            stored, value, rel_tol=_REL_TOL, abs_tol=1e-12)
    return stored == value


def compare_metric(entry, spec):
    """Recompute one metric's comparison; return (row values, problems)."""
    parent = statistics.median(entry["runs"]["parent"])
    change = statistics.median(entry["runs"]["change"])
    relative = (change - parent) / parent
    worse = relative if spec["better"] == "lower" else -relative
    within = worse <= spec["bound"]
    expected = {"unit": spec["unit"], "better": spec["better"],
                "bound": spec["bound"], "parent": parent, "change": change,
                "relative_change": relative, "within_bound": within}
    problems = [f"stored {key}={entry.get(key)!r}, recomputed {value!r}"
                for key, value in expected.items()
                if not _same(entry.get(key), value)]
    if not within:
        problems.append(f"worse by {worse:.1%}, past the bound {spec['bound']:.0%}")
    return (parent, change), problems


def _row(name, metric, parent, change, better, bound, verdict):
    relative = (change - parent) / parent
    return (f"{name:<17} {metric:<15} {parent:>12.4f} {change:>12.4f} "
            f"{relative:>+9.1%} {better:>6} {bound:>6}  {verdict}")


def wall_rows(name, workload, benchmark):
    """The informational rows of a workload's ``wall`` runs, if it has any."""
    better = {spec["name"]: spec["better"] for spec in benchmark["end_to_end"]}
    wall = workload.get("wall", {})
    return [_row(name, f"wall.{metric}", statistics.median(wall[metric]["parent"]),
                 statistics.median(wall[metric]["change"]), better[metric], "-", "info")
            for metric in WALL_METRICS if metric in wall]


def compare(bench, benchmark):
    """Return the printed rows and the list of problems found."""
    rows, problems = [], []
    for name in (w["name"] for w in benchmark["workloads"]):
        workload = bench["workloads"].get(name)
        if workload is None:
            problems.append(f"{name}: workload missing")
            continue
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            if metric not in workload:
                problems.append(f"{name} {metric}: metric missing")
                continue
            (parent, change), found = compare_metric(workload[metric], spec)
            rows.append(_row(name, metric, parent, change, spec["better"],
                             f"{spec['bound']:.0%}", "FAIL" if found else "ok"))
            problems += [f"{name} {metric}: {p}" for p in found]
        rows += wall_rows(name, workload, benchmark)
    return rows, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("bench", help="a BENCH_*.json file")
    args = parser.parse_args(argv)
    bench = json.loads(Path(args.bench).read_text())
    benchmark = json.loads(BENCHMARK.read_text())
    rows, problems = compare(bench, benchmark)
    print(f"{'workload':<17} {'metric':<15} {'parent':>12} {'change':>12} "
          f"{'rel':>9} {'better':>6} {'bound':>6}  verdict")
    print("\n".join(rows))
    for p in problems:
        print(f"problem: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
