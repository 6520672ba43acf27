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
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
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
    return (parent, change, relative), problems


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
            (parent, change, relative), found = compare_metric(workload[metric], spec)
            verdict = "ok" if not found else "FAIL"
            rows.append(f"{name:<17} {metric:<12} {parent:>12.4f} {change:>12.4f} "
                        f"{relative:>+9.1%} {spec['better']:>6} "
                        f"{spec['bound']:>6.0%}  {verdict}")
            problems += [f"{name} {metric}: {p}" for p in found]
    return rows, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("bench", help="a BENCH_*.json file")
    args = parser.parse_args(argv)
    bench = json.loads(Path(args.bench).read_text())
    benchmark = json.loads(BENCHMARK.read_text())
    rows, problems = compare(bench, benchmark)
    print(f"{'workload':<17} {'metric':<12} {'parent':>12} {'change':>12} "
          f"{'rel':>9} {'better':>6} {'bound':>6}  verdict")
    print("\n".join(rows))
    for p in problems:
        print(f"problem: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
