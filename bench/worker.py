"""Run one benchmark workload in this process and print its record.

Started by run.py with BLAS threads pinned to 1.  The worker imports
symtest from the checkout's ``src``, builds the workload's
``ExperimentConfig``s and prints ``ready``; with ``--setup-only`` it stops
there.  Otherwise it runs one untimed warm-up replication, then times
replications 1, 2, ... until ``--seconds`` have passed (and at least
MIN_REPS have run), checks every output, and prints one JSON record as its
last line.  Checks that take more than a moment, such as the numpy KCI
statistic, run after the timed phase.

After each config's part of a replication the worker probes the machine's
speed (speed.py).  The timing metrics are the parts' times divided by the
slowdown around them, summed per replication: times at the probe's nominal
speed.  The plain wall times are kept in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# Replications a run makes at least; the count metrics of a traced run are
# averaged over the first MIN_REPS, so that they repeat exactly for a seed.
MIN_REPS = 10

# Sizes start from the acceptance suite (n=200, B=99) and are cut so that a
# 30 s run holds well over 100 replications on a 2-core machine; README.md
# gives the reasons per workload.
_EQUIVARIANCE = dict(group="so(3)", generator="cond-abs(d=3)", n=64, B=49,
                     burn_in=10)

# name -> the configs one replication runs, the sizes of the smoke profile,
# and the checks made over the whole run
WORKLOADS = {
    "mmd-null": {
        "configs": [dict(method="mmd", group="so(4)", generator="gauss-iso(d=4)",
                         n=200, m=2, B=59, kernel="rbf(median)")],
        "smoke": dict(n=20, B=19),
        "null": True,
    },
    "inversion-alt": {
        "configs": [dict(method="inversion-mmd", group="so(3)",
                         generator="vmf(d=3,kappa=1)", n=100, B=59, kernel="so3")],
        "smoke": dict(n=20, B=19),
        "power_floor": 0.5,
    },
    "equivariance-alt": {
        # both configs share seed and replication index, hence the data
        "configs": [dict(_EQUIVARIANCE, method="kci"),
                    dict(_EQUIVARIANCE, method="cp")],
        "smoke": dict(n=20, B=19, burn_in=2, null_samples=50),
        "power_floor": 0.7,
        "kci_check": True,
    },
}

_KCI_RTOL = 1e-6


def import_symtest():
    sys.path.insert(0, str(ROOT / "src"))
    import symtest

    if not Path(symtest.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"symtest was imported from {symtest.__file__}, "
                         f"not from {ROOT / 'src'}")
    return symtest


def build_configs(name, smoke, seed):
    from symtest.harness import ExperimentConfig

    spec = WORKLOADS[name]
    extra = spec["smoke"] if smoke else {}
    return [ExperimentConfig.from_dict(dict(c, **extra, seed=seed, reps=1))
            for c in spec["configs"]]


def kci_recheck(cfg, rep):
    """Recompute one replication's KCI statistic with plain numpy.

    Draws the replication's data as the harness does, standardises it with
    the public ``transform_responses``, and compares ``kci_statistic`` with
    the numpy formula at median bandwidths.
    """
    from checks import kci_reference, median_distance
    from symtest import GaussianRBF, KciConfig, kci_statistic, transform_responses
    from symtest.groups import parse_group
    from symtest.synthdata import parse_generator, sample

    rng = np.random.default_rng([cfg.seed, rep])
    X, Y = sample(parse_generator(cfg.generator), cfg.n, rng)
    data = transform_responses(X, Y, parse_group(cfg.group))
    bws = [median_distance(v) for v in (data.X, data.Z, data.M)]
    kci_cfg = KciConfig(*(GaussianRBF(b) for b in bws), epsilon=cfg.epsilon)
    got = kci_statistic(data, kci_cfg)
    want = kci_reference(data.X, data.Z, data.M, *bws, cfg.epsilon)
    if not abs(got - want) <= _KCI_RTOL * abs(want) + 1e-12:
        return [f"kci_statistic {got!r} differs from the numpy value {want!r}"]
    return []


def machine_notes():
    import scipy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run(name, seed, seconds, trace, smoke):
    from checks import check_null_calibration, check_power, check_replication
    from speed import per_interval, probe
    from symtest import harness  # looked up per call, so a tracer can wrap it

    spec = WORKLOADS[name]
    configs = build_configs(name, smoke, seed)
    print("ready", flush=True)

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    for cfg in configs:
        harness.run_replication(cfg, 0)

    probes = [probe()]
    rep_parts, layer_rows, results, failed_reps, problems = [], [], {}, set(), []
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - start < seconds:
        rep += 1
        if tracer is not None:
            tracer.begin()
        parts, out = [], []
        try:
            for cfg in configs:
                t0 = time.perf_counter()
                try:
                    out.append(harness.run_replication(cfg, rep))
                finally:
                    parts.append((time.perf_counter() - t0) * 1e3)
                    probes.append(probe())
        except Exception:  # a failed operation; the run goes on
            out = None
            found = [f"replication {rep} raised:\n{traceback.format_exc()}"]
        rep_parts.append(parts)
        if tracer is not None:
            layer_rows.append(tracer.end())
        if out is not None:
            found = [p for cfg, res in zip(configs, out)
                     for p in check_replication(cfg, res)]
            results[rep] = out
        if found:
            failed_reps.add(rep)
            problems.extend(found)
    attempted = rep
    if tracer is not None:
        tracer.uninstall()

    run_problems, checks = [], {}
    if spec.get("kci_check"):
        for r in results:
            found = kci_recheck(configs[0], r)
            if found:
                failed_reps.add(r)
                problems.extend(found)
    # checks over the whole run, on the replications that did not fail
    good = [results[r] for r in sorted(results) if r not in failed_reps]
    if good and spec.get("null"):
        found, checks["null"] = check_null_calibration(
            configs[0], [out[0].p_value for out in good])
        run_problems.extend(found)
    if good and "power_floor" in spec:
        floor = 0.0 if smoke else spec["power_floor"]
        for i, cfg in enumerate(configs):
            found, rate = check_power(cfg, [out[i].reject for out in good], floor)
            checks[f"power.{cfg.method}"] = rate
            run_problems.extend(found)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "sizes": [c.__dict__ for c in configs],
        "correct": not run_problems,
        "attempted": attempted, "failed": len(failed_reps),
        "problems": (problems + run_problems)[:20],
        "checks": checks,
        "rep_parts_ms": rep_parts,
        "slowdown": probes,
        "machine": machine_notes(),
    }
    ms = np.asarray([sum(parts) for parts in rep_parts])
    record["wall"] = {
        "reps_per_s": attempted / (ms.sum() / 1e3),
        "rep_ms_p50": float(np.median(ms)),
        "rep_ms_p90": float(np.percentile(ms, 90)),
    }
    slowdown = iter(per_interval(probes))
    ms = np.asarray([sum(t / next(slowdown) for t in parts) for parts in rep_parts])
    record["metrics"] = {
        "reps_per_s": attempted / (ms.sum() / 1e3),
        "rep_ms_p50": float(np.median(ms)),
        "rep_ms_p90": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["layer_mean_ms"] = {k: float(np.mean([row[k] for row in layer_rows]))
                                   for k in layer_rows[0] if k.endswith(".ms")}
        for key in layer_rows[0]:
            values = [row[key] for row in layer_rows]
            if key.endswith(".ms"):
                record["metrics"][key] = float(np.median(values))
            else:
                record["metrics"][key] = float(np.mean(values[:MIN_REPS]))
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_symtest()
    if args.setup_only:
        build_configs(args.workload, args.smoke, args.seed)
        print("ready", flush=True)
        return 0
    record = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
