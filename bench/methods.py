"""Milliseconds per replication for every CLI method at n=200, B=99.

    python3 bench/methods.py [--reps 5] [--seed 1]

The figures of the reference table in README.md.  Each method runs one
untimed warm-up replication, then ``--reps`` timed ones through
``harness.run_replication``, each followed by a speed probe (speed.py).
The median wall time and the median time at the probe's nominal speed are
printed as a markdown row.  BLAS runs on one thread, as in the benchmark.
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from speed import probe, per_interval  # noqa: E402
from worker import import_symtest  # noqa: E402

SCALE = dict(n=200, B=99, m=2)
METHODS = [
    ("mmd", dict(method="mmd", group="so(4)", generator="gauss-iso(d=4)")),
    ("mmd", dict(method="mmd", group="sym(10)", generator="gauss-iso(d=10)")),
    ("nmmd", dict(method="nmmd", group="so(4)", generator="gauss-iso(d=4)")),
    ("cw", dict(method="cw", group="so(4)", generator="gauss-iso(d=4)")),
    ("2smmd", dict(method="2smmd", group="so(4)", generator="gauss-iso(d=4)")),
    ("inversion-mmd", dict(method="inversion-mmd", group="so(3)",
                           generator="vmf(d=3,kappa=1)", kernel="so3")),
    ("kci", dict(method="kci", group="so(3)", generator="cond-shift(d=3)")),
    ("cp", dict(method="cp", group="so(3)", generator="cond-shift(d=3)")),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    import_symtest()
    from symtest.harness import ExperimentConfig, run_replication

    print("| method | group | generator | wall ms per replication | ms at nominal speed |")
    print("| --- | --- | --- | --- | --- |")
    for label, fields in METHODS:
        cfg = ExperimentConfig.from_dict(dict(SCALE, **fields, seed=args.seed, reps=1))
        run_replication(cfg, 0)
        times, probes = [], [probe()]
        for rep in range(1, args.reps + 1):
            t0 = time.perf_counter()
            run_replication(cfg, rep)
            times.append((time.perf_counter() - t0) * 1e3)
            probes.append(probe())
        nominal = [t / s for t, s in zip(times, per_interval(probes))]
        print(f"| `{label}` | `{cfg.group}` | `{cfg.generator}` | "
              f"{statistics.median(times):.0f} | {statistics.median(nominal):.0f} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
