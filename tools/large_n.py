"""Time one large-n ``mmd`` test and report the process's peak memory.

    python3 tools/large_n.py --n 3000 [--src DIR]

Runs ``mc_invariance_test`` with the ``mmd-u`` statistic once, under so(4),
with B = 9, on n standard normal points in R^4 drawn from seed 1, with the
fixed kernel ``rbf(2.0)`` (no median is taken), and prints n, B, the
seconds the test took, the peak resident memory of the process in MB and
the p-value.  ``--src`` imports
symtest from another checkout's ``src`` directory, so that two versions can
be compared with one script; run each in a fresh process with
``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

B = 9
SEED = 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np

    from symtest import GaussianRBF, mc_invariance_test, so

    rng = np.random.default_rng(SEED)
    X = rng.standard_normal((args.n, 4))
    start = time.perf_counter()
    res = mc_invariance_test(X, so(4), GaussianRBF(2.0), B=B, rng=rng)
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"n={args.n} B={B} seconds={seconds:.3f} "
          f"peak_rss_mb={peak_mb:.1f} p_value={res.p_value}")


if __name__ == "__main__":
    main()
