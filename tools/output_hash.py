"""Hash the outputs of the benchmark configs and the pinned configs.

    python3 tools/output_hash.py [--src DIR] [--reps 40] [--seed 0]

For each config of each workload in ``bench/worker.py`` (at the sizes the
benchmark runs, with seed ``--seed``) and each ``PINNED`` config of
``tests/test_harness.py`` (at the sizes and seed that test uses), runs
replications 0 to ``--reps`` - 1 through ``harness.run_replication`` and
prints one SHA-256 over their ``statistic``, ``p_value`` and
``null_stats``, as ``<name> <hash>``.  For the ``PINNED`` configs of the
methods in ``POWER_METHODS`` it then prints, as ``pinned/power-<method>``,
one SHA-256 over the ``betas`` and ``p_nulls`` of
``harness.run_power_estimate`` at ``POWER_RESAMPLES`` resamples.  Two
versions of the library give the same line exactly when they give the
same outputs bit for bit.
``--src`` imports symtest from another checkout's ``src`` directory; the
configs always come from this checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the PINNED methods whose power estimates are hashed, and their resamples
POWER_METHODS = ("mmd", "nmmd", "cw")
POWER_RESAMPLES = 4


def _module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def configs(seed):
    """(name, ExperimentConfig) for every benchmark and pinned config."""
    from symtest.harness import ExperimentConfig

    worker = _module("bench_worker", ROOT / "bench" / "worker.py")
    pinned = _module("pinned_configs", ROOT / "tests" / "test_harness.py")
    out = []
    for workload, spec in worker.WORKLOADS.items():
        for fields in spec["configs"]:
            cfg = ExperimentConfig.from_dict(dict(fields, seed=seed, reps=1))
            out.append((f"{workload}/{cfg.method}", cfg))
    for fields, _ in pinned.PINNED:
        cfg = ExperimentConfig.from_dict(dict(fields, **pinned.PINNED_SIZES))
        out.append((f"pinned/{cfg.method}", cfg))
    return out


def output_hash(cfg, reps):
    """SHA-256 over the outputs of replications 0 to reps - 1 of ``cfg``."""
    import numpy as np

    from symtest.harness import run_replication

    digest = hashlib.sha256()
    for rep in range(reps):
        res = run_replication(cfg, rep)
        for value in (res.statistic, res.p_value, res.null_stats):
            digest.update(np.asarray(value, dtype=float).tobytes())
    return digest.hexdigest()


def power_hash(cfg):
    """SHA-256 over the ``betas`` and ``p_nulls`` of the power estimate of ``cfg``."""
    import numpy as np

    from symtest.harness import run_power_estimate

    est = run_power_estimate(cfg)
    digest = hashlib.sha256()
    for value in (est.betas, est.p_nulls):
        digest.update(np.asarray(value, dtype=float).tobytes())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--reps", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    named = configs(args.seed)
    for name, cfg in named:
        print(f"{name} {output_hash(cfg, args.reps)}", flush=True)
    for name, cfg in named:
        if name.startswith("pinned/") and cfg.method in POWER_METHODS:
            cfg = dataclasses.replace(cfg, n_resamples=POWER_RESAMPLES)
            print(f"pinned/power-{cfg.method} {power_hash(cfg)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
