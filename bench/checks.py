"""Correctness checks the benchmark makes apart from the library.

Each per-replication check returns a list of problems, empty when the
replication passes.  The run-level checks look at all replications of a run
together.  None compares against stored output: each recomputes what the
test promises from the returned ``TestResult`` or from plain numpy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom

# Test level of the run-level checks on mmd-null: a correct library fails a
# run with probability at most 2 * CHECK_LEVEL.
CHECK_LEVEL = 1e-3

_P_TOL = 1e-12


def check_replication(cfg, res):
    """Recompute the p-value, null count and decision of one TestResult."""
    problems = []
    nulls = np.asarray(res.null_stats, dtype=float)
    stat = float(res.statistic)
    if not math.isfinite(stat):
        problems.append(f"{cfg.method}: statistic is {stat}")
    if not np.all(np.isfinite(nulls)):
        problems.append(f"{cfg.method}: non-finite null statistics")
    count = int(np.sum(nulls >= stat))
    if cfg.method == "kci":
        size = cfg.null_samples
        # A spectral-null p-value: accept the plain rank fraction and the
        # (1 + #)/(1 + N) form, the two conventions for ranking N draws.
        lo, hi = count / size, (1 + count) / (1 + size)
        ok_p = lo - _P_TOL <= res.p_value <= hi + _P_TOL
    else:
        size = cfg.B
        ok_p = abs(res.p_value - (1 + count) / (1 + size)) <= _P_TOL
    if nulls.shape != (size,):
        problems.append(f"{cfg.method}: {nulls.size} null copies, expected {size}")
    if not ok_p:
        problems.append(f"{cfg.method}: p-value {res.p_value} disagrees with the "
                        f"rank of the statistic among {nulls.size} nulls ({count})")
    if bool(res.reject) != (res.p_value <= cfg.alpha):
        problems.append(f"{cfg.method}: reject flag disagrees with p <= alpha")
    return problems


def exact_level(cfg):
    """The exact size floor(alpha (B+1)) / (B+1) of a Monte Carlo test."""
    return math.floor(cfg.alpha * (cfg.B + 1)) / (cfg.B + 1)


def check_null_calibration(cfg, pvalues):
    """Rejections and p-values of an exact test under the null.

    The rejection count must lie in the equal-tailed binomial interval of
    coverage 1 - CHECK_LEVEL around the exact level, and the p-values must
    not depart from the discrete uniform law on {1, ..., B+1} / (B+1) by more
    than the Dvoretzky-Kiefer-Wolfowitz bound at CHECK_LEVEL, which holds
    for discrete laws too.
    """
    p = np.asarray(pvalues, dtype=float)
    reps = p.size
    level = exact_level(cfg)
    rejections = int(np.sum(p <= cfg.alpha))
    lo = int(binom.ppf(CHECK_LEVEL / 2, reps, level))
    hi = int(binom.ppf(1 - CHECK_LEVEL / 2, reps, level))
    problems = []
    if not lo <= rejections <= hi:
        problems.append(f"{rejections} rejections in {reps} replications lie "
                        f"outside [{lo}, {hi}] around the exact level {level}")
    grid = np.arange(1, cfg.B + 2) / (cfg.B + 1)
    ecdf = np.searchsorted(np.sort(p), grid + _P_TOL, side="right") / reps
    distance = float(np.max(np.abs(ecdf - grid)))
    bound = math.sqrt(math.log(2 / CHECK_LEVEL) / (2 * reps))
    if distance > bound:
        problems.append(f"p-values depart from the discrete uniform law: "
                        f"sup distance {distance:.3f} > {bound:.3f}")
    return problems, {"rejections": rejections, "interval": [lo, hi],
                      "exact_level": level, "uniform_distance": distance,
                      "uniform_bound": bound}


def check_power(cfg, rejects, floor):
    """The rejection rate under an alternative must reach ``floor``."""
    rate = float(np.mean(rejects))
    if rate < floor:
        return [f"{cfg.method}: power {rate:.3f} below the floor {floor}"], rate
    return [], rate


# ---------------------------------------------------------------------------
# KCI statistic in plain numpy


def _rbf_gram(A, bandwidth):
    A = A.reshape(A.shape[0], -1)
    d2 = np.sum((A[:, None, :] - A[None, :, :]) ** 2, axis=2)
    return np.exp(-d2 / (2.0 * bandwidth**2))


def median_distance(A):
    A = A.reshape(A.shape[0], -1)
    d = np.sqrt(np.sum((A[:, None, :] - A[None, :, :]) ** 2, axis=2))
    return float(np.median(d[np.triu_indices(A.shape[0], k=1)]))


def kci_reference(X, Z, M, bw_x, bw_z, bw_m, eps):
    """(1/n) sum_ij A_ij B_ij with A = R H(K_X o K_M)H R, B = R H K_Z H R.

    R = eps (H K_M H + eps I)^{-1} and H = I - 11'/n.
    """
    n = X.shape[0]
    h = np.eye(n) - 1.0 / n
    k_m = _rbf_gram(M, bw_m)
    r = eps * np.linalg.inv(h @ k_m @ h + eps * np.eye(n))
    a = r @ h @ (_rbf_gram(X, bw_x) * k_m) @ h @ r
    b = r @ h @ _rbf_gram(Z, bw_z) @ h @ r
    return float(np.sum(a * b) / n)
