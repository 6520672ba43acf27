"""References for the conditional tests: the KCI spectral null and CP.

``kci_test`` draws its null from a Gamma law matched to two moments of the
product A o B.  ``spectral_null_draws`` is the law it approximates, read from
the spectrum of A o B (Zhang, Peters, Janzing & Schoelkopf 2011, Prop. 5),
and ``spectral_moments`` gives that law's mean and variance from the full
spectrum.

``cp_test`` advances its B swap chains as one stack and scores all permuted
copies from one factorisation of the design and one SVD of the responses.
These references do the same work one piece at a time: one pair's swap odds
from the full log-sum matrix, one swap decision at a time, and one SVD and
one ``lstsq`` per copy.  They draw the chains' random numbers exactly as the
library does, one ``permuted`` and one ``uniform`` call per sweep over the
whole stack, so their results are comparable bit for bit.
"""

import numpy as np

from symtest.condsym import _log_joint_sums, transform_responses
from symtest.invariance import pvalue_from_nulls

_EIG_TRUNC = 1e-10


def all_eigs(ab):
    """Every eigenvalue of the symmetrised product ``(ab + ab^T) / 2``."""
    return np.linalg.eigvalsh((ab + ab.T) / 2.0)


def _trimmed_eigs(ab):
    """The positive eigenvalues of the symmetrised ``ab``, above a relative cut."""
    vals = all_eigs(ab)
    vals = vals[vals > 0]
    if vals.size == 0:
        return vals
    return vals[vals >= _EIG_TRUNC * vals.max()]


def spectral_null_draws(ab, null_samples, rng):
    """``null_samples`` draws of (1/n) sum_k g_k z_k^2, g the spectrum of A o B."""
    g = _trimmed_eigs(ab)
    if g.size == 0:
        return np.zeros(null_samples)
    return (rng.standard_normal((null_samples, g.size)) ** 2) @ g / ab.shape[0]


def spectral_moments(ab):
    """Mean sum(lam)/n and variance 2 sum(lam^2)/n^2 of the spectral null."""
    lam, n = all_eigs(ab), ab.shape[0]
    return float(lam.sum()) / n, 2.0 * float(lam @ lam) / n**2


def kcde_swap_odds(data, config, i, j, assignment=None):
    """Odds ratio for swapping the responses at positions i and j.

    The conditional permutation chain accepts a swap with probability
    odds / (1 + odds) where odds is the ratio of kernel-estimated joint
    densities with the two responses exchanged versus kept.  ``assignment``
    maps positions to rows of the original response sample (identity by
    default).
    """
    ls = _log_joint_sums(data, config.kernel_y, config.kernel_m)
    n = ls.shape[0]
    pi = np.arange(n) if assignment is None else np.asarray(assignment)
    log_odds = ls[pi[j], i] + ls[pi[i], j] - ls[pi[i], i] - ls[pi[j], j]
    return float(np.exp(log_odds))


def reference_sweeps(ls, pis, n_sweeps, rng):
    """A ``(c, n)`` stack of chains, with one swap decision at a time."""
    pis = np.array(pis, copy=True)
    c, n = pis.shape
    half = n // 2
    for _ in range(n_sweeps):
        orders = rng.permuted(np.broadcast_to(np.arange(n), (c, n)), axis=1)
        us = rng.uniform(size=(c, half))
        for pi, order, u in zip(pis, orders, us):
            for (i, j), uu in zip(order[: 2 * half].reshape(half, 2), u):
                log_odds = (ls[pi[j], i] + ls[pi[i], j]
                            - ls[pi[i], i] - ls[pi[j], j])
                if np.log(uu / (1.0 - uu)) < log_odds:
                    pi[i], pi[j] = pi[j], pi[i]
    return pis


def reference_multiple_correlation(X, Z):
    """The multiple correlation of one response sample, by ``lstsq``."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    n = X.shape[0]
    zc = Z - Z.mean(axis=0)
    if Z.shape[1] == 1:
        target = zc[:, 0]
    else:
        _, _, vt = np.linalg.svd(zc, full_matrices=False)
        target = zc @ vt[0]
    sst = float(target @ target)
    if sst <= 0.0:
        return 0.0
    design = np.column_stack([np.ones(n), X])
    coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    r2 = 1.0 - float(resid @ resid) / sst
    return float(np.sqrt(max(r2, 0.0)))


def reference_cp_pvalue(X, Y, spec, config, burn_in, B, rng):
    """The CP test's p-value, with one lstsq per permuted copy."""
    data = transform_responses(X, Y, spec)
    n = data.X.shape[0]
    ls = _log_joint_sums(data, config.kernel_y, config.kernel_m)
    t_obs = reference_multiple_correlation(data.X, data.Z)
    pi0 = reference_sweeps(ls, np.arange(n)[None], burn_in, rng)
    pis = reference_sweeps(ls, np.repeat(pi0, B, axis=0), burn_in, rng)
    nulls = [reference_multiple_correlation(data.X, data.Z[pi]) for pi in pis]
    return pvalue_from_nulls(t_obs, nulls)
