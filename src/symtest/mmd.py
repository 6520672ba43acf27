"""Maximum mean discrepancy statistics.

Contains the two-sample U-statistic; the invariance statistic, the
sample's mean off-diagonal Gram entry, summed over the pairs i < j with no
Gram built, which the invariance test ranks against the same on orbit
copies and the inversion test, on a sample of group elements, against the
same on fresh Haar samples; the paired U-statistic of a sample against its
orbit copy under within-pair swaps; and a low-rank (landmark)
approximation of the invariance MMD's V-form.
The landmark statistic takes two sets of transform draws, G and H, as
arguments; ``mc_invariance_test`` draws them once and reuses them across
its re-randomised copies.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadLandmarkCount,
    SampleTooSmall,
    _check_finite,
    _require_rng,
)
from .kernels import gram, pair_values


def _mean_offdiag(kernel, X):
    """Mean of k(X_i, X_j) over i != j, from the pairs i < j."""
    n = X.shape[0]
    return 2.0 * float(pair_values(kernel, X).sum()) / (n * (n - 1))


def mmd_u(X, Y, kernel):
    """Unbiased two-sample MMD^2 estimate."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[0] < 2 or Y.shape[0] < 2:
        raise SampleTooSmall("the U-statistic needs at least two points per sample")
    _check_finite(X, Y)
    kxy = float(gram(kernel, X, Y).sum()) * 2.0 / (X.shape[0] * Y.shape[0])
    return _mean_offdiag(kernel, X) + _mean_offdiag(kernel, Y) - kxy


def _paired_swap_stats(X, Y, kernel, signs):
    """Paired MMD U-statistics of the pairs (X_i, Y_i), each flipped by a sign.

    Row s of the (c, n) array ``signs`` keeps pair i as (X_i, Y_i) where
    s_i = +1 and swaps it to (Y_i, X_i) where s_i = -1.  With
    H = Kxx + Kyy - Kxy - Kxy^T and its diagonal set to zero, the statistic
    of the flipped pairs is s^T H s / (n(n-1)), the mean over i != j of
    s_i s_j [k(X_i, X_j) + k(Y_i, Y_j) - k(X_i, Y_j) - k(Y_i, X_j)].  All
    rows come from three Grams and one (c, n) @ (n, n) product; for s all
    ones it is the paired U-statistic of the unflipped pairs.
    """
    n = X.shape[0]
    kxy = gram(kernel, X, Y)
    h = gram(kernel, X) + gram(kernel, Y) - kxy - kxy.T
    np.fill_diagonal(h, 0.0)
    return np.einsum("ci,ci->c", signs @ h, signs) / (n * (n - 1))


def invariance_stat_u(X, kernel):
    """Invariance statistic: the mean off-diagonal Gram entry S(X) / (n(n-1)).

    Here S(X) = sum_{i != j} k(X_i, X_j), twice the sum over the pairs
    i < j, which ``pair_values`` gives without a Gram.  The U-form
    invariance MMD subtracts from it the mean off-diagonal entry of
    kbar(x, y) = E_G k(x, G y), G Haar.  When k(g x, g y) = k(x, y), the
    invariance of Haar measure gives kbar(g x, h y) = kbar(x, y) for all
    g, h, so that term is the same for X and for every orbit copy g_i X_i.
    Ranking S among the copies' S is then the conditional Monte Carlo test
    on the U-form with its transform draws taken to infinity, at one kernel
    sum per copy.  The statistic minus the mean over orbit copies estimates
    MMD^2(P, P_G); that reading needs the invariant kernel, and every
    kernel and group family of the package gives one, since every action
    is orthogonal.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise SampleTooSmall("the invariance statistic needs at least two points")
    _check_finite(X)
    return _mean_offdiag(kernel, X)


_PINV_RCOND = 1e-10


def _landmark_embedding(kernel, landmarks, sample):
    """psi = (1/n) K_tt^+ K_tx 1_n for one landmark set and its sample."""
    n = sample.shape[0]
    k_tt = gram(kernel, landmarks)
    k_tx = gram(kernel, landmarks, sample)
    return np.linalg.pinv(k_tt, rcond=_PINV_RCOND) @ (k_tx.sum(axis=1) / n)


def nystrom_invariance_stat(X, g_batches, h_batches, kernel, n_landmarks, rng=None):
    """Landmark (low-rank) approximation of the V-form invariance statistic.

    ``n_landmarks`` points are drawn uniformly with replacement, independently
    from the plain sample and then from each transformed copy, G before H.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 1 <= n_landmarks <= n:
        raise BadLandmarkCount("landmark count must lie in [1, n]")
    _require_rng(rng)
    samples = [X] + [b.apply(X) for b in g_batches] + [b.apply(X) for b in h_batches]
    landmarks = [s[rng.integers(0, n, n_landmarks)] for s in samples]
    return _landmark_stat(kernel, samples, landmarks)


def _landmark_stat(kernel, samples, landmarks):
    """The landmark statistic given each sample's landmark set.

    ``samples`` lists the plain sample, then the m G-copies, then the m
    H-copies, and ``landmarks`` their landmark sets in the same order.  With
    every sample point a landmark this is the V-form exactly, for
    characteristic kernels.
    """
    m = (len(samples) - 1) // 2
    psi = [_landmark_embedding(kernel, t, s) for t, s in zip(landmarks, samples)]
    t0, tg, th = landmarks[0], landmarks[1:m + 1], landmarks[m + 1:]
    psi0, psig, psih = psi[0], psi[1:m + 1], psi[m + 1:]

    value = float(psi0 @ gram(kernel, t0) @ psi0)
    for l in range(m):
        for r in range(m):
            value += float(psig[l] @ gram(kernel, tg[l], th[r]) @ psih[r]) / m**2
    for l in range(m):
        value -= 2.0 * float(psi0 @ gram(kernel, t0, tg[l]) @ psig[l]) / m
    return value
