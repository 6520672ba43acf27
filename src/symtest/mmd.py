"""Maximum mean discrepancy statistics.

Contains the two-sample U-statistic; the invariance statistic, the
sample's mean off-diagonal Gram entry, summed over the pairs i < j with no
Gram built, which the invariance test ranks against the same on orbit
copies and the inversion test, on a sample of group elements, against the
same on fresh Haar samples; the paired U-statistic of a sample against its
orbit copy under within-pair swaps; and the squared norm of the sample's
Nyström (landmark) mean embedding, a low-rank form of the invariance
statistic that takes no transform draws and costs two small Grams per
sample.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadLandmarkCount,
    SampleTooSmall,
    _check_count,
    _check_finite,
    _require_rng,
)
from .kernels import gram, pair_sums


def _mean_offdiag(kernel, X):
    """Mean of k(X_i, X_j) over i != j of each sample of a stack, as an array."""
    n = X.shape[1]
    return 2.0 * pair_sums(kernel, X) / (n * (n - 1))


def mmd_u(X, Y, kernel):
    """Unbiased two-sample MMD^2 estimate."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[0] < 2 or Y.shape[0] < 2:
        raise SampleTooSmall("the U-statistic needs at least two points per sample")
    _check_finite(X, Y)
    kxy = float(gram(kernel, X, Y).sum()) * 2.0 / (X.shape[0] * Y.shape[0])
    kxx, kyy = (float(_mean_offdiag(kernel, S[None])[0]) for S in (X, Y))
    return kxx + kyy - kxy


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


def invariance_stat_u(X, kernel, stack=False):
    """Invariance statistic: the mean off-diagonal Gram entry S(X) / (n(n-1)).

    Here S(X) = sum_{i != j} k(X_i, X_j), twice the sum over the pairs
    i < j, which ``pair_sums`` gives without a Gram.  With ``stack=True``
    X is a stack of samples along its first axis, scored in one
    ``pair_sums`` call, and the statistics come back as an array, each
    equal bit for bit to the statistic of its sample alone.  The U-form
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
    n = X.shape[1 if stack else 0]
    if n < 2:
        raise SampleTooSmall("the invariance statistic needs at least two points")
    _check_finite(X)
    stats = _mean_offdiag(kernel, X if stack else X[None])
    return stats if stack else float(stats[0])


_PINV_RCOND = 1e-10


def nystrom_invariance_stat(X, kernel, n_landmarks, rng=None):
    """Squared norm of the sample's Nyström kernel mean embedding.

    ``n_landmarks`` landmarks t are drawn uniformly with replacement from the
    sample.  Projecting the mean embedding (1/n) sum_i k(X_i, .) onto the span
    of the k(t_a, .) gives the squared norm m^T K_tt^+ m with m = K_tx 1 / n
    (Chatalic et al. 2022, "Nyström Kernel Mean Embeddings"), at two Grams
    of j x j and j x n entries.  With every sample point a landmark it is the
    mean of all n^2 Gram entries: (n-1)/n times ``invariance_stat_u`` plus
    the mean diagonal entry, which an invariant kernel keeps the same on X
    and on its orbit copies, so the test ranks a low-rank form of the same
    statistic.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    _check_count(n_landmarks, BadLandmarkCount, "the landmark count")
    if n_landmarks > n:
        raise BadLandmarkCount("landmark count must lie in [1, n]")
    _check_finite(X)
    _require_rng(rng)
    t = X[rng.integers(0, n, n_landmarks)]
    mean = gram(kernel, t, X).sum(axis=1) / n
    # m^T K^+ m from one eigendecomposition of the symmetric K_tt, keeping
    # the eigenvalues that pinv keeps: |w| above _PINV_RCOND times the largest
    w, v = np.linalg.eigh(gram(kernel, t))
    keep = np.abs(w) > _PINV_RCOND * np.abs(w).max()
    proj = mean @ v[:, keep]
    return float(proj**2 @ (1.0 / w[keep]))
