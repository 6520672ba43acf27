"""Maximum mean discrepancy statistics.

Contains the classical two-sample U- and V-statistics, the invariance
statistic that compares a sample with randomly transformed copies of itself,
an equivariant shortcut valid for group-invariant kernels, and a low-rank
(landmark) approximation of the invariance statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadLandmarkCount,
    BadParameters,
    SampleTooSmall,
    _check_finite,
    _require_rng,
)
from .groups import sample_batch
from .kernels import gram


@dataclass(frozen=True)
class MmdEstimate:
    """An MMD statistic value together with how it was formed."""

    value: float
    kind: str  # "u" | "v" | "invariance-u" | "invariance-shortcut" | "invariance-nystrom"
    n: int
    m: int | None = None


def _offdiag_sum(K):
    return float(K.sum() - np.trace(K))


def _mean_offdiag(kernel, X):
    """Mean of k(X_i, X_j) over i != j."""
    n = X.shape[0]
    return _offdiag_sum(gram(kernel, X)) / (n * (n - 1))


def _mmd_u_value(X, Y, kernel, kyy):
    """The value of ``mmd_u(X, Y, kernel)`` given kyy = _mean_offdiag(kernel, Y)."""
    kxy = float(gram(kernel, X, Y).sum()) * 2.0 / (X.shape[0] * Y.shape[0])
    return _mean_offdiag(kernel, X) + kyy - kxy


def mmd_u(X, Y, kernel):
    """Unbiased two-sample MMD^2 estimate."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n1, n2 = X.shape[0], Y.shape[0]
    if n1 < 2 or n2 < 2:
        raise SampleTooSmall("the U-statistic needs at least two points per sample")
    _check_finite(X, Y)
    return MmdEstimate(_mmd_u_value(X, Y, kernel, _mean_offdiag(kernel, Y)), "u", n1)


def mmd_v(X, Y, kernel):
    """Biased (V-statistic) two-sample MMD^2 estimate; always nonnegative."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n1, n2 = X.shape[0], Y.shape[0]
    if n1 < 1 or n2 < 1:
        raise SampleTooSmall("both samples must be nonempty")
    _check_finite(X, Y)
    kxx = float(gram(kernel, X).sum()) / n1**2
    kyy = float(gram(kernel, Y).sum()) / n2**2
    kxy = float(gram(kernel, X, Y).sum()) * 2.0 / (n1 * n2)
    return MmdEstimate(kxx + kyy - kxy, "v", n1)


def invariance_stat_u(X, g_batches, h_batches, kernel):
    """U-form invariance statistic given per-observation transform draws.

    With G and H each holding m independent per-observation draws,

        T = (1/(n(n-1))) sum_{i != j} [ k(X_i, X_j)
              + (1/m^2) sum_{l,r} k(G_{l,i} X_i, H_{r,j} X_j)
              - (2/m)   sum_l     k(X_i, G_{l,j} X_j) ].
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise SampleTooSmall("the invariance statistic needs at least two points")
    m = len(g_batches)
    if m < 1 or len(h_batches) != m:
        raise BadParameters("need m >= 1 transform draws for both G and H")
    xg = [b.apply(X) for b in g_batches]
    xh = [b.apply(X) for b in h_batches]
    total = _offdiag_sum(gram(kernel, X))
    for a in xg:
        for b in xh:
            total += _offdiag_sum(gram(kernel, a, b)) / m**2
    for b in xg:
        total -= 2.0 * _offdiag_sum(gram(kernel, X, b)) / m
    return total / (n * (n - 1))


def invariance_stat_v(X, g_batches, h_batches, kernel):
    """V-form of the invariance statistic (1/n^2 normalisation, diagonal kept)."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    m = len(g_batches)
    xg = [b.apply(X) for b in g_batches]
    xh = [b.apply(X) for b in h_batches]
    total = float(gram(kernel, X).sum())
    for a in xg:
        for b in xh:
            total += float(gram(kernel, a, b).sum()) / m**2
    for b in xg:
        total -= 2.0 * float(gram(kernel, X, b).sum()) / m
    return total / n**2


def mmd_invariance_u(X, spec, kernel, m=2, rng=None):
    """Invariance statistic with fresh Haar draws; returns the draws too.

    The retained draws (one TransformBatch of per-observation elements per
    Monte Carlo slot, separately for the two transformed copies) are returned
    so a conditional Monte Carlo test can reuse them on re-randomised data.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if m < 1:
        raise BadParameters("m must be a positive integer")
    _require_rng(rng)
    g_batches = [sample_batch(spec, rng, n) for _ in range(m)]
    h_batches = [sample_batch(spec, rng, n) for _ in range(m)]
    value = invariance_stat_u(X, g_batches, h_batches, kernel)
    return MmdEstimate(value, "invariance-u", n, m), g_batches, h_batches


def equivariant_shortcut_stat(X, g_batches, kernel):
    """Shortcut invariance statistic for kernels invariant under the group.

    When k(g x, g y) = k(x, y) for all group elements the full statistic
    collapses to

        T = (1/(n(n-1))) sum_{i != j} [ k(X_i, X_j)
                                        - (1/m) sum_l k(X_i, G_{l,j} X_j) ].
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise SampleTooSmall("the invariance statistic needs at least two points")
    m = len(g_batches)
    total = _offdiag_sum(gram(kernel, X))
    for b in g_batches:
        total -= _offdiag_sum(gram(kernel, X, b.apply(X))) / m
    return total / (n * (n - 1))


def mmd_equivariant_shortcut(X, spec, kernel, m=2, rng=None):
    """Equivariant shortcut statistic with fresh Haar draws."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if m < 1:
        raise BadParameters("m must be a positive integer")
    _require_rng(rng)
    g_batches = [sample_batch(spec, rng, n) for _ in range(m)]
    value = equivariant_shortcut_stat(X, g_batches, kernel)
    return MmdEstimate(value, "invariance-shortcut", n, m), g_batches


_PINV_RCOND = 1e-10


def _landmark_embedding(kernel, landmarks, sample):
    """psi = (1/n) K_tt^+ K_tx 1_n for one landmark set and its sample."""
    n = sample.shape[0]
    k_tt = gram(kernel, landmarks)
    k_tx = gram(kernel, landmarks, sample)
    return np.linalg.pinv(k_tt, rcond=_PINV_RCOND) @ (k_tx.sum(axis=1) / n)


def nystrom_invariance_stat(X, g_batches, h_batches, kernel, n_landmarks,
                            rng=None, full_landmarks=False):
    """Landmark (low-rank) approximation of the V-form invariance statistic.

    Landmark points are drawn uniformly with replacement, independently from
    the plain sample and from each transformed copy.  With
    ``full_landmarks=True`` every sample point is a landmark (deterministic
    mode); for characteristic kernels this reproduces the V-form exactly.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not full_landmarks:
        if not 1 <= n_landmarks <= n:
            raise BadLandmarkCount("landmark count must lie in [1, n]")
        _require_rng(rng)
    m = len(g_batches)
    xg = [b.apply(X) for b in g_batches]
    xh = [b.apply(X) for b in h_batches]

    def pick(sample):
        if full_landmarks:
            return sample
        idx = rng.integers(0, n, n_landmarks)
        return sample[idx]

    t0 = pick(X)
    tg = [pick(a) for a in xg]
    th = [pick(b) for b in xh]
    psi0 = _landmark_embedding(kernel, t0, X)
    psig = [_landmark_embedding(kernel, t, a) for t, a in zip(tg, xg)]
    psih = [_landmark_embedding(kernel, t, b) for t, b in zip(th, xh)]

    value = float(psi0 @ gram(kernel, t0) @ psi0)
    for l in range(m):
        for r in range(m):
            value += float(psig[l] @ gram(kernel, tg[l], th[r]) @ psih[r]) / m**2
    for l in range(m):
        value -= 2.0 * float(psi0 @ gram(kernel, t0, tg[l]) @ psig[l]) / m
    return value


def mmd_nystrom(X, spec, kernel, m=2, n_landmarks=None, rng=None,
                full_landmarks=False):
    """Low-rank invariance statistic with fresh Haar draws; returns the draws."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise SampleTooSmall("the invariance statistic needs at least two points")
    if n_landmarks is None:
        n_landmarks = int(np.ceil(np.sqrt(n)))
    _require_rng(rng)
    g_batches = [sample_batch(spec, rng, n) for _ in range(m)]
    h_batches = [sample_batch(spec, rng, n) for _ in range(m)]
    value = nystrom_invariance_stat(
        X, g_batches, h_batches, kernel, n_landmarks, rng, full_landmarks
    )
    return MmdEstimate(value, "invariance-nystrom", n, m), g_batches, h_batches
