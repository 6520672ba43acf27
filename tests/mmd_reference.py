"""Reference forms of the invariance statistic, and the two-sample V-form.

``invariance_stat_g_u`` is the U-form over m transform draws G and
``invariance_stat_full_u`` the U-form with both sets G and H.  For an
invariant kernel both have mean T(X) - E T(g X) over their draws, where
T = ``symtest.invariance_stat_u`` is the package's statistic and g X an
orbit copy.  ``mmd_v`` is the biased two-sample MMD^2 estimate, a
reference for the package's ``mmd_u``.
"""

import numpy as np

from symtest.errors import SampleTooSmall, _check_finite
from symtest.kernels import gram


def _offdiag_sum(K):
    return float(K.sum() - K.trace())


def invariance_stat_g_u(X, g_batches, kernel):
    """U-form with G only: 1 + m Gram matrices.

        T = (1/(n(n-1))) sum_{i != j} [ k(X_i, X_j)
              - (1/m) sum_l k(X_i, G_{l,j} X_j) ].
    """
    n = X.shape[0]
    m = len(g_batches)
    total = _offdiag_sum(gram(kernel, X))
    for b in g_batches:
        total -= _offdiag_sum(gram(kernel, X, b.apply(X))) / m
    return total / (n * (n - 1))


def invariance_stat_full_u(X, g_batches, h_batches, kernel):
    """U-form with G and H: 1 + m + m^2 Gram matrices.

        T = (1/(n(n-1))) sum_{i != j} [ k(X_i, X_j)
              + (1/m^2) sum_{l,r} k(G_{l,i} X_i, H_{r,j} X_j)
              - (2/m)   sum_l     k(X_i, G_{l,j} X_j) ].
    """
    n = X.shape[0]
    m = len(g_batches)
    xg = [b.apply(X) for b in g_batches]
    xh = [b.apply(X) for b in h_batches]
    total = _offdiag_sum(gram(kernel, X))
    for a in xg:
        for b in xh:
            total += _offdiag_sum(gram(kernel, a, b)) / m**2
    for b in xg:
        total -= 2.0 * _offdiag_sum(gram(kernel, X, b)) / m
    return total / (n * (n - 1))


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
    return kxx + kyy - kxy
