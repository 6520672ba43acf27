"""The V-form of the invariance statistic, a reference for the landmark
statistic.

With every sample point a landmark, the landmark statistic equals this
V-form for characteristic kernels.
"""

from symtest.kernels import gram


def invariance_stat_v(X, g_batches, h_batches, kernel):
    """V-form of the invariance statistic (1/n^2 normalisation, diagonal kept)."""
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
