"""Per-row references for ``TransformBatch`` and the group samplers.

Each element's matrix is built from ``batch.kind`` and ``batch.data`` alone,
without calling ``TransformBatch.apply``, so the vectorised actions can be
checked against one plain matrix-vector product per row.  The rotations that
``sample_batch`` builds from drawn angles have their own references, one
matrix per row for a discrete rotation about a coordinate axis and the
planar formula (c x - s y, s x + c y) for the two planes of R^4.  Unit
quaternions are turned into rotation matrices by the textbook formula, and
a Lorentz boost of four-vectors (E, p) is built from its velocity.  The
mean square distance of two orbit points under Haar draws is estimated by
Monte Carlo.
"""

import numpy as np

from symtest.groups import sample_batch


def rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def axis_rotation(theta, d, axis):
    """The rotation by ``theta`` in the plane orthogonal to coordinate ``axis``.

    In d=2 the axis argument is ignored and the rotation is in-plane.
    """
    if d == 2:
        return rot2(theta)
    plane = [i for i in range(3) if i != axis - 1]
    m = np.eye(3)
    m[np.ix_(plane, plane)] = rot2(theta)
    return m


def rotate_planes(X, theta):
    """Rows of an (n, 4) sample with the planes (0, 1) and (2, 3) of row i
    turned by the angles theta[i, 0] and theta[i, 1]."""
    out = np.empty_like(X)
    for k in (0, 1):
        x, y = X[:, 2 * k], X[:, 2 * k + 1]
        c, s = np.cos(theta[:, k]), np.sin(theta[:, k])
        out[:, 2 * k], out[:, 2 * k + 1] = c * x - s * y, s * x + c * y
    return out


def element_matrices(batch, d):
    """The (count, d, d) matrices of the batch's elements acting on R^d."""
    if batch.kind == "rot":
        return np.array(batch.data, dtype=float)
    mats = np.zeros((batch.count, d, d))
    if batch.kind == "identity":
        mats[:] = np.eye(d)
    elif batch.kind == "perm":
        for m, p in zip(mats, batch.data):
            m[p, np.arange(d)] = 1.0  # coordinate i moves to coordinate p[i]
    else:
        raise ValueError(f"no reference for batch kind {batch.kind!r}")
    return mats


def act_rows(batch, X):
    """Row i of X transformed by element i of the batch."""
    X = np.asarray(X, dtype=float)
    mats = element_matrices(batch, X.shape[1])
    return np.stack([m @ x for m, x in zip(mats, X)])


def act_each(batch, X):
    """Every element of the batch applied to every row of X: (count, n, d)."""
    X = np.asarray(X, dtype=float)
    mats = element_matrices(batch, X.shape[1])
    return np.stack([np.stack([m @ x for x in X]) for m in mats])


def quaternion_matrix(q):
    """The rotation matrix of each unit quaternion (w, x, y, z) of a stack."""
    mats = []
    for w, x, y, z in np.asarray(q, dtype=float):
        mats.append([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
    return np.array(mats)


def lorentz_boost(beta):
    """The 4 x 4 boost of four-vectors (E, p) by the velocity ``beta``, |beta| < 1.

    E' = gamma (E - beta . p) and p' = p + ((gamma - 1) (n . p) - gamma |beta| E) n
    with n = beta / |beta| and gamma = 1 / sqrt(1 - |beta|^2).
    """
    beta = np.asarray(beta, dtype=float)
    b2 = beta @ beta
    gamma = 1.0 / np.sqrt(1.0 - b2)
    m = np.eye(4)
    m[0, 0] = gamma
    m[0, 1:] = m[1:, 0] = -gamma * beta
    m[1:, 1:] += (gamma - 1.0) * np.outer(beta, beta) / b2
    return m


def orbit_sq_distance(spec, x, y, rng, draws=100_000):
    """Monte Carlo mean and standard error of |g x - h y|^2 over ``draws``
    independent pairs of Haar elements g and h of ``sample_batch``, each
    applied as its matrix."""
    d = len(x)
    g, h = (element_matrices(sample_batch(spec, rng, draws), d) for _ in range(2))
    sq = np.sum((g @ np.asarray(x, dtype=float) - h @ np.asarray(y, dtype=float)) ** 2,
                axis=1)
    return float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(draws))
