"""A per-row reference for ``TransformBatch``, built from its raw data.

Each element's matrix is built from ``batch.kind`` and ``batch.data`` alone,
without calling ``TransformBatch.apply``, so the vectorised actions can be
checked against one plain matrix-vector product per row.  Unit quaternions
are turned into rotation matrices by the textbook formula.
"""

import numpy as np


def rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


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
    elif batch.kind in ("angle-paired", "angle-blocks"):
        angles = np.asarray(batch.data, dtype=float).reshape(batch.count, -1)
        for m, (t1, t2) in zip(mats, np.broadcast_to(angles, (batch.count, 2))):
            m[0:2, 0:2] = rot2(t1)
            m[2:4, 2:4] = rot2(t2)
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
