"""References for the kernels: one pair of points at a time, the SO(3)
rotation kernel's Gram matrix, a sample's kernel values on its pairs i < j
and the median heuristic.

The trace matrix is an einsum over the (n, 3, 3) stacks, and the kernel
value is taken with boolean masks: theta / sin(theta) from ``np.sin`` away
from 0 and the series 1 + theta^2 / 6 below theta = 1e-6.  The median
heuristic takes one row's differences at a time.
"""

import numpy as np

from symtest.errors import AllPointsIdentical
from symtest.kernels import DiscreteDelta, GaussianRBF, RotationKernelSO3, gram


def eval_kernel(kernel, x, y):
    """The kernel at one pair of points."""
    if isinstance(kernel, RotationKernelSO3):
        tr = np.trace(np.asarray(y, dtype=float).T @ np.asarray(x, dtype=float))
        return float(so3_from_trace(np.atleast_1d(tr))[0])
    if isinstance(kernel, DiscreteDelta):
        return 1.0 if np.array_equal(np.asarray(x), np.asarray(y)) else 0.0
    if isinstance(kernel, GaussianRBF):
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        d2 = float(np.sum((x - y) ** 2))
        return float(np.exp(-d2 / (2.0 * kernel.bandwidth**2)))
    raise ValueError(f"no reference for kernel {type(kernel).__name__}")


def so3_from_trace(tr):
    """Kernel value from the relative-rotation trace, masked elementwise."""
    c = np.sqrt(np.clip((1.0 + tr) / 4.0, 0.0, 1.0))
    theta = np.arccos(c)
    comp = np.pi - theta
    out = np.empty_like(theta)
    lo = theta < 1e-6
    mid = ~lo
    out[mid] = np.pi * theta[mid] * comp[mid] / (8.0 * np.sin(theta[mid]))
    out[lo] = np.pi * comp[lo] / 8.0 * (1.0 + theta[lo] ** 2 / 6.0)
    return out


def so3_trace(A, B):
    """Traces of B_j^T A_i for all pairs of two rotation stacks."""
    return np.einsum("aij,bij->ab", A, B)


def so3_gram(A, B=None):
    """The rotation kernel's Gram matrix of two stacks; B defaults to A."""
    return so3_from_trace(so3_trace(A, A if B is None else B))


def pair_values(kernel, X):
    """k(X_i, X_j) over the pairs i < j, row by row: the upper triangle of the Gram."""
    return gram(kernel, X)[np.triu_indices(len(X), 1)]


def median_heuristic_by_rows(X):
    """Median pairwise distance from one ``norm`` call per row."""
    X = np.asarray(X, dtype=float)
    dists = [np.linalg.norm(X[i + 1:] - X[i], axis=1) for i in range(X.shape[0] - 1)]
    med = float(np.median(np.concatenate(dists)))
    if med <= 0.0:
        raise AllPointsIdentical("all points coincide; no usable bandwidth")
    return med
