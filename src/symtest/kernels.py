"""Positive definite kernels and Gram matrix utilities.

Three kernel families cover every test in the package: a Gaussian RBF on
Euclidean points, a heat-kernel-style kernel on SO(3) in unit quaternions,
and an exact-match (delta) kernel for discrete values.  Helpers compute Gram
matrices, a sample's kernel values on its pairs i < j and their sums over a
stack of samples, the median-distance bandwidth heuristic, and double
centering.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AllPointsIdentical,
    BadParameters,
    DimensionMismatch,
    InvalidRotation,
    SampleTooSmall,
    UnsupportedKind,
)


@dataclass(frozen=True)
class GaussianRBF:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).

    ``bandwidth=None`` marks a kernel whose sigma is to be resolved from a
    training sample via the median heuristic before first use.
    """

    bandwidth: float | None = None

    def __post_init__(self):
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise BadParameters("RBF bandwidth must be positive")


@dataclass(frozen=True)
class RotationKernelSO3:
    """A positive definite kernel on SO(3) built from the rotation angle.

    Its points are unit quaternions, as (n, 4) arrays (``rotation_quaternions``
    converts rotation matrices).  With theta in [0, pi/2] the half-angle of
    the relative rotation between the two arguments, cos theta = |q . q'|
    (equal to sqrt((1 + trace(R'^T R)) / 4) on the 3x3 matrices; Huynh 2009,
    "Metrics for 3D rotations"), and

        k = pi * theta * (pi - theta) / (8 sin theta),

    extended continuously to theta = 0 where the value is pi^2 / 8.  In the
    half-angle variable this equals sum_j chi_{2j+1}(phi) / (2j+1)^3 over the
    odd-dimensional (integer spin) characters, a nonnegative combination, so
    the kernel is positive definite on SO(3); with the full rotation angle in
    place of theta it is not.
    """


@dataclass(frozen=True)
class DiscreteDelta:
    """k(x, y) = 1 when x == y exactly, else 0."""


def parse_kernel(text):
    """Parse a kernel descriptor: ``rbf(median)``, ``rbf(1.5)``, ``so3``, ``delta``."""
    s = text.strip().lower()
    if s == "so3":
        return RotationKernelSO3()
    if s == "delta":
        return DiscreteDelta()
    m = re.match(r"^rbf\((median|[0-9.eE+-]+)\)$", s)
    if m:
        arg = m.group(1)
        if arg == "median":
            return GaussianRBF(None)
        try:
            return GaussianRBF(float(arg))
        except ValueError:
            raise UnsupportedKind(f"bad RBF bandwidth {arg!r}") from None
    raise UnsupportedKind(f"unrecognised kernel descriptor {text!r}")


def _as_points(X, lead=1):
    """X as floats, with points along its first ``lead`` axes and one last axis.

    Scalar points become vectors of length 1 and matrix-valued points are
    flattened to vectors.
    """
    X = np.asarray(X, dtype=float)
    return X.reshape(X.shape[:lead] + (math.prod(X.shape[lead:]),))


def _so3_from_cos(c, scratch=None):
    """Kernel value from the half-angle cosine c = |q . q'|, elementwise.

    theta = arccos(c) lies in [0, pi/2].  Both theta and
    sin(theta) = sqrt((1 - c)(1 + c)) are taken from the same c, which keeps
    theta / sin(theta) accurate near 0; below theta = 1e-6 the series
    1 + theta^2 / 6 replaces the ratio.  ``scratch``, a flat float array of
    at least 2 c.size entries, lets it overwrite c and hold its two work
    arrays, the result among them, so that it allocates none of c's size.
    """
    if scratch is None:
        c = np.clip(c, 0.0, 1.0)
        theta, sin = np.empty_like(c), np.empty_like(c)
    else:
        np.clip(c, 0.0, 1.0, out=c)
        theta, sin = scratch[:2 * c.size].reshape((2,) + c.shape)
    np.arccos(c, out=theta)
    # (1 - c)(1 + c) and pi / 8 (pi - theta) ratio in place, to keep the
    # temporaries few; the ratio is one unmasked divide, which runs in SIMD,
    # with sin set to 1 where theta is small so that no 0 / 0 is formed, and
    # the series written at those entries only
    np.subtract(1.0, c, out=sin)
    sin *= np.add(c, 1.0, out=c)
    np.sqrt(sin, out=sin)
    small = np.flatnonzero(theta < 1e-6)
    sin.flat[small] = 1.0
    ratio = np.divide(theta, sin, out=sin)
    ratio.flat[small] = 1.0 + np.square(theta.flat[small]) / 6.0
    value = np.subtract(np.pi, theta, out=theta)
    value *= np.pi / 8.0
    value *= ratio
    return value


def _check_quaternions(X, ndim=2):
    X = np.asarray(X, dtype=float)
    if X.ndim != ndim or X.shape[-1] != 4:
        raise InvalidRotation("expected an (n, 4) array of unit quaternions")
    return X


# The squared norms of quaternions whose norm lies within 1e-8 of 1.
_UNIT_SQ_RANGE = ((1.0 - 1e-8) ** 2, (1.0 + 1e-8) ** 2)


def _check_unit(sq):
    """Raise InvalidRotation unless every squared norm in ``sq`` is in range."""
    lo, hi = _UNIT_SQ_RANGE
    # a NaN minimum or maximum fails the comparison and raises
    if sq.size and not (lo <= sq.min() and sq.max() <= hi):
        raise InvalidRotation("quaternion rows must have unit norm")


def _rbf_exponent(A, B, bandwidth, out=None):
    """The RBF exponent -||A_i - B_j||^2 / (2 sigma^2) for all pairs of rows.

    One matrix product of augmented rows, [2cA, -c|a|^2, -c] @ [B, 1, |b|^2]^T
    with c = 1 / (2 sigma^2).  ``B=None`` means B = A, whose diagonal is set
    to its exact value 0.  Cancellation leaves errors of about
    1e-16 * c (|a|^2 + |b|^2) off the diagonal, so duplicate rows need not
    give exactly 0 there.  A and B may be (k, n, d) stacks of samples, each
    paired with its own: one batched product, each slice equal to the
    product of that sample alone, written to ``out`` when given.
    """
    c = 1.0 / (2.0 * bandwidth**2)
    R = A if B is None else B
    d = A.shape[-1]
    left = np.empty(A.shape[:-1] + (d + 2,))
    right = np.empty(R.shape[:-1] + (d + 2,))
    np.multiply(A, 2.0 * c, out=left[..., :d])
    a2 = np.einsum("...ij,...ij->...i", A, A)
    np.multiply(a2, -c, out=left[..., d])
    left[..., d + 1] = -c
    right[..., :d] = R
    right[..., d] = 1.0
    right[..., d + 1] = a2 if B is None else np.einsum("...ij,...ij->...i", B, B)
    e = np.matmul(left, np.swapaxes(right, -1, -2), out=out)
    if B is None:
        diag = np.arange(A.shape[-2])
        e[..., diag, diag] = 0.0
    return e


def _inner(kernel, X, Y=None, lead=1, out=None):
    """The RBF exponent, or the rotation kernel's q . q' with diagonal 1, of all pairs.

    X's points against Y's (``Y=None``: X's own) once they pass their checks;
    with ``lead=2``, each sample of a (k, n, ...) stack against itself, as
    one batched product written to ``out`` when given.
    """
    if isinstance(kernel, RotationKernelSO3):
        A = _check_quaternions(X, ndim=lead + 1)
        if Y is None:
            c = np.matmul(A, np.swapaxes(A, -1, -2), out=out)
            diag = np.einsum("...ii->...i", c)  # a writeable view
            _check_unit(diag)  # the squared norms, at no extra product
            # the exact cos(0) = 1: |q . q| rounds to 1 - 2e-16 on some rows,
            # which arccos turns into a half-angle of 2e-8
            diag[...] = 1.0
            return c
        B = _check_quaternions(Y, ndim=lead + 1)
        for Q in (A, B):
            _check_unit(np.einsum("...ij,...ij->...i", Q, Q))
        return np.matmul(A, np.swapaxes(B, -1, -2), out=out)
    if isinstance(kernel, GaussianRBF):
        if kernel.bandwidth is None:
            raise BadParameters("RBF bandwidth has not been resolved")
        A = _as_points(X, lead)
        B = None if Y is None else _as_points(Y, lead)
        if B is not None and A.shape[-1] != B.shape[-1]:
            raise DimensionMismatch("samples of different dimension")
        return _rbf_exponent(A, B, kernel.bandwidth, out=out)
    raise UnsupportedKind(f"unknown kernel type {type(kernel).__name__}")


def _evaluate(kernel, v, scratch=None):
    """In-place kernel values of ``_inner``'s v; ``scratch`` is ``_so3_from_cos``'s."""
    if isinstance(kernel, RotationKernelSO3):
        return _so3_from_cos(np.abs(v, out=v), scratch)
    # avoid subnormal kernel values: they are extremely slow to produce and
    # indistinguishable from zero for every statistic built on top
    if v.size and v.min() < -708.0:
        np.copyto(v, -1000.0, where=v < -708.0)
    return np.exp(v, out=v)


def gram(kernel, X, Y=None):
    """Gram matrix K[i, j] = k(X[i], Y[j]); Y defaults to X."""
    if isinstance(kernel, DiscreteDelta):
        A = _as_points(X)
        B = A if Y is None else _as_points(Y)
        if A.shape[1] != B.shape[1]:
            raise DimensionMismatch("samples of different dimension")
        return (A[:, None, :] == B[None, :, :]).all(axis=2).astype(float)
    return _evaluate(kernel, _inner(kernel, X, Y))


@lru_cache(maxsize=8)
def _pair_index(n):
    """Flat indices i * n + j of the pairs i < j of an (n, n) array, row by row."""
    i, j = np.triu_indices(n, 1)
    index = i * n + j
    index.flags.writeable = False
    return index


def _work_array(work, name, shape):
    """An uninitialised float array of ``shape``: a fresh one, or with a dict
    ``work``, a view of its array ``name``, grown as needed and kept there
    for the next call."""
    if work is None:
        return np.empty(shape)
    size = math.prod(shape)
    if name not in work or work[name].size < size:
        work[name] = np.empty(size)
    return work[name][:size].reshape(shape)


def _take_pairs(full, work):
    """The entries i < j of each (n, n) slice of a (k, n, n) stack, as (k, n(n-1)/2)."""
    k, n = full.shape[:2]
    index = _pair_index(n)
    out = _work_array(work, "pairs", (k, index.size))
    # in-range indices, so "clip" changes nothing; it spares the copy "raise" makes
    return full.reshape(k, n * n).take(index, axis=1, out=out, mode="clip")


def _stack_pair_values(kernel, X, work=None):
    """``pair_values`` of every sample of a (k, n, ...) stack, as (k, n(n-1)/2).

    One batched ``_inner`` and one ``_evaluate`` of the pairs for the whole
    stack, each row equal bit for bit to that sample's ``pair_values``; the
    delta kernel reads each sample's Gram.  With a dict ``work`` (see
    ``_work_array``) the large arrays are kept for the next call, and the
    result lives there until it.
    """
    if isinstance(kernel, DiscreteDelta):
        return np.stack([gram(kernel, s).take(_pair_index(len(s))) for s in X])
    k, n = np.shape(X)[:2]
    full = _work_array(work, "full", (k, n, n))
    # the spent (n, n) products hold the work arrays of the rotation kernel
    return _evaluate(kernel, _take_pairs(_inner(kernel, X, lead=2, out=full), work),
                     scratch=full.reshape(-1))


def pair_values(kernel, X):
    """k(X_i, X_j) over the pairs i < j, row by row (scipy ``pdist`` order).

    Equal bit for bit to ``gram(kernel, X)[np.triu_indices(n, 1)]``.  The
    RBF and rotation kernels are evaluated on those n(n-1)/2 pairs only,
    after the one matrix product that gives every pair's exponent or
    cosine; the delta kernel reads them from its Gram.
    """
    return _stack_pair_values(kernel, np.asarray(X)[None])[0]


def pair_sums(kernel, X, work=None):
    """The sum of ``pair_values`` of every sample of a (k, n, ...) stack, as (k,).

    Entry s is equal bit for bit to ``pair_values(kernel, X[s]).sum()``;
    the whole stack costs one call of each numpy step.  Calls that share a
    dict ``work`` reuse one set of large work arrays, so that a loop over
    stacks allocates and pages in none of them afresh.
    """
    return _stack_pair_values(kernel, X, work).sum(axis=1)


# The median heuristic takes its row differences in blocks of at most this
# many floats.
_MEDIAN_BLOCK_ENTRIES = 1 << 20


def median_heuristic(X):
    """Median pairwise Euclidean distance of a sample, used as RBF sigma."""
    X = _as_points(X)
    n, d = X.shape
    if n < 2:
        raise SampleTooSmall("median heuristic needs at least two points")
    # exact row differences X[j] - X[i] over the pairs j > i, so that duplicate
    # rows give distances of exactly 0, taken for a block of rows i at a time
    step = max(1, _MEDIAN_BLOCK_ENTRIES // (n * max(d, 1)))
    dists = []
    for lo in range(0, n - 1, step):
        rows = np.arange(lo, min(lo + step, n - 1))
        counts = n - 1 - rows
        i = np.repeat(rows, counts)
        # row i's partners i + 1, ..., n - 1, from each entry's offset in its run
        j = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts) + i + 1
        dists.append(np.linalg.norm(X.take(j, axis=0) - X.take(i, axis=0), axis=1))
    dists = np.concatenate(dists)
    # the median as np.median takes it, from one partition at the upper
    # middle h: for an even count the lower middle is the largest entry
    # before h.  NaN sorts last, so a NaN distance lands at h or after it,
    # where np.median would return NaN
    h = dists.size // 2
    part = np.partition(dists, h)
    if np.isnan(part[h:]).any():
        med = np.nan
    elif dists.size % 2:
        med = float(part[h])
    else:
        med = float((part[:h].max() + part[h]) / 2.0)
    if med <= 0.0:
        raise AllPointsIdentical("all points coincide; no usable bandwidth")
    return med


def resolve_bandwidth(kernel, X):
    """Fill in an unresolved RBF bandwidth from a training sample."""
    if isinstance(kernel, GaussianRBF) and kernel.bandwidth is None:
        return GaussianRBF(median_heuristic(X))
    return kernel


def center(K):
    """Double centering H K H with H = I - (1/n) 1 1^T."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DimensionMismatch("centering expects a square matrix")
    row = K.mean(axis=1, keepdims=True)
    col = K.mean(axis=0, keepdims=True)
    return K - row - col + K.mean()
