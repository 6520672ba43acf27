"""Positive definite kernels and Gram matrix utilities.

Three kernel families cover every test in the package: a Gaussian RBF on
Euclidean points, a heat-kernel-style kernel on SO(3) in unit quaternions,
and an exact-match (delta) kernel for discrete values.  Helpers compute Gram
matrices, the sums of a sample's kernel values over its pairs i < j, for a
stack of samples at once, the median-distance bandwidth heuristic, and
double centering.
"""

from __future__ import annotations

import math
import re
import threading
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
    _check_finite,
)


@dataclass(frozen=True)
class GaussianRBF:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).

    ``bandwidth=None`` (``rbf(median)``) marks a kernel whose sigma each
    test resolves from the points it acts on (``resolve_bandwidth``).
    """

    bandwidth: float | None = None

    def __post_init__(self):
        if self.bandwidth is not None and not 0 < self.bandwidth < math.inf:
            raise BadParameters("RBF bandwidth must be positive and finite")


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
    1 + theta^2 / 6 replaces the ratio.  With ``scratch``, two float arrays
    of c's shape, it overwrites c and allocates no array of c's size.
    """
    if scratch is None:
        c = np.clip(c, 0.0, 1.0)
        theta, sin = np.empty_like(c), np.empty_like(c)
    else:
        np.clip(c, 0.0, 1.0, out=c)
        theta, sin = scratch
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


def _factors(kernel, X, Y=None, lead=1):
    """Checked factors L, R (a transposed view) of the RBF exponent, or of q . q'.

    X's points against Y's (``Y=None``: X's own); with ``lead=2``, each
    sample of a (k, n, ...) stack against itself.  The RBF's L has rows
    [2ca, -c|a|^2, -c] and R columns [b, 1, |b|^2], c = 1 / (2 sigma^2), at
    errors of about 1e-16 c (|a|^2 + |b|^2); with ``lead=2`` its R is a
    contiguous (k, d + 2, n) array, whose rows BLAS reads faster (``gram``
    keeps the view: a contiguous R moves its products by an ulp on some
    shapes).  The rotation kernel's R of X's own pairs is L's view, for SYRK,
    and their unit norms are the caller's.
    """
    if isinstance(kernel, RotationKernelSO3):
        A = _check_quaternions(X, ndim=lead + 1)
        if Y is None:
            return A, np.swapaxes(A, -1, -2)
        B = _check_quaternions(Y, ndim=lead + 1)
        for Q in (A, B):
            _check_unit(np.einsum("...ij,...ij->...i", Q, Q))
        return A, np.swapaxes(B, -1, -2)
    if not isinstance(kernel, GaussianRBF):
        raise UnsupportedKind(f"unknown kernel type {type(kernel).__name__}")
    if kernel.bandwidth is None:
        raise BadParameters("RBF bandwidth has not been resolved")
    A = _as_points(X, lead)
    B = A if Y is None else _as_points(Y, lead)
    if A.shape[-1] != B.shape[-1]:
        raise DimensionMismatch("samples of different dimension")
    c = 1.0 / (2.0 * kernel.bandwidth**2)
    d = A.shape[-1]
    left = np.empty(A.shape[:-1] + (d + 2,))
    if lead == 2:
        right = np.swapaxes(np.empty(B.shape[:-2] + (d + 2, B.shape[-2])), -1, -2)
    else:
        right = np.empty(B.shape[:-1] + (d + 2,))
    np.multiply(A, 2.0 * c, out=left[..., :d])
    a2 = np.einsum("...ij,...ij->...i", A, A)
    np.multiply(a2, -c, out=left[..., d])
    left[..., d + 1] = -c
    right[..., :d] = B
    right[..., d] = 1.0
    right[..., d + 1] = a2 if Y is None else np.einsum("...ij,...ij->...i", B, B)
    return left, np.swapaxes(right, -1, -2)


def _inner(kernel, X, Y=None):
    """The product of ``_factors``, with X's own diagonal set to its exact 0 or 1.

    cos(0) = 1 exactly: |q . q| rounds to 1 - 2e-16 on some rows, which
    arccos turns into a half-angle of 2e-8.
    """
    left, right = _factors(kernel, X, Y)
    v = left @ right
    if Y is None:
        diag = np.einsum("ii->i", v)  # a writeable view
        if isinstance(kernel, RotationKernelSO3):
            _check_unit(diag)  # the squared norms, at no extra product
        diag[...] = float(isinstance(kernel, RotationKernelSO3))
    return v


def _evaluate(kernel, v, scratch=None, least=-np.inf):
    """In-place kernel values of ``_factors``'s products; scratch: ``_so3_from_cos``'s.

    ``least`` is a lower bound of the RBF exponents v up to their rounding;
    above -700 it proves that the clamp below cannot fire, and v is not scanned.
    """
    if isinstance(kernel, RotationKernelSO3):
        return _so3_from_cos(np.abs(v, out=v), scratch)
    # avoid subnormal kernel values: they are extremely slow to produce and
    # indistinguishable from zero for every statistic built on top
    if not least > -700.0 and v.size and v.min() < -708.0:
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
    """An uninitialised float array of ``shape``: a view of the dict ``work``'s
    array ``name``, grown as needed and kept there for the next block and call."""
    size = math.prod(shape)
    if name not in work or work[name].size < size:
        work[name] = np.empty(size)
    return work[name][:size].reshape(shape)


# pair_sums takes a sample of up to _ONE_BLOCK rows as one block, and a larger
# one in row blocks of at most _BLOCK_ROWS rows.  It takes a stack in groups of
# at most _STACK_COPIES samples, fewer where their block-row buffers, n values
# a sample for each row of a block, would pass _STACK_ENTRIES (from n = 410).
_ONE_BLOCK = 128
_BLOCK_ROWS = 40
_STACK_COPIES = 16
_STACK_ENTRIES = 1 << 18

# pair_sums's work arrays, one set per thread, kept from call to call so that
# their memory is not handed back to the system and faulted in again, page by
# page, on every call
_WORK = threading.local()


def _row_blocks(n, most):
    """The [lo, hi) of ceil(n / most) blocks of equal size that cover range(n)."""
    step = -(-n // -(-n // max(most, 1))) if n else 1
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


def pair_sums(kernel, X):
    """The sum of k(X_i, X_j) over i < j for each sample of a (k, n, ...) stack.

    Over row blocks of equal size (see ``_BLOCK_ROWS``): block [lo, hi) adds
    its pairs with the rows [hi, n), one batched product evaluated and summed
    in place, and its pairs inside, gathered from its own product.  Up to
    n = 128 that is one block and the sum of ``gram``'s upper triangle bit for
    bit; above, it equals that to rounding.  A sample's sum is the same bit
    for bit alone and at every place in a stack, whose groups (see
    ``_STACK_COPIES``) share one set of work arrays (see ``_WORK``).
    The delta kernel counts each sample's equal rows: c of them make
    c (c - 1) / 2 pairs.  An empty stack gives an empty array, and samples
    of fewer than two rows give zeros.
    """
    if isinstance(kernel, DiscreteDelta):
        counts = (np.unique(s, axis=0, return_counts=True)[1] for s in _as_points(X, 2))
        return np.array([float((c * (c - 1) // 2).sum()) for c in counts])
    X = np.asarray(X)
    k, n = X.shape[:2]
    rows = n if n <= _ONE_BLOCK else _BLOCK_ROWS
    step = max(1, min(_STACK_COPIES, _STACK_ENTRIES // max(rows * n, 1)))
    sums, work = np.empty(k), vars(_WORK)
    for g in range(0, k, step):
        sums[g:g + step] = _group_sums(kernel, X[g:g + step], rows, work)
    return sums


def _group_sums(kernel, X, most, work):
    """``pair_sums`` of one group of samples, in row blocks of at most ``most``
    rows, on the work arrays ``work``."""
    left, right = _factors(kernel, X, lead=2)
    rotation = isinstance(kernel, RotationKernelSO3)
    # each RBF exponent -c |a_i - a_j|^2 is at least -4c max |a|^2, four
    # times the least of the column -c |a|^2 of L
    least = -np.inf if rotation else 4.0 * left[..., -2].min(initial=0.0)
    k, n = left.shape[:2]
    sums = np.zeros(k)
    for lo, hi in _row_blocks(n, most):
        rows = left[:, lo:hi]
        own = np.matmul(rows, right[:, :, lo:hi],
                        out=_work_array(work, "product", (k, hi - lo, hi - lo)))
        if rotation:
            _check_unit(np.einsum("...ii->...i", own))  # the squared norms
        index = _pair_index(hi - lo)
        # in-range indices, so "clip" changes nothing; it spares the copy "raise" makes
        pairs = own.reshape(k, -1).take(index, axis=1, mode="clip",
                                        out=_work_array(work, "pairs", (k, index.size)))
        # the spent product holds the rotation kernel's work arrays
        spent = own.reshape(-1)[:2 * pairs.size].reshape((2,) + pairs.shape)
        sums += _evaluate(kernel, pairs, spent, least).sum(axis=1)
        if hi < n:
            rect = np.matmul(rows, right[:, :, hi:],
                             out=_work_array(work, "product", (k, hi - lo, n - hi)))
            names = ("theta", "sin") if rotation else ()
            scratch = [_work_array(work, name, rect.shape) for name in names]
            sums += _evaluate(kernel, rect, scratch, least).reshape(k, -1).sum(axis=1)
    return sums  # block by block, in order


# The median heuristic takes its differences in blocks of at most this many floats.
_MEDIAN_BLOCK_ENTRIES = 1 << 20


def _row_norms(column, d, rows=None, extra=None):
    """The row norms of A, from its d columns column(c), bit for bit as
    ``np.linalg.norm(A, axis=-1)``: numpy sums fewer than 8 squares in order.
    From 8 columns on it takes numpy's, of ``rows`` (A) when given.  With
    ``extra``, sqrt(|A|^2 + extra), the squares summed in order."""
    if d >= 8 and extra is None:
        rows = np.stack([column(c) for c in range(d)], axis=-1) if rows is None else rows
        return np.linalg.norm(rows, axis=-1)
    total = extra
    for c in range(d):
        square = np.square(column(c))
        total = square if total is None else np.add(total, square, out=square)
    return np.sqrt(total)


def median_heuristic(X):
    """Median pairwise Euclidean distance of a sample, used as RBF sigma."""
    return _pair_median(_as_points(X))


def _pair_median(X, terms=None):
    """The median over the pairs i < j of sqrt(|X_i - X_j|^2 + t_i + t_j), for
    an (n, d) float X and t = ``terms`` >= 0 (none: X's distances).  A NaN
    value gives NaN, as ``np.median`` does; a median of 0 raises."""
    n, d = X.shape
    if n < 2:
        raise SampleTooSmall("median heuristic needs at least two points")
    if d == 0 and terms is None:
        raise AllPointsIdentical("all points coincide; no usable bandwidth")
    # exact differences X[j] - X[i], j > i, so that duplicate rows give distances
    # of exactly 0, a column at a time over row blocks of at most 128 rows
    Xt, dists = X.T.copy(), []
    for lo, hi in _row_blocks(n, min(_ONE_BLOCK, _MEDIAN_BLOCK_ENTRIES // (n * max(d, 1)))):
        own = _pair_index(hi - lo)
        for cols, pick in ((slice(lo, hi), lambda v: v.take(own)), (slice(hi, n), np.ravel)):
            pairs = lambda v, op: pick(op(v[cols], v[lo:hi, None]))
            extra = None if terms is None else pairs(terms, np.add)
            dists.append(_row_norms(lambda c: pairs(Xt[c], np.subtract), d, extra=extra))
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


def resolve_bandwidth(kernel, X, rule=None):
    """``kernel`` with an unresolved RBF bandwidth set to ``rule(X)``, by
    default ``median_heuristic(X)``, for the points X the kernel acts on,
    which must be finite; a rule that gives 0 raises AllPointsIdentical.  Any
    other kernel is returned as it is."""
    if isinstance(kernel, GaussianRBF) and kernel.bandwidth is None:
        _check_finite(X)
        sigma = (rule or median_heuristic)(X)
        if sigma == 0:
            raise AllPointsIdentical("all points coincide; no usable bandwidth")
        return GaussianRBF(sigma)
    return kernel


def center(K):
    """Double centering H K H with H = I - (1/n) 1 1^T."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DimensionMismatch("centering expects a square matrix")
    row = K.mean(axis=1, keepdims=True)
    col = K.mean(axis=0, keepdims=True)
    return K - row - col + K.mean()
