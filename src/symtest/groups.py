"""Compact group actions on Euclidean sample spaces.

Provides the group families used by the invariance and equivariance tests:
special orthogonal groups SO(d), symmetric (permutation) groups S_d, two
product constructions on R^4 (a pair of planes rotated by the same SO(2)
element, and two independently rotated planes), finite cyclic rotation
groups, and the trivial group.  For each family the module offers

* uniform (Haar) sampling into a ``TransformBatch``, the one representation
  of group elements: one element per row, applied to a whole sample at once,
* orbit draws ``orbit_draw``: each row moved by its own Haar element, for
  callers that need ``g x`` but never ``g``,
* orbit machinery: an orbit selector ``gamma`` picking one point per orbit,
  a representative inversion ``tau`` that carries ``gamma(x)`` back to ``x``,
  a sampler for the conditional distribution of the inverting element when
  the action has stabilisers, and several maximal invariants.  Each works
  on a whole (n, d) sample at once (``gamma_batch``, ``tau_batch``,
  ``inversion_kernel_batch``, ``invariant_batch``);
  ``representative_inversion`` and ``inversion_kernel_sample`` wrap two of
  them for one point.

A batch stores every element as a rotation matrix, a permutation index
array or the identity.  In an index array entry ``p[i]`` is the image of
position ``i``; the action places coordinate ``i`` of the input at
coordinate ``p[i]`` of the output.  SO(3) elements also have a unit
quaternion form, the points of the SO(3) kernel: ``haar_quaternions`` draws
them and ``rotation_quaternions`` converts a matrix stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameters,
    DimensionMismatch,
    InvalidRotation,
    UnsupportedFamily,
    UnsupportedKind,
    VariantMismatch,
    ZeroVector,
    _check_finite,
    _require_rng,
)
from .kernels import _pair_median, _row_norms

_ZERO_TOL = 1e-12

FAMILIES = ("so", "sym", "paired-so2", "so2xso2", "rot-discrete", "trivial")

# the maximal invariants ``invariant_batch`` computes
INVARIANT_KINDS = ("norm", "sorted", "minkowski-q", "per-block-norm", "paired-rotation")


# ---------------------------------------------------------------------------
# group specifications


@dataclass(frozen=True)
class GroupSpec:
    """Which group acts, and on which space.

    ``family`` is one of ``so``, ``sym``, ``paired-so2`` (both planes of R^4
    rotated by the same SO(2) element), ``so2xso2`` (independent plane
    rotations on R^4), ``rot-discrete`` (cyclic rotations by a fixed step)
    and ``trivial``.  For the trivial family ``dim == 0`` means "any
    dimension".
    """

    family: str
    dim: int
    step_deg: float | None = None
    axis: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamily(f"unknown group family {self.family!r}")
        if self.family == "so" and self.dim < 2:
            raise BadParameters("rotation groups need dimension >= 2")
        if self.family == "sym" and self.dim < 1:
            raise BadParameters("permutation groups need dimension >= 1")
        if self.family in ("paired-so2", "so2xso2") and self.dim != 4:
            raise BadParameters(f"{self.family} acts on R^4")
        if self.family == "rot-discrete":
            if self.dim not in (2, 3):
                raise BadParameters("discrete rotations implemented for d in {2, 3}")
            if self.step_deg is None or not 0 < self.step_deg <= 360:
                raise BadParameters("step angle must lie in (0, 360] degrees")
            if abs(360.0 / self.step_deg - round(360.0 / self.step_deg)) > 1e-9:
                raise BadParameters("step angle must divide 360 degrees")
            if self.dim == 3 and self.axis not in (1, 2, 3):
                raise BadParameters("a rotation axis in {1, 2, 3} is required in R^3")


def so(d):
    return GroupSpec("so", d)


def sym(d):
    return GroupSpec("sym", d)


def paired_so2():
    return GroupSpec("paired-so2", 4)


def so2xso2():
    return GroupSpec("so2xso2", 4)


def discrete_rotations(step_deg, d, axis=None):
    return GroupSpec("rot-discrete", d, step_deg=step_deg, axis=axis)


def trivial(d=0):
    return GroupSpec("trivial", d)


_GROUP_PATTERNS = [
    (re.compile(r"^so\((\d+)\)$"), lambda m: so(int(m.group(1)))),
    (re.compile(r"^sym\((\d+)\)$"), lambda m: sym(int(m.group(1)))),
    (re.compile(r"^paired-so2$"), lambda m: paired_so2()),
    (re.compile(r"^so2xso2$"), lambda m: so2xso2()),
    (
        re.compile(r"^rot-discrete\(([0-9.]+)deg,d=(\d+)(?:,axis=(\d+))?\)$"),
        lambda m: discrete_rotations(
            float(m.group(1)), int(m.group(2)),
            int(m.group(3)) if m.group(3) else None,
        ),
    ),
    (re.compile(r"^trivial(?:\((\d+)\))?$"),
     lambda m: trivial(int(m.group(1)) if m.group(1) else 0)),
]


def parse_group(text):
    """Parse a group descriptor such as ``so(4)`` or ``rot-discrete(24deg,d=3,axis=3)``."""
    s = text.strip().lower()
    for pat, build in _GROUP_PATTERNS:
        m = pat.match(s)
        if m:
            return build(m)
    raise UnsupportedFamily(f"unrecognised group descriptor {text!r}")


# ---------------------------------------------------------------------------
# Haar sampling


def haar_rotations(d, count, rng):
    """Stack of ``count`` rotation matrices drawn from Haar measure on SO(d).

    QR of a Gaussian matrix, with the R-diagonal sign fix that makes the
    orthogonal factor Haar on O(d), then a final column flip onto SO(d).
    """
    _require_rng(rng)
    a = rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(a)
    sign = np.sign(np.diagonal(r, axis1=1, axis2=2))
    sign[sign == 0] = 1.0
    q = q * sign[:, None, :]
    neg = np.linalg.det(q) < 0
    q[neg, :, -1] *= -1.0
    return q


def haar_quaternions(count, rng):
    """``count`` unit quaternions (w, x, y, z), as (count, 4), Haar on SO(3).

    A normalised standard Gaussian in R^4 is uniform on S^3, the double cover
    of SO(3), so its rotation is Haar (Shoemake 1992, "Uniform random
    rotations").  q and -q are the same rotation.
    """
    _require_rng(rng)
    q = rng.standard_normal((count, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def rotation_quaternions(R):
    """Unit quaternions (w, x, y, z) of an (n, 3, 3) stack of rotations, as (n, 4).

    Shepperd's method: the symmetric matrix 4 q q^T is linear in R; its row
    with the largest diagonal entry, 4 q_k q with q_k^2 >= 1/4, is divided by
    its norm, so every branch is well conditioned.  The sign makes q_k > 0.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 3 or R.shape[1:] != (3, 3):
        raise InvalidRotation("expected a stack of 3x3 rotation matrices")
    r00, r11, r22 = R[:, 0, 0], R[:, 1, 1], R[:, 2, 2]
    tr = r00 + r11 + r22
    wx, wy, wz = R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]
    xy, xz, yz = R[:, 0, 1] + R[:, 1, 0], R[:, 0, 2] + R[:, 2, 0], R[:, 1, 2] + R[:, 2, 1]
    outer = np.stack([
        np.stack([1.0 + tr, wx, wy, wz], axis=1),
        np.stack([wx, 1.0 + 2.0 * r00 - tr, xy, xz], axis=1),
        np.stack([wy, xy, 1.0 + 2.0 * r11 - tr, yz], axis=1),
        np.stack([wz, xz, yz, 1.0 + 2.0 * r22 - tr], axis=1),
    ], axis=1)
    k = np.argmax(np.diagonal(outer, axis1=1, axis2=2), axis=1)
    row = outer[np.arange(R.shape[0]), k]
    return row / np.linalg.norm(row, axis=1, keepdims=True)


def _plane_rotations(d, planes, theta):
    """A (count, d, d) stack of rotations of R^d, one per row of ``theta``.

    Column k of the (count, len(planes)) angles turns the coordinate plane
    ``planes[k] = (i, j)``, taking e_i towards e_j; the rest of R^d is fixed.
    """
    c, s = np.cos(theta), np.sin(theta)
    mats = np.tile(np.eye(d), (theta.shape[0], 1, 1))
    for k, (i, j) in enumerate(planes):
        mats[:, i, i], mats[:, i, j] = c[:, k], -s[:, k]
        mats[:, j, i], mats[:, j, j] = s[:, k], c[:, k]
    return mats


# the two planes of R^4 that the paired-so2 and so2xso2 families rotate
_R4_PLANES = ((0, 1), (2, 3))


class TransformBatch:
    """One group element per observation, in vectorised form.

    ``apply(X)`` transforms row ``i`` of an (n, d) sample by element ``i``
    and ``apply_inverse(X)`` by its inverse.  Used wherever a statistic
    needs independent draws per observation; ``apply_all(X)`` instead
    applies every element to the whole sample.
    """

    def __init__(self, spec, kind, data, count):
        self.spec = spec
        self.kind = kind  # "rot" | "perm" | "identity"
        self.data = data
        self.count = count

    def apply(self, X):
        return self._act(X, 1.0)

    def apply_inverse(self, X):
        return self._act(X, -1.0)

    def apply_all(self, X):
        """Every element applied to every row of X, as a (count, n, d) array."""
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        data = None if self.data is None else np.repeat(self.data, n, axis=0)
        rows = TransformBatch(self.spec, self.kind, data, self.count * n)
        out = rows._act(np.tile(X, (self.count, 1)), 1.0)
        return out.reshape(self.count, n, X.shape[1])

    def _act(self, X, sign):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.count:
            raise DimensionMismatch("sample rows must match the number of elements")
        if self.spec.dim and X.shape[1] != self.spec.dim:
            raise DimensionMismatch("point dimension does not match the group spec")
        if self.kind == "identity":
            return X.copy()
        if self.kind == "rot":
            return np.einsum("nij,nj->ni" if sign > 0 else "nji,nj->ni", self.data, X)
        if self.kind == "perm":
            if sign < 0:
                return np.take_along_axis(X, self.data, axis=1)
            out = np.empty_like(X)
            np.put_along_axis(out, self.data, X, axis=1)
            return out
        raise VariantMismatch(f"unknown batch kind {self.kind!r}")


def sample_batch(spec, rng, count):
    """Draw ``count`` independent Haar elements as a TransformBatch."""
    _require_rng(rng)
    if spec.family == "so":
        return TransformBatch(spec, "rot", haar_rotations(spec.dim, count, rng), count)
    if spec.family == "sym":
        base = np.tile(np.arange(spec.dim), (count, 1))
        return TransformBatch(spec, "perm", rng.permuted(base, axis=1), count)
    if spec.family == "trivial":
        return TransformBatch(spec, "identity", None, count)
    # the other families turn coordinate planes by drawn angles
    if spec.family == "paired-so2":
        theta = rng.uniform(0.0, 2 * np.pi, count)
        planes, theta = _R4_PLANES, np.stack([theta, theta], axis=1)
    elif spec.family == "so2xso2":
        planes, theta = _R4_PLANES, rng.uniform(0.0, 2 * np.pi, (count, 2))
    else:  # rot-discrete; in R^3 it turns the plane orthogonal to the axis
        order = int(round(360.0 / spec.step_deg))
        theta = np.deg2rad(spec.step_deg) * rng.integers(0, order, count)[:, None]
        planes = [(0, 1) if spec.dim == 2 else ((1, 2), (0, 2), (0, 1))[spec.axis - 1]]
    return TransformBatch(spec, "rot", _plane_rotations(spec.dim, planes, theta), count)


def orbit_draw(spec, X, rng, count=None):
    """``g_i X_i`` for a fresh Haar element ``g_i`` per row of X, as (n, d).

    For SO(d) acting on R^d the image of x under a Haar rotation is uniform
    on the sphere of radius |x|, so each row is a Gaussian direction rescaled
    to the row's norm and no rotation is built; zero rows stay zero.  Every
    other family applies a ``sample_batch`` draw.  With ``count`` it returns
    ``count`` such copies as a (count, n, d) stack from one generator call,
    equal to ``count`` calls without it and leaving the generator where they
    leave it.
    """
    _require_rng(rng)
    X = _points(spec, X)
    _check_finite(X)
    k = 1 if count is None else count
    if spec.family == "so":
        out = rng.standard_normal((k,) + X.shape)
        norms = _row_norms(lambda c: out[..., c], X.shape[1], rows=out)
        out *= (np.linalg.norm(X, axis=1) / norms)[..., None]
    else:
        out = sample_batch(spec, rng, k * len(X)).apply(np.tile(X, (k, 1)))
    return out.reshape(X.shape if count is None else (k,) + X.shape)


def orbit_bandwidth(spec, X):
    """The median over the pairs i < j of sqrt(E|g X_i - h X_j|^2), g, h Haar:
    sqrt(|X_i|^2 + |X_j|^2 - 2 (P X_i) . (P X_j)), P = E g the projection on
    the fixed subspace (0 for so, the R^4 products and a plane's rotations;
    coordinate means for sym; the axis in R^3; I for a trivial action, where
    it is ``median_heuristic``).  It reads |x| and P x, which g keeps, so
    every orbit copy g_i X_i gives X's value and the tests stay exact."""
    X = _points(spec, X)
    _check_finite(X)
    # P X in an orthonormal basis, and rows with the norms of (I - P) X
    if spec.family == "sym":
        mean = X.mean(axis=1, keepdims=True)
        fixed, moving = mean * np.sqrt(X.shape[1]), X - mean
    elif spec.family == "trivial" or (spec.family == "rot-discrete"
                                      and round(360.0 / spec.step_deg) == 1):
        fixed, moving = X, X[:, :0]
    elif spec.family == "rot-discrete" and spec.dim == 3:
        fixed, moving = X[:, spec.axis - 1:spec.axis], np.delete(X, spec.axis - 1, axis=1)
    else:
        fixed, moving = X[:, :0], X
    terms = np.einsum("ij,ij->i", moving, moving) if moving.shape[1] else None
    return _pair_median(fixed, terms)


# ---------------------------------------------------------------------------
# orbit machinery


def _points(spec, X):
    """An (n, d) sample as floats, checked against the group's dimension."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (spec.dim and X.shape[1] != spec.dim):
        raise DimensionMismatch("point dimension does not match the group spec")
    return X


def _so_tau(X):
    """For each row x, the rotation mapping ||x|| e1 to x, smooth off the e1 axis.

    Rotates by the angle between e1 and x inside their common plane and
    fixes the orthogonal complement:
    I + (c - 1)(e1 e1^T + t t^T) + s (t e1^T - e1 t^T) with u = x / ||x||,
    c = u_1, t the unit part of u orthogonal to e1 and s its length.  On the
    positive e1 axis it is the identity; on the negative axis a fixed
    half-turn in the (e1, e2) plane.
    """
    d = X.shape[1]
    nrm = np.linalg.norm(X, axis=1)
    if np.any(nrm <= _ZERO_TOL):
        raise ZeroVector("no inverting rotation at the origin")
    t = X / nrm[:, None]
    c = t[:, 0].copy()
    t[:, 0] = 0.0
    s = np.linalg.norm(t, axis=1)  # sin of the angle, >= 0 by construction
    axis = s <= 1e-12
    if axis.any():
        t[axis] = np.eye(d)[1]
        c[axis] = np.sign(c[axis])
        s[axis] = 0.0
    t /= np.where(axis, 1.0, s)[:, None]
    mats = (c - 1.0)[:, None, None] * t[:, :, None] * t[:, None, :]
    mats[:, 0, 0] += c - 1.0
    mats[:, :, 0] += s[:, None] * t
    mats[:, 0, :] -= s[:, None] * t
    mats += np.eye(d)
    return mats


def _block_angles(P):
    """Polar angle of each row of an (n, 2) block; ZeroVector on a zero row."""
    if np.any(np.linalg.norm(P, axis=1) <= _ZERO_TOL):
        raise ZeroVector("a block vanishes; the inverting element is not determined")
    return np.arctan2(P[:, 1], P[:, 0])


def gamma_batch(spec, X):
    """The canonical orbit representative gamma(x) of every row of X."""
    X = _points(spec, X)
    if spec.family in ("so", "so2xso2"):
        out = np.zeros_like(X)
        if spec.family == "so":
            out[:, 0] = np.linalg.norm(X, axis=1)
        else:
            out[:, 0] = np.linalg.norm(X[:, 0:2], axis=1)
            out[:, 2] = np.linalg.norm(X[:, 2:4], axis=1)
        return out
    if spec.family == "sym":
        return np.sort(X, axis=1)
    if spec.family == "paired-so2":
        return tau_batch(spec, X).apply_inverse(X)
    if spec.family == "trivial":
        return X.copy()
    raise UnsupportedFamily(f"no orbit selector for the {spec.family!r} family")


def tau_batch(spec, X):
    """Elements tau(x) with tau(x) gamma(x) == x, one per row of X.

    For free actions this is the unique inverting element; it is equivariant,
    tau(g x) == g tau(x), wherever the map is defined and continuous.
    """
    X = _points(spec, X)
    n = X.shape[0]
    if spec.family == "so":
        return TransformBatch(spec, "rot", _so_tau(X), n)
    if spec.family == "sym":
        return TransformBatch(spec, "perm", np.argsort(X, axis=1, kind="stable"), n)
    if spec.family in ("paired-so2", "so2xso2"):
        first = _block_angles(X[:, 0:2])
        second = first if spec.family == "paired-so2" else _block_angles(X[:, 2:4])
        theta = np.stack([first, second], axis=1)
        return TransformBatch(spec, "rot", _plane_rotations(4, _R4_PLANES, theta), n)
    if spec.family == "trivial":
        return TransformBatch(spec, "identity", None, n)
    raise UnsupportedFamily(
        f"no representative inversion for the {spec.family!r} family"
    )


def inversion_kernel_batch(spec, X, rng):
    """Per row, one draw from the law of the element carrying gamma(x) to x.

    For SO(d), d >= 3, the stabiliser of e1 is a copy of SO(d-1), so the draw
    is tau(x) times a uniformly random stabiliser element; the n stabiliser
    draws come from one ``haar_rotations`` call, the same stream as n calls
    of one.  For free actions (d = 2, permutations without ties, the R^4
    products) the law is a point mass at tau(x).
    """
    _require_rng(rng)
    tau = tau_batch(spec, X)
    if spec.family == "so" and spec.dim >= 3:
        h = haar_rotations(spec.dim - 1, tau.count, rng)
        tau.data[:, :, 1:] = tau.data[:, :, 1:] @ h
    return tau


def invariant_batch(spec, kind, X):
    """A maximal invariant of the group action at every row of X, as rows.

    Kinds: ``norm`` (SO(d)); ``sorted`` (S_d); ``minkowski-q`` (for rows of
    k four-vectors (E, p) under one Lorentz transformation of them all, the
    Minkowski products E_i E_j - p_i . p_j over i <= j, row by row: the
    upper triangle of their Minkowski Gram matrix, E^2 - |p|^2 for k = 1);
    ``per-block-norm`` (independent plane rotations); ``paired-rotation``
    (both block norms, their inner product, and the sign of their planar
    cross product, for the shared SO(2) action on R^4).
    """
    X = np.asarray(X, dtype=float)
    if kind not in INVARIANT_KINDS:
        raise UnsupportedKind(f"unknown maximal invariant kind {kind!r}")
    if kind == "norm":
        return np.linalg.norm(X, axis=1, keepdims=True)
    if kind == "sorted":
        return np.sort(X, axis=1)
    if kind == "minkowski-q":
        if X.shape[1] % 4 != 0:
            raise DimensionMismatch("expected rows of four-vectors")
        p = X.reshape(X.shape[0], -1, 4)
        e, q = p[..., 0], p[..., 1:]
        i, j = np.triu_indices(p.shape[1])
        return e[:, i] * e[:, j] - np.sum(q[:, i] * q[:, j], axis=2)
    if X.shape[1] != 4:
        raise DimensionMismatch(f"the {kind} invariant lives on R^4")
    p1, p2 = X[:, 0:2], X[:, 2:4]
    norms = [np.linalg.norm(p1, axis=1), np.linalg.norm(p2, axis=1)]
    if kind == "per-block-norm":
        return np.stack(norms, axis=1)
    cross = p1[:, 0] * p2[:, 1] - p1[:, 1] * p2[:, 0]
    return np.stack(norms + [np.sum(p1 * p2, axis=1), np.sign(cross)], axis=1)


def _one(x):
    return np.asarray(x, dtype=float).reshape(1, -1)


def representative_inversion(spec, x):
    """The element tau(x) of ``tau_batch`` at one point, as a one-row batch."""
    return tau_batch(spec, _one(x))


def inversion_kernel_sample(spec, x, rng):
    """One draw of ``inversion_kernel_batch`` at one point, as a one-row batch."""
    return inversion_kernel_batch(spec, _one(x), rng)


def default_invariant_kind(spec):
    """The natural maximal invariant for each group family."""
    kinds = {
        "so": "norm",
        "sym": "sorted",
        "so2xso2": "per-block-norm",
        "paired-so2": "paired-rotation",
    }
    if spec.family not in kinds:
        raise UnsupportedFamily(
            f"no default maximal invariant for the {spec.family!r} family"
        )
    return kinds[spec.family]
