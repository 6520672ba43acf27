"""Synthetic data models for calibration and power studies.

Marginal models: isotropic and shifted Gaussians, Wishart-random
covariances, exchangeable covariances with positive or negative equal
correlation, and a rotated von Mises-Fisher model whose radius is an
independent chi variable.  Conditional models pair a covariate sample with
responses that are equivariant (shift) or break equivariance (absolute value,
fixed-direction projection), plus a toy particle-collision labelling model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, UnsupportedKind, _require_rng

# Each descriptor name, with the arguments its descriptor takes and whether
# it draws responses Y with X.  top-quark takes none: its two four-vectors
# fix d = 8.
MODELS = {
    "gauss-iso": (("d",), False),
    "gauss-mean": (("d", "mu"), False),
    "wishart": (("d",), False),
    "exch-plus": (("d",), False),
    "exch-minus": (("d",), False),
    "vmf": (("d", "kappa"), False),
    "cond-shift": (("d",), True),
    "cond-abs": (("d",), True),
    "cond-proj": (("d",), True),
    "top-quark": ((), True),
}


@dataclass(frozen=True, eq=False)
class Generator:
    """A named data model with its parameters."""

    tag: str
    d: int
    mu: np.ndarray | None = None
    kappa: float | None = None

    def __post_init__(self):
        if self.tag not in MODELS:
            raise UnsupportedKind(f"unknown generator tag {self.tag!r}")
        if self.d < 1:
            raise BadParameters("dimension must be positive")
        if self.tag == "exch-minus" and self.d < 2:
            raise BadParameters("negative exchangeable correlation needs d >= 2")
        if self.tag == "vmf" and (self.kappa is None or not 0 <= self.kappa < np.inf):
            raise BadParameters("vMF concentration must be finite and nonnegative")
        if self.tag == "top-quark" and self.d != 8:
            raise BadParameters("the collision model produces two four-vectors")

    @property
    def conditional(self):
        return MODELS[self.tag][1]


def exchangeable_cov(d, sign):
    """Unit-variance covariance with equal off-diagonal correlation.

    ``sign=+1`` uses correlation 1/d; ``sign=-1`` uses -1/(d-1), the most
    negative exchangeable correlation (the matrix is then singular).
    """
    rho = 1.0 / d if sign > 0 else -1.0 / (d - 1)
    return (1.0 - rho) * np.eye(d) + rho * np.ones((d, d))


def _psd_sqrt(cov):
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def chi_sample(d, rng, n=1):
    """Draws from the chi distribution with d degrees of freedom."""
    _require_rng(rng)
    return np.sqrt(rng.chisquare(d, n))


def vmf_sample(mu, kappa, n, rng):
    """Unit vectors from the von Mises-Fisher law on the sphere around mu.

    Uses the standard rejection sampler for the cosine of the polar angle;
    kappa = 0 reduces to the uniform distribution on the sphere.
    """
    _require_rng(rng)
    mu = np.asarray(mu, dtype=float)
    d = mu.size
    nrm = np.linalg.norm(mu)
    if nrm <= 0:
        raise BadParameters("the vMF mean direction must be nonzero")
    if not 0 <= kappa < np.inf:
        raise BadParameters("vMF concentration must be finite and nonnegative")
    mu = mu / nrm
    if kappa == 0:
        v = rng.standard_normal((n, d))
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    w = np.empty(n)
    b = (-2.0 * kappa + np.sqrt(4.0 * kappa**2 + (d - 1.0) ** 2)) / (d - 1.0)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (d - 1.0) * np.log(1.0 - x0**2)
    filled = 0
    while filled < n:
        z = rng.beta((d - 1.0) / 2.0, (d - 1.0) / 2.0, n - filled)
        u = rng.uniform(size=n - filled)
        cand = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        ok = kappa * cand + (d - 1.0) * np.log(1.0 - x0 * cand) - c >= np.log(u)
        take = cand[ok]
        w[filled:filled + take.size] = take
        filled += take.size
    # uniform direction in the tangent space, then tilt toward mu
    v = rng.standard_normal((n, d))
    v -= (v @ mu)[:, None] * mu
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    out = np.sqrt(np.clip(1.0 - w**2, 0.0, None))[:, None] * v + w[:, None] * mu
    return out / np.linalg.norm(out, axis=1, keepdims=True)


_ENERGY_SCALE = 100.0
_ENERGY_CUT = 200.0
_MASS_SCALE = 50.0


def sample(gen, n, rng):
    """Draw n observations; conditional models return a pair (X, Y)."""
    _require_rng(rng)
    if n < 1:
        raise BadParameters("sample size must be positive")
    d = gen.d
    if gen.tag == "gauss-iso":
        return rng.standard_normal((n, d))
    if gen.tag == "gauss-mean":
        return rng.standard_normal((n, d)) + gen.mu
    if gen.tag in ("exch-plus", "exch-minus"):
        sign = 1 if gen.tag == "exch-plus" else -1
        return rng.standard_normal((n, d)) @ _psd_sqrt(exchangeable_cov(d, sign)).T
    if gen.tag == "vmf":
        u = vmf_sample(np.eye(d)[0], gen.kappa, n, rng)
        return chi_sample(d, rng, n)[:, None] * u
    if gen.tag in ("wishart", "cond-shift", "cond-abs", "cond-proj"):
        a = rng.standard_normal((d, d))  # a a^T ~ Wishart(I_d, d)
        x = rng.standard_normal((n, d)) @ _psd_sqrt(a @ a.T).T
        if gen.tag == "wishart":
            return x
        noise = rng.standard_normal((n, d))
        if gen.tag == "cond-shift":
            y = x + noise
        elif gen.tag == "cond-abs":
            y = np.abs(x) + noise
        else:
            y = np.outer(x[:, 0], np.ones(d)) + noise
        return x, y
    if gen.tag == "top-quark":
        x = np.empty((n, 8))
        for blk in (0, 4):
            p = rng.standard_normal((n, 3)) * _ENERGY_SCALE
            mass = np.abs(rng.standard_normal(n)) * _MASS_SCALE
            x[:, blk] = np.sqrt(mass**2 + np.sum(p**2, axis=1))
            x[:, blk + 1:blk + 4] = p
        prob = np.where(x[:, 0] >= _ENERGY_CUT, 0.9, 0.1)
        y = (rng.uniform(size=n) < prob).astype(float)
        return x, y[:, None]
    raise UnsupportedKind(f"unknown generator tag {gen.tag!r}")


# ---------------------------------------------------------------------------
# descriptor parsing


_AXIS_VECTOR = re.compile(r"^([0-9.]+)e(\d+)$")


def _parse_mu(text, d):
    m = _AXIS_VECTOR.match(text)
    if not m:
        raise UnsupportedKind(f"bad mean descriptor {text!r}; use '<coef>e<axis>'")
    coef = float(m.group(1))
    axis = int(m.group(2))
    if not 1 <= axis <= d:
        raise BadParameters("mean axis outside the space dimension")
    mu = np.zeros(d)
    mu[axis - 1] = coef
    return mu


def parse_generator(text):
    """Parse a generator descriptor such as ``gauss-mean(d=4,mu=0.4e1)``.

    A descriptor is ``name(k=v,...)`` with a name and the arguments that
    ``MODELS`` lists for it; ``top-quark`` is written bare.  An argument the
    model does not take, or a number that does not parse, raises
    ``UnsupportedKind``.  ``vmf``'s ``kappa`` defaults to 0.
    """
    m = re.match(r"^([a-z-]+)(?:\(([^)]*)\))?$", text.strip().lower())
    if not m or m.group(1) not in MODELS:
        raise UnsupportedKind(f"unrecognised generator descriptor {text!r}")
    name, takes = m.group(1), MODELS[m.group(1)][0]
    args = {}
    for part in filter(None, (m.group(2) or "").split(",")):
        k, eq, v = (x.strip() for x in part.partition("="))
        if not eq or k not in takes:
            raise UnsupportedKind(f"{name} takes no argument {part.strip()!r}; "
                                  f"it takes {takes}")
        args[k] = v
    if not takes:
        return Generator(name, 8)
    if "d" not in args:
        raise BadParameters("generator descriptors need a dimension d")
    if name == "gauss-mean" and "mu" not in args:
        raise BadParameters("gauss-mean needs a mu argument")
    try:
        d = int(args["d"])
        kappa = float(args.get("kappa", 0.0)) if name == "vmf" else None
        mu = _parse_mu(args["mu"], d) if "mu" in args else None
    except ValueError:
        raise UnsupportedKind(f"bad number in generator descriptor {text!r}") from None
    return Generator(name, d, mu=mu, kappa=kappa)
