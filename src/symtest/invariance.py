"""Monte Carlo tests of distributional invariance under a compact group.

The central routine is a conditional Monte Carlo test: because Haar
re-randomisation leaves an invariant distribution unchanged, re-randomised
copies of the sample are exchangeable with the original under the null, so
comparing the observed statistic against statistics of re-randomised copies
yields an exactly valid p-value at any Monte Carlo budget.

Also here: a projected-ECDF (Kolmogorov-Smirnov style) statistic over random
directions, a test that pairs each observation with a transformed copy and
randomises by swapping within pairs, a test of the conditional law of the
inverting group element for non-free actions, and a power estimator that
reuses the null exchangeability to predict rejection rates from a single
dataset.  Every test ranks its observed statistic among exchangeable null
copies, so each p-value is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameters,
    BadProjectionCount,
    DimensionMismatch,
    UnsupportedFamily,
    _check_alpha,
    _check_budget,
    _check_finite,
    _checked_sample,
    _require_rng,
)
from .groups import (
    haar_quaternions,
    inversion_kernel_batch,
    orbit_bandwidth,
    orbit_draw,
    rotation_quaternions,
    sample_batch,
)
from .kernels import GaussianRBF, RotationKernelSO3, resolve_bandwidth
from .mmd import _paired_swap_stats, invariance_stat_u, nystrom_invariance_stat


@dataclass
class TestResult:
    """Outcome of a Monte Carlo hypothesis test."""

    statistic: float
    p_value: float
    null_stats: np.ndarray
    alpha: float
    reject: bool
    method: str


def pvalue_from_nulls(t_obs, nulls):
    """Monte Carlo p-value (1 + #{T_b >= T}) / (1 + B).

    Ties count against rejection, so a statistic with atoms gives a
    conservative test.  A NaN statistic, observed or null, raises
    BadParameters: it compares false with everything, so it would count as
    exceeded by nothing.
    """
    nulls = np.asarray(nulls, dtype=float)
    if np.isnan(t_obs) or np.isnan(nulls).any():
        raise BadParameters("the statistic is NaN on the sample or a null copy")
    return (1.0 + int(np.sum(nulls >= t_obs))) / (1.0 + nulls.size)


def _rank_test(t_obs, nulls, alpha, method):
    """The Monte Carlo test that ranks t_obs among its exchangeable null copies."""
    p = pvalue_from_nulls(t_obs, nulls)
    return TestResult(t_obs, p, nulls, alpha, p <= alpha, method)


def mc_invariance_test(X, spec, kernel=GaussianRBF(), m=2, B=200, alpha=0.05,
                       statistic="mmd-u", rng=None, n_landmarks=None,
                       n_projections=None):
    """Conditional Monte Carlo test of invariance of the law of X.

    ``statistic`` selects the test statistic: ``mmd-u`` (the mean
    off-diagonal Gram entry, ``invariance_stat_u``), ``mmd-nystrom`` (the
    squared norm of the sample's Nyström mean embedding over
    ``n_landmarks`` landmarks drawn from the sample, by default ceil(sqrt n),
    a low-rank form of the ``mmd-u`` statistic), ``cw`` (max
    Kolmogorov-Smirnov distance over random projections and m group
    elements), or a callable ``f(X) -> float``.  Only ``cw`` draws
    transforms, so m matters only to it; its transforms and projection
    directions are drawn once and reused across the B re-randomised copies,
    while the Nyström landmarks are drawn afresh for each.  Each copy moves
    every row by its own Haar element through ``orbit_draw``; the ``mmd-u``
    copies are drawn and scored as stacks, bit for bit as one at a time.
    The p-value is exact for any statistic, since the copies are
    exchangeable with X under the null.  ``mmd-u`` and ``mmd-nystrom`` take
    ``groups.orbit_bandwidth`` for ``rbf(median)``, the default ``kernel``,
    which every copy shares.
    """
    if np.ndim(X) != 2:
        raise DimensionMismatch("the sample must be an (n, d) array")
    X = _checked_sample(X, B, rng, alpha)
    _check_budget(m, "m")
    n = X.shape[0]
    if statistic in ("mmd-u", "mmd-nystrom"):
        kernel = resolve_bandwidth(kernel, X, lambda X: orbit_bandwidth(spec, X))

    if callable(statistic):
        method = getattr(statistic, "__name__", "custom")

        def stat_fn(sample):
            return float(statistic(sample))

    elif statistic == "mmd-u":
        method = "mc-invariance/mmd-u"

        def stat_fn(sample):
            return invariance_stat_u(sample, kernel)

    elif statistic == "mmd-nystrom":
        method = "mc-invariance/mmd-nystrom"
        j = n_landmarks if n_landmarks is not None else int(np.ceil(np.sqrt(n)))

        def stat_fn(sample):
            return nystrom_invariance_stat(sample, kernel, j, rng)

    elif statistic == "cw":
        method = "mc-invariance/cw"
        j = n_projections if n_projections is not None else int(np.ceil(np.sqrt(n)))
        if j < 1:
            raise BadProjectionCount("need at least one projection direction")
        dirs = _random_directions(j, X.shape[1], rng)
        transforms = sample_batch(spec, rng, m)

        def stat_fn(sample):
            return cw_statistic(sample, transforms, dirs)

    else:
        raise BadParameters(f"unknown statistic choice {statistic!r}")

    t_obs = stat_fn(X)
    if statistic == "mmd-u":
        nulls = _stacked_nulls(B, X.size, kernel,
                               lambda count: orbit_draw(spec, X, rng, count))
    else:
        nulls = np.array([stat_fn(orbit_draw(spec, X, rng)) for _ in range(B)])
    return _rank_test(t_obs, nulls, alpha, method)


# The exact tests hold at most this many values of null samples at once.
_DRAW_ENTRIES = 1 << 16


def _stacked_nulls(B, size, kernel, draw):
    """``invariance_stat_u`` of B null samples of ``size`` values each, drawn by
    ``draw(count)`` as stacks of as many as ``_DRAW_ENTRIES`` allows, one draw
    and one statistic call per stack."""
    step = max(1, _DRAW_ENTRIES // size)
    counts = [min(step, B - lo) for lo in range(0, B, step)]
    return np.concatenate([invariance_stat_u(draw(c), kernel, stack=True) for c in counts])


# ---------------------------------------------------------------------------
# projected-ECDF statistic


def _random_directions(j, d, rng):
    v = rng.standard_normal((j, d))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return v / norms


def ks_distance(a, b):
    """Exact sup distance between the ECDFs of two 1-d samples."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    _check_finite(a, b)
    return _ks_sup(a, b)


def _ks_sup(a, b):
    """``ks_distance`` of two finite float samples."""
    a, b = np.sort(a), np.sort(b)
    pts = np.concatenate([a, b])
    fa = np.searchsorted(a, pts, side="right") / a.size
    fb = np.searchsorted(b, pts, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def cw_statistic(X, transforms, directions):
    """Max over transforms and directions of the projected ECDF distance.

    For each group element g of the TransformBatch ``transforms`` and unit
    direction t, compares the empirical distribution of t.X with that of
    t.(gX) by the exact Kolmogorov-Smirnov sup distance, and returns the
    largest value found.
    """
    X = np.asarray(X, dtype=float)
    _check_finite(X)
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != X.shape[1]:
        raise BadProjectionCount("directions must be a (J, d) array")
    if transforms.count < 1:
        raise BadParameters("at least one group element is required")
    proj = X @ directions.T  # n x J
    best = 0.0
    for proj_g in transforms.apply_all(X) @ directions.T:
        for jj in range(directions.shape[0]):
            best = max(best, _ks_sup(proj[:, jj], proj_g[:, jj]))
    return best


# ---------------------------------------------------------------------------
# two-sample test on orbit copies


def transformation_two_sample_test(X, spec, kernel, B=200, alpha=0.05, rng=None):
    """Invariance test comparing X against a randomly transformed copy.

    Each observation is hit by an independent Haar element, Y_i = g_i X_i,
    and the pairs (X_i, Y_i) are scored by their paired MMD U-statistic
    (``mmd._paired_swap_stats`` with all signs +1).  Under invariance Y_i
    is independent of g_i, so (X_i, Y_i) and (Y_i, X_i) have the same law:
    flipping each pair by an independent fair sign gives null copies
    exchangeable with the observed pairs, and the p-value is exact.  The B
    copies are the statistics of B sign vectors, all read from one kernel
    matrix built from three Grams.  ``rbf(median)`` takes ``groups.orbit_bandwidth``.
    """
    X = _checked_sample(X, B, rng, alpha)
    kernel = resolve_bandwidth(kernel, X, lambda X: orbit_bandwidth(spec, X))
    n = X.shape[0]
    Y = orbit_draw(spec, X, rng)
    signs = np.ones((B + 1, n))
    signs[1:] -= 2.0 * rng.integers(0, 2, size=(B, n))
    stats = _paired_swap_stats(X, Y, kernel, signs)
    return _rank_test(float(stats[0]), stats[1:], alpha,
                      "transformation-two-sample-mmd")


# ---------------------------------------------------------------------------
# inversion test for non-free actions


def inversion_mc_test(X, spec, kernel, B=200, alpha=0.05, rng=None):
    """Test that the inverting group element is conditionally Haar.

    For each observation one element tau_i is drawn from the conditional
    law of the element mapping the orbit representative to the point; under
    invariance these draws are jointly Haar.  The statistic is the mean
    off-diagonal Gram entry ``invariance_stat_u(tau, kernel)``, ranked among
    the same on B fresh Haar samples of size n, drawn and scored as stacks,
    one sampler call and one kernel-sum call per stack.

    The null copies are i.i.d. Haar samples, so under the null they are
    exchangeable with tau and the p-value is exact; they do not depend on
    the data.  The statistic is the MMD to exact Haar measure up to a
    constant: for a kernel with k(g h, g' h) = k(g, g'), the right
    invariance of Haar measure gives E k(t, G) = E k(1, G t^-1) = E k(1, G)
    for every t, so MMD^2(law of tau, Haar) is E k(tau, tau') minus a
    constant, and the statistic estimates E k(tau, tau') without bias.  The
    ``so3`` kernel, ``rbf`` on rotation matrices or on permutations stored
    as index arrays, and ``delta`` all have this property.  The null samples
    are ``sample_batch`` draws; for the rotation kernel, which takes SO(3)
    elements as unit quaternions, ``haar_quaternions`` draws.  ``rbf(median)``
    takes sqrt(E|g - h|^2) for independent Haar g, h: sqrt(2d) on rotation
    matrices, of mean 0, and sqrt(d (d^2 - 1) / 6) on index arrays; that is
    0 on sym(1), whose inverting elements all coincide: AllPointsIdentical.
    """
    X = _checked_sample(X, B, rng, alpha)
    n = X.shape[0]
    if spec.family not in ("so", "sym"):
        raise UnsupportedFamily(f"no inversion sampler for the {spec.family!r} family")
    rotation_kernel = isinstance(kernel, RotationKernelSO3)
    if rotation_kernel and (spec.family, spec.dim) != ("so", 3):
        raise UnsupportedFamily("the rotation kernel is defined on SO(3)")
    d = spec.dim
    haar = float(np.sqrt(2 * d if spec.family == "so" else d * (d * d - 1) / 6))
    kernel = resolve_bandwidth(kernel, X, lambda _: haar)
    tau = inversion_kernel_batch(spec, X, rng).data
    if rotation_kernel:
        tau = rotation_quaternions(tau)
    t_obs = invariance_stat_u(tau, kernel)

    def draw(count):
        # one sampler call of count * n rows, whose values and generator
        # state are those of count calls of n
        null = (haar_quaternions(count * n, rng) if rotation_kernel
                else sample_batch(spec, rng, count * n).data)
        return null.reshape(count, n, *null.shape[1:])

    nulls = _stacked_nulls(B, tau.size, kernel, draw)
    return _rank_test(t_obs, nulls, alpha, "inversion-mmd")


# ---------------------------------------------------------------------------
# power estimation


@dataclass
class PowerEstimate:
    """Estimated rejection probability with its per-resample components."""

    beta_hat: float
    betas: np.ndarray
    p_nulls: np.ndarray
    n_resamples: int


def conditional_power_binomial(p0, B, alpha):
    """Probability that a Monte Carlo p-value with null mass p0 rejects.

    If each null copy independently exceeds the observed statistic with
    probability p0, the p-value rejects at level alpha exactly when the
    binomial count stays below floor(alpha (B+1)); this returns that
    binomial tail probability.
    """
    if not 0 <= p0 <= 1:
        raise BadParameters("p0 must lie in [0, 1]")
    _check_budget(B)
    _check_alpha(alpha)
    kmax = int(np.floor(alpha * (B + 1))) - 1
    if kmax < 0:
        return 0.0
    from scipy.stats import binom

    return float(binom.cdf(kmax, B, p0))


def power_estimate(X, test_fn, n_resamples=50, rng=None):
    """Estimate test power from one dataset by bootstrap re-testing.

    Each bootstrap resample of X is run through ``test_fn(sample) ->
    TestResult``, a Monte Carlo test with B null copies.  The fraction p0 =
    (p (B+1) - 1) / B of its null copies at or above its observed statistic,
    read from its p-value p, estimates the probability that a single null
    copy beats the observation, and the binomial formula at the test's own
    B and alpha gives the implied rejection probability.  The average over
    resamples estimates the power of the test at this sample size.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    _check_budget(n_resamples, "n_resamples")
    _require_rng(rng)
    betas = np.empty(n_resamples)
    p_nulls = np.empty(n_resamples)
    for c in range(n_resamples):
        res = test_fn(X[rng.integers(0, n, n)])
        B = res.null_stats.size
        p_nulls[c] = np.clip((res.p_value * (B + 1) - 1.0) / B, 0.0, 1.0)
        betas[c] = conditional_power_binomial(p_nulls[c], B, res.alpha)
    return PowerEstimate(float(betas.mean()), betas, p_nulls, n_resamples)
