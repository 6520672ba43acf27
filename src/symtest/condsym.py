"""Tests of conditional symmetry (equivariance) of a response given covariates.

If the joint law of (X, Y) is unchanged when a group element hits both
coordinates, then the standardised response Z = tau(X)^{-1} Y is independent
of X given a maximal invariant M(X).  Two tests of that conditional
independence are provided:

* a kernel conditional independence (KCI) test whose null distribution is
  approximated by a spectral Monte Carlo simulation, and
* a conditional permutation (CP) test that shuffles responses within a
  Markov chain whose stationary law is the conditional permutation law,
  using kernel conditional density estimates for the swap odds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameters,
    DegenerateDensity,
    RankDeficientDesign,
    SampleTooSmall,
    UnsupportedKind,
    _check_alpha,
    _check_budget,
    _check_finite,
    _require_rng,
)
from .groups import default_invariant_kind, invariant_batch, tau_batch
from .invariance import _rank_test
from .kernels import GaussianRBF, _inner, center, gram, resolve_bandwidth


@dataclass
class PairedDataset:
    """Covariates X, responses Y, maximal invariant M, standardised response Z."""

    X: np.ndarray
    Y: np.ndarray
    M: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        n = self.X.shape[0]
        for name in ("Y", "M", "Z"):
            if getattr(self, name).shape[0] != n:
                raise BadParameters(f"{name} must have one row per observation")


@dataclass(frozen=True)
class KciConfig:
    """Kernels and regularisation for the conditional independence test."""

    kernel_x: object
    kernel_y: object
    kernel_m: object
    epsilon: float = 1e-3
    null_samples: int = 1000

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise BadParameters("the ridge epsilon must be positive and finite")
        _check_budget(self.null_samples, "null_samples")


def transform_responses(X, Y, spec, y_action="same", m_kind=None):
    """Standardise responses relative to the group position of the covariate.

    With ``y_action='same'`` the group acts identically on X and Y and
    Z_i = tau(X_i)^{-1} Y_i removes the orbit position; with ``'trivial'``
    the group leaves Y untouched and Z = Y.  M holds the maximal invariant of
    X (the default kind for the family unless ``m_kind`` overrides it).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.shape[0] != Y.shape[0]:
        raise BadParameters("X and Y must have one row per observation")
    _check_finite(X, Y)
    if m_kind is None:
        m_kind = default_invariant_kind(spec)
    M = invariant_batch(spec, m_kind, X)
    if y_action == "trivial":
        Z = Y.copy()
    elif y_action == "same":
        if Y.shape[1] != X.shape[1]:
            raise BadParameters(
                "a shared group action needs responses of the covariate dimension"
            )
        Z = tau_batch(spec, X).apply_inverse(Y)
    else:
        raise UnsupportedKind(f"unknown response action {y_action!r}")
    return PairedDataset(X, Y, M, Z)


# ---------------------------------------------------------------------------
# kernel conditional independence test


def _kci_matrices(data, config):
    """The conditioned matrices A = R K_XM R and B = R K_Z R."""
    _check_finite(data.X, data.Z, data.M)
    k_y = center(gram(resolve_bandwidth(config.kernel_y, data.Z), data.Z))
    g_m = gram(resolve_bandwidth(config.kernel_m, data.M), data.M)
    k_m = center(g_m)
    k_xm = center(gram(resolve_bandwidth(config.kernel_x, data.X), data.X) * g_m)
    n = k_y.shape[0]
    eps = config.epsilon
    r_m = eps * np.linalg.inv(k_m + eps * np.eye(n))
    a = r_m @ k_xm @ r_m
    b = r_m @ k_y @ r_m
    return a, b


def _kci_parts(data, config):
    """The KCI statistic and the product A o B, from one build of A and B.

    The statistic is (1/n) sum(A o B), the trace of AB, and the null law is
    read from the spectrum of A o B.
    """
    a, b = _kci_matrices(data, config)
    ab = a * b
    return float(np.sum(ab) / ab.shape[0]), ab


_EIG_TRUNC = 1e-10


def _trimmed_eigs(mat):
    vals = np.linalg.eigvalsh((mat + mat.T) / 2.0)
    vals = vals[vals > 0]
    if vals.size == 0:
        return vals
    return vals[vals >= _EIG_TRUNC * vals.max()]


def _kci_null_draws(ab, null_samples, rng):
    """``null_samples`` draws of (1/n) sum_k g_k z_k^2, g the spectrum of A o B."""
    g = _trimmed_eigs(ab)
    if g.size == 0:
        return np.zeros(null_samples)
    return (rng.standard_normal((null_samples, g.size)) ** 2) @ g / ab.shape[0]


def kci_statistic(data, config):
    """Normalised trace statistic of the kernel conditional independence test.

    Builds centred Gram matrices on (X, M) jointly and on Z, projects out the
    part explained by M through the ridge smoother R = eps (K_M + eps I)^{-1},
    and returns (1/n) Tr of the product of the two conditioned matrices.
    """
    return _kci_parts(data, config)[0]


def kci_null_samples(data, config, rng):
    """Spectral Monte Carlo draws approximating the null law of the statistic.

    With A and B the two conditioned matrices, write A = psi psi^T and
    B = phi phi^T and let W have rows w_t = psi_t (x) phi_t; then
    W W^T = A o B, the elementwise product, which is PSD by the Schur product
    theorem.  Under conditional independence the statistic is asymptotically
    (1/n) sum_k g_k z_k^2 with g the eigenvalues of A o B and z_k i.i.d.
    standard normal (Zhang, Peters, Janzing & Schoelkopf 2011, Prop. 5).
    Each of the ``config.null_samples`` draws takes n chi-square(1) variables.
    """
    _require_rng(rng)
    return _kci_null_draws(_kci_parts(data, config)[1], config.null_samples, rng)


def kci_test_data(data, config, alpha=0.05, rng=None):
    """Kernel conditional independence test on a prepared paired dataset.

    The statistic and the null draws share one build of the conditioned
    matrices.  ``rbf(median)`` takes the median of data.X, data.Z or data.M.
    """
    if data.X.shape[0] < 2:
        raise SampleTooSmall("need at least two observations")
    _require_rng(rng)
    _check_alpha(alpha)
    t_obs, ab = _kci_parts(data, config)
    return _rank_test(t_obs, _kci_null_draws(ab, config.null_samples, rng),
                      alpha, "kci")


def kci_test(X, Y, spec, config, alpha=0.05, rng=None, y_action="same",
             m_kind=None):
    """Test equivariance of Y given X under the group via KCI."""
    data = transform_responses(X, Y, spec, y_action, m_kind)
    return kci_test_data(data, config, alpha, rng)


# ---------------------------------------------------------------------------
# conditional permutation test


def _log_gram(kernel, A):
    if not isinstance(kernel, GaussianRBF):
        raise BadParameters("the density-ratio odds need strictly positive kernels")
    return _inner(resolve_bandwidth(kernel, A), A)


def _log_joint_sums(data, kernel_y, kernel_m):
    """LS[a, q] = log sum_r k_Y(Z_a, Z_r) k_M(M_q, M_r), stable in log space."""
    ly = _log_gram(kernel_y, data.Z)
    lm = _log_gram(kernel_m, data.M)
    ca = ly.max(axis=1, keepdims=True)
    cq = lm.max(axis=1, keepdims=True)
    prod = np.exp(ly - ca) @ np.exp(lm - cq).T
    if np.any(prod <= 0):
        raise DegenerateDensity("a kernel density sum underflowed to zero")
    return np.log(prod) + ca + cq.T


def _chain_sweeps(ls, pis, n_sweeps, rng):
    """Run pairwise swap sweeps of the conditional permutation chain.

    ``pis`` is a ``(c, n)`` stack of assignments, each advanced by its own
    chain.  Each sweep pairs the positions of every chain by an independent
    uniform order, drawn for all chains in one ``rng.permuted`` call, and
    draws all the sweep's acceptance coins in one ``rng.uniform`` call.  The
    pairs of one sweep are disjoint, so every swap decision of the sweep
    reads the assignment as it stood before the sweep, and the decisions of
    all chains are made at once.
    """
    n = ls.shape[0]
    pis = np.array(pis, copy=True)
    c, half = pis.shape[0], n // 2
    flat, ls_flat = pis.reshape(-1), ls.reshape(-1)
    positions = np.broadcast_to(np.arange(n), (c, n))
    rows = np.arange(0, c * n, n)[:, None]
    for _ in range(n_sweeps):
        order = rng.permuted(positions, axis=1)
        u = rng.uniform(size=(c, half))
        # the pairs' first and second positions, i and j, as one (2, c, half) stack
        ij = order[:, :2 * half].reshape(c, half, 2).transpose(2, 0, 1).copy()
        at = rows + ij
        p = flat.take(at)
        pn = p * n
        new, cur = ls_flat.take(pn[::-1] + ij), ls_flat.take(pn + ij)
        log_odds = new[0] + new[1] - cur[0] - cur[1]
        # accept with probability odds / (1 + odds)
        swap = np.log(u / (1.0 - u)) < log_odds
        flat[at] = np.where(swap, p[::-1], p)
    return pis


def multiple_correlation_statistic(X, Z, orders=None):
    """Multiple correlation of the leading response direction with X.

    The first principal coordinate of Z (Z itself when univariate) is
    regressed on the columns of X with an intercept; returns the square root
    of the explained variance fraction, ``|Q^T t|^2 / |t|^2`` for the centred
    target t and an orthonormal basis Q of the design ``[1, X]``.  A 1-D X
    or Z is one column.  With ``orders``, a ``(k, n)`` stack of permutations
    of range(n), it returns the ``(k,)`` statistics of the copies
    ``Z[orders[b]]``: a row permutation of Z keeps its centred
    cross-product, leading direction and ``|t|^2``, so each copy's target is
    ``t[orders[b]]`` and all copies share one factorisation of the design
    and one SVD of Z.  A copy scores the same at any position in the stack.
    """
    X, Z = (np.column_stack([A]).astype(float, copy=False) for A in (X, Z))
    _check_finite(X, Z)
    n, d = X.shape
    if Z.shape[0] != n:
        raise BadParameters("X and Z must have one row per observation")
    if n <= d + 1:
        raise SampleTooSmall("need more observations than regressors")
    design = np.column_stack([np.ones(n), X])
    if np.linalg.matrix_rank(design) < d + 1:
        raise RankDeficientDesign("covariate design matrix is rank deficient")
    q, _ = np.linalg.qr(design)
    zc = Z - Z.mean(axis=0)
    if Z.shape[1] == 1:
        t = zc[:, 0]
    else:
        _, _, vt = np.linalg.svd(zc, full_matrices=False)
        t = zc @ vt[0]
    sst = float(t @ t)
    rows = np.arange(n)[None] if orders is None else np.asarray(orders)
    if (rows.shape[1:] != (n,) or rows.dtype.kind not in "iu"
            or not (np.sort(rows, axis=1) == np.arange(n)).all()):
        raise BadParameters("orders must be a (k, n) stack of permutations of range(n)")
    # einsum, unlike a BLAS product, scores a row alike at any position in the stack
    proj = np.einsum("kn,np->kp", t[rows], q)
    explained = np.einsum("kp,kp->k", proj, proj)
    r2 = explained / sst if sst > 0.0 else np.zeros_like(explained)
    r = np.sqrt(np.clip(r2, 0.0, 1.0))
    return float(r[0]) if orders is None else r


def cp_test(X, Y, spec, kernel_y, kernel_m, alpha=0.05, burn_in=50, B=100,
            rng=None, y_action="same", m_kind=None):
    """Conditional permutation test of equivariance of Y given X.

    Responses are shuffled by a swap chain that preserves the estimated
    conditional law of Z given M, a kernel density estimate with
    ``kernel_y`` on Z and ``kernel_m`` on M: ``burn_in`` sweeps from the
    observed assignment, then B independent continuations of ``burn_in``
    further sweeps each supply one permuted copy.  The B chains are advanced
    as one stack, and the observed assignment is scored with the copies in
    one call, so that a copy equal to it scores exactly the observed
    statistic.  The observed statistic is ranked among the permuted ones.
    ``rbf(median)`` takes the median of Z or of M, which the chains keep.
    """
    _check_budget(B)
    _check_budget(burn_in, "burn_in")
    _require_rng(rng)
    _check_alpha(alpha)
    data = transform_responses(X, Y, spec, y_action, m_kind)
    n = data.X.shape[0]
    if n < 4:
        raise SampleTooSmall("the swap chain needs at least four observations")
    ls = _log_joint_sums(data, kernel_y, kernel_m)
    start = np.arange(n)[None]
    pi0 = _chain_sweeps(ls, start, burn_in, rng)
    pis = _chain_sweeps(ls, np.repeat(pi0, B, axis=0), burn_in, rng)
    stats = multiple_correlation_statistic(data.X, data.Z, np.vstack([start, pis]))
    return _rank_test(float(stats[0]), stats[1:], alpha, "cp")
