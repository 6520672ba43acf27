"""Tests for the MMD estimators and invariance statistics.

The core checks compare each vectorised statistic against a slow, index-by-
index reference implementation written directly from the defining sums.
"""

import numpy as np
import pytest
from group_reference import act_rows
from kernel_reference import eval_kernel
from mmd_reference import invariance_stat_full_u, invariance_stat_g_u, mmd_v

from symtest import (
    BadLandmarkCount,
    BadParameters,
    DiscreteDelta,
    GaussianRBF,
    SampleTooSmall,
    gram,
    invariance_stat_u,
    mc_invariance_test,
    mmd_u,
    nystrom_invariance_stat,
    sample_batch,
)
from symtest.groups import orbit_draw, so, sym, trivial


KERNEL = GaussianRBF(1.3)


def naive_mmd_u(X, Y, kernel):
    n1, n2 = len(X), len(Y)
    kxx = sum(
        eval_kernel(kernel, X[i], X[j])
        for i in range(n1)
        for j in range(n1)
        if i != j
    ) / (n1 * (n1 - 1))
    kyy = sum(
        eval_kernel(kernel, Y[i], Y[j])
        for i in range(n2)
        for j in range(n2)
        if i != j
    ) / (n2 * (n2 - 1))
    kxy = sum(
        eval_kernel(kernel, X[i], Y[j]) for i in range(n1) for j in range(n2)
    ) / (n1 * n2)
    return kxx + kyy - 2 * kxy


def naive_mmd_v(X, Y, kernel):
    n1, n2 = len(X), len(Y)
    kxx = sum(
        eval_kernel(kernel, X[i], X[j]) for i in range(n1) for j in range(n1)
    ) / n1**2
    kyy = sum(
        eval_kernel(kernel, Y[i], Y[j]) for i in range(n2) for j in range(n2)
    ) / n2**2
    kxy = sum(
        eval_kernel(kernel, X[i], Y[j]) for i in range(n1) for j in range(n2)
    ) / (n1 * n2)
    return kxx + kyy - 2 * kxy


def naive_invariance_u(X, kernel):
    n = len(X)
    total = sum(
        eval_kernel(kernel, X[i], X[j])
        for i in range(n)
        for j in range(n)
        if i != j
    )
    return total / (n * (n - 1))


def naive_invariance_g_u(X, g_batches, kernel):
    n = len(X)
    m = len(g_batches)
    gx = [act_rows(b, X) for b in g_batches]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            term = eval_kernel(kernel, X[i], X[j])
            for l in range(m):
                term -= eval_kernel(kernel, X[i], gx[l][j]) / m
            total += term
    return total / (n * (n - 1))


def naive_invariance_full_u(X, g_batches, h_batches, kernel):
    n = len(X)
    m = len(g_batches)
    gx = [act_rows(b, X) for b in g_batches]
    hx = [act_rows(b, X) for b in h_batches]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            term = eval_kernel(kernel, X[i], X[j])
            for l in range(m):
                for r in range(m):
                    term += eval_kernel(kernel, gx[l][i], hx[r][j]) / m**2
            for l in range(m):
                term -= 2.0 * eval_kernel(kernel, X[i], gx[l][j]) / m
            total += term
    return total / (n * (n - 1))


class TestTwoSample:
    def test_u_matches_naive(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(7, 3))
        Y = rng.normal(size=(5, 3)) + 0.5
        est = mmd_u(X, Y, KERNEL)
        assert est == pytest.approx(naive_mmd_u(X, Y, KERNEL), abs=1e-12)

    def test_v_matches_naive(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(8, 2)) - 0.3
        est = mmd_v(X, Y, KERNEL)
        assert est == pytest.approx(naive_mmd_v(X, Y, KERNEL), abs=1e-12)

    def test_v_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            X = rng.normal(size=(9, 2))
            Y = rng.normal(size=(4, 2))
            assert mmd_v(X, Y, KERNEL) >= -1e-14

    def test_v_zero_on_identical_samples(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(6, 3))
        assert mmd_v(X, X, KERNEL) == pytest.approx(0.0, abs=1e-12)

    def test_u_unbiased_near_zero_under_null(self):
        # average of the U-statistic over many same-distribution pairs
        rng = np.random.default_rng(14)
        vals = []
        for _ in range(300):
            X = rng.normal(size=(12, 2))
            Y = rng.normal(size=(12, 2))
            vals.append(mmd_u(X, Y, KERNEL))
        assert abs(np.mean(vals)) < 0.01

    def test_too_small_raises(self):
        X = np.zeros((1, 2))
        Y = np.zeros((3, 2))
        with pytest.raises(SampleTooSmall):
            mmd_u(X, Y, KERNEL)
        with pytest.raises(SampleTooSmall):
            mmd_v(np.zeros((0, 2)), Y, KERNEL)


class TestInvarianceStatistic:
    @pytest.mark.parametrize("spec_fn,d", [(so, 3), (sym, 4)])
    def test_u_matches_naive(self, spec_fn, d):
        # on the sample and on one of its orbit copies
        rng = np.random.default_rng(20)
        X = rng.normal(size=(6, d))
        for sample in (X, orbit_draw(spec_fn(d), X, rng)):
            got = invariance_stat_u(sample, KERNEL)
            assert got == pytest.approx(naive_invariance_u(sample, KERNEL),
                                        abs=1e-12)

    @pytest.mark.parametrize("spec_fn,d", [(so, 3), (sym, 4)])
    def test_g_reference_matches_naive(self, spec_fn, d):
        rng = np.random.default_rng(24)
        spec = spec_fn(d)
        X = rng.normal(size=(6, d))
        g = [sample_batch(spec, rng, 6) for _ in range(2)]
        got = invariance_stat_g_u(X, g, KERNEL)
        assert got == pytest.approx(naive_invariance_g_u(X, g, KERNEL), abs=1e-12)

    @pytest.mark.parametrize("spec_fn,d", [(so, 3), (sym, 4)])
    def test_full_reference_matches_naive(self, spec_fn, d):
        rng = np.random.default_rng(22)
        spec = spec_fn(d)
        X = rng.normal(size=(6, d))
        g = [sample_batch(spec, rng, 6) for _ in range(2)]
        h = [sample_batch(spec, rng, 6) for _ in range(2)]
        got = invariance_stat_full_u(X, g, h, KERNEL)
        assert got == pytest.approx(
            naive_invariance_full_u(X, g, h, KERNEL), abs=1e-12
        )

    def test_trivial_group_gives_zero(self):
        # identity copies: every null statistic equals the observed one, so
        # the MMD^2 estimate, statistic minus the copies' mean, is 0
        X = np.random.default_rng(23).normal(size=(8, 3))
        res = mc_invariance_test(X, trivial(), KERNEL, B=9,
                                 rng=np.random.default_rng(25))
        assert np.all(res.null_stats == res.statistic)
        assert res.p_value == 1.0

    def test_agrees_with_full_statistic_in_expectation(self):
        # the RBF kernel is rotation invariant, so for a fixed X the 1 + m
        # form over its draws of G, and the full form over G and H, have
        # mean T(X) - E T(orbit copy); each mean must lie within 4 Monte
        # Carlo standard errors of that difference, estimated from copies
        # drawn independently of G and H
        rng = np.random.default_rng(26)
        spec = so(3)
        X = np.random.default_rng(99).normal(size=(12, 3)) + [1.0, 0.0, 0.0]
        draws = 2000
        g_form, full, copies = [], [], []
        for _ in range(draws):
            g = [sample_batch(spec, rng, 12) for _ in range(2)]
            h = [sample_batch(spec, rng, 12) for _ in range(2)]
            g_form.append(invariance_stat_g_u(X, g, KERNEL))
            full.append(invariance_stat_full_u(X, g, h, KERNEL))
            copies.append(invariance_stat_u(orbit_draw(spec, X, rng), KERNEL))
        target = invariance_stat_u(X, KERNEL) - np.mean(copies)
        for form in (g_form, full):
            se = np.sqrt((np.var(form, ddof=1) + np.var(copies, ddof=1)) / draws)
            assert abs(np.mean(form) - target) <= 4 * se
        # the shift makes the common mean clearly positive
        assert target > 10 * np.std(g_form) / np.sqrt(draws)

    def test_non_finite_raises(self):
        X = np.random.default_rng(27).normal(size=(6, 3))
        for bad in (np.nan, np.inf):
            Xb = X.copy()
            Xb[2, 0] = bad
            with pytest.raises(BadParameters):
                invariance_stat_u(Xb, KERNEL)

    def test_too_small_raises(self):
        X = np.random.default_rng(28).normal(size=(1, 3))
        with pytest.raises(SampleTooSmall):
            invariance_stat_u(X, KERNEL)

    def test_stack_scores_each_sample_bit_for_bit(self):
        stack = np.random.default_rng(29).normal(size=(5, 9, 3))
        expect = [invariance_stat_u(s, KERNEL) for s in stack]
        got = invariance_stat_u(stack, KERNEL, stack=True)
        assert got.shape == (5,) and got.tolist() == expect
        for lo, hi in [(0, 4), (4, 5)]:
            got = invariance_stat_u(stack[lo:hi], KERNEL, stack=True)
            assert got.tolist() == expect[lo:hi]

    def test_non_finite_copy_in_a_stack_raises(self):
        stack = np.random.default_rng(37).normal(size=(3, 6, 3))
        for bad in (np.nan, np.inf):
            stack[2, 1, 0] = bad
            with pytest.raises(BadParameters):
                invariance_stat_u(stack, KERNEL, stack=True)
        with pytest.raises(SampleTooSmall):
            invariance_stat_u(stack[:, :1], KERNEL, stack=True)


class AllPoints:
    """Stands in for a Generator whose landmark draw takes every point once."""

    def integers(self, low, high, size):
        return np.arange(size)


class FixedLandmarks:
    """Stands in for a Generator whose landmark draw returns fixed indices."""

    def __init__(self, index):
        self.index = np.asarray(index)

    def integers(self, low, high, size):
        return self.index


def pinv_nystrom(X, kernel, index):
    """m^T pinv(K_tt) m over the landmarks X[index], as before the eigh form."""
    t = X[index]
    mean = gram(kernel, t, X).sum(axis=1) / X.shape[0]
    return float(mean @ np.linalg.pinv(gram(kernel, t), rcond=1e-10) @ mean)


NEAR_DUPLICATES = np.random.default_rng(47).normal(size=(30, 3))
NEAR_DUPLICATES[5] = NEAR_DUPLICATES[0] + 1e-7 * np.random.default_rng(48).normal(size=3)


class TestNystrom:
    @pytest.mark.parametrize("kernel,X,index", [
        (KERNEL, np.random.default_rng(38).normal(size=(30, 3)), np.arange(0, 30, 3)),
        # duplicate landmarks make K_tt singular: the cut must drop the
        # eigenvalues pinv drops
        (KERNEL, np.random.default_rng(39).normal(size=(30, 3)),
         [0, 4, 4, 7, 0, 11, 4, 20]),
        (GaussianRBF(0.5), np.random.default_rng(40).normal(size=(50, 4)),
         np.random.default_rng(41).integers(0, 50, 40)),
        # landmarks 1e-7 apart: an eigenvalue below the cut that would move
        # the statistic by 2e-3 if it were kept
        (KERNEL, NEAR_DUPLICATES, [0, 5, 9, 14, 21, 9]),
        (DiscreteDelta(), np.random.default_rng(42).integers(0, 3, (40, 2)) * 1.0,
         np.random.default_rng(43).integers(0, 40, 12)),
    ], ids=["distinct", "duplicates", "many-duplicates", "near-duplicates",
            "delta"])
    def test_matches_the_pinv_form(self, kernel, X, index):
        got = nystrom_invariance_stat(X, kernel, len(index), FixedLandmarks(index))
        assert got == pytest.approx(pinv_nystrom(X, kernel, index), rel=1e-10)

    def test_non_finite_raises(self):
        X = np.random.default_rng(44).normal(size=(10, 3))
        for bad in (np.nan, np.inf):
            X[4, 2] = bad
            with pytest.raises(BadParameters):
                nystrom_invariance_stat(X, KERNEL, 3, np.random.default_rng(45))

    def test_full_landmarks_match_v_form(self):
        # the projection then keeps the whole mean embedding, whose squared
        # norm is the mean of all n^2 Gram entries
        X = np.random.default_rng(30).normal(size=(12, 3))
        got = nystrom_invariance_stat(X, KERNEL, 12, rng=AllPoints())
        assert got == pytest.approx(gram(KERNEL, X).sum() / 12**2, abs=1e-8)

    def test_random_landmarks_track_v_form(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(40, 3))
        full = gram(KERNEL, X).sum() / 40**2
        approx = np.mean(
            [nystrom_invariance_stat(X, KERNEL, 20, rng=rng) for _ in range(30)]
        )
        assert approx == pytest.approx(full, abs=0.02)

    def test_landmarks_drawn_from_the_sample_in_rng_order(self):
        # the landmarks are X[rng.integers(0, n, j)], the statistic's only
        # draw; the oracle is |sum_a alpha_a k(t_a, .)|^2 for the least
        # squares weights alpha of the landmark mean values
        X = np.random.default_rng(35).normal(size=(9, 3))
        rng = np.random.default_rng(36)
        got = nystrom_invariance_stat(X, KERNEL, 4, rng)
        draws = np.random.default_rng(36)
        t = X[draws.integers(0, 9, 4)]
        k_tt = gram(KERNEL, t)
        alpha = np.linalg.lstsq(k_tt, gram(KERNEL, t, X).mean(axis=1), rcond=None)[0]
        assert got == pytest.approx(alpha @ k_tt @ alpha, rel=1e-10)
        assert rng.integers(1 << 30) == draws.integers(1 << 30)

    def test_wrapper_defaults_to_sqrt_n_landmarks(self):
        # mc_invariance_test takes ceil(sqrt(10)) = 4 landmarks by default
        X = np.random.default_rng(32).normal(size=(10, 3))

        def run(n_landmarks):
            return mc_invariance_test(
                X, so(3), KERNEL, B=9, statistic="mmd-nystrom",
                rng=np.random.default_rng(33), n_landmarks=n_landmarks,
            )

        default = run(None)
        assert default.statistic == run(4).statistic
        assert np.array_equal(default.null_stats, run(4).null_stats)
        assert default.statistic != run(3).statistic

    def test_bad_landmark_count(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(6, 3))
        with pytest.raises(BadLandmarkCount):
            nystrom_invariance_stat(X, KERNEL, 0, rng=rng)
        with pytest.raises(BadLandmarkCount):
            nystrom_invariance_stat(X, KERNEL, 7, rng=rng)


class TestInputChecks:
    @pytest.mark.parametrize("call", [
        lambda X: nystrom_invariance_stat(X, KERNEL, 5),
    ], ids=["nystrom_invariance_stat"])
    def test_missing_rng_raises(self, call):
        X = np.random.default_rng(34).normal(size=(20, 2))
        with pytest.raises(BadParameters, match="rng"):
            call(X)

    @pytest.mark.parametrize("estimator", [mmd_u, mmd_v], ids=["mmd_u", "mmd_v"])
    def test_non_finite_sample_raises(self, estimator):
        rng = np.random.default_rng(36)
        X, Y = rng.normal(size=(10, 3)), rng.normal(size=(12, 3))
        for bad in (np.nan, np.inf):
            Xb = X.copy()
            Xb[3, 1] = bad
            with pytest.raises(BadParameters):
                estimator(Xb, Y, KERNEL)
            with pytest.raises(BadParameters):
                estimator(Y, Xb, KERNEL)
