"""Tests for the Monte Carlo invariance tests and power estimation."""

import functools

import numpy as np
import pytest
from group_reference import quaternion_matrix
from kernel_reference import eval_kernel, so3_gram
from scipy.stats import ks_2samp

from symtest import (
    AllPointsIdentical,
    BadMonteCarloBudget,
    BadParameters,
    DimensionMismatch,
    GaussianRBF,
    KciConfig,
    PowerEstimate,
    UnsupportedFamily,
    chi_sample,
    conditional_power_binomial,
    cp_test,
    cw_statistic,
    invariance_stat_u,
    inversion_mc_test,
    kci_test,
    ks_distance,
    mc_invariance_test,
    parse_generator,
    power_estimate,
    pvalue_from_nulls,
    sample,
    sample_batch,
    transformation_two_sample_test,
    vmf_sample,
)
from symtest.groups import (
    TransformBatch,
    discrete_rotations,
    haar_quaternions,
    haar_rotations,
    inversion_kernel_batch,
    inversion_kernel_sample,
    orbit_bandwidth,
    orbit_draw,
    paired_so2,
    rotation_quaternions,
    so,
    sym,
    trivial,
)
from symtest import invariance, kernels, mmd
from symtest.kernels import RotationKernelSO3


KERNEL = GaussianRBF(1.0)


class TestPvalue:
    def test_counting_formula(self):
        nulls = np.array([0.1, 0.5, 0.9, 0.3])
        assert pvalue_from_nulls(0.4, nulls) == pytest.approx(3.0 / 5.0)
        assert pvalue_from_nulls(1.0, nulls) == pytest.approx(1.0 / 5.0)
        assert pvalue_from_nulls(0.0, nulls) == pytest.approx(1.0)

    def test_ties_count_against_rejection(self):
        nulls = np.array([0.5, 0.5, 0.2])
        assert pvalue_from_nulls(0.5, nulls) == pytest.approx(3.0 / 4.0)

    def test_monotone_in_observed_statistic(self):
        rng = np.random.default_rng(0)
        nulls = rng.normal(size=49)
        ps = [pvalue_from_nulls(t, nulls) for t in np.linspace(-3, 3, 21)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_nan_observed_statistic_raises(self):
        # a NaN compares false with every null, so it would read as exceeded
        # by none of them and reject
        X = np.random.default_rng(3).normal(size=(10, 2))
        with pytest.raises(BadParameters, match="NaN"):
            mc_invariance_test(X, so(2), statistic=lambda s: float("nan"), B=19,
                               rng=np.random.default_rng(4))

    def test_nan_null_statistic_raises(self):
        X = np.random.default_rng(5).normal(size=(10, 2))

        def nan_on_copies(sample):
            return 1.0 if np.array_equal(sample, X) else float("nan")

        with pytest.raises(BadParameters, match="NaN"):
            mc_invariance_test(X, so(2), statistic=nan_on_copies, B=19,
                               rng=np.random.default_rng(6))
        assert pvalue_from_nulls(np.inf, [0.0, np.inf]) == 2.0 / 3.0


class TestKsDistance:
    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=rng.integers(5, 40))
            b = rng.normal(size=rng.integers(5, 40)) + rng.normal() * 0.5
            assert ks_distance(a, b) == pytest.approx(
                ks_2samp(a, b).statistic, abs=1e-12
            )

    def test_identical_samples(self):
        a = np.array([3.0, 1.0, 2.0])
        assert ks_distance(a, a) == 0.0

    def test_disjoint_supports(self):
        assert ks_distance([0.0, 1.0], [5.0, 6.0]) == 1.0


class TestCwStatistic:
    def test_zero_under_identity_transform(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 3))
        g = TransformBatch(so(3), "rot", np.stack([np.eye(3), np.eye(3)]), 2)
        dirs = rng.normal(size=(4, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert cw_statistic(X, g, dirs) == 0.0

    def test_frozen_small_example(self):
        # S_2 swap of [[1, 0], [2, 0]]: projections on e1 are (1, 2) versus
        # (0, 0), a disjoint-support comparison, so the sup distance is 1
        X = np.array([[1.0, 0.0], [2.0, 0.0]])
        g = TransformBatch(sym(2), "perm", np.array([[1, 0]]), 1)
        dirs = np.array([[1.0, 0.0]])
        assert cw_statistic(X, g, dirs) == 1.0

    def test_maximum_over_directions(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 2)) + [3.0, 0.0]
        g = sample_batch(so(2), rng, 2)
        dirs = np.vstack([rng.normal(size=(5, 2))])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        singles = [
            cw_statistic(X, TransformBatch(so(2), "rot", m[None], 1), dirs[j : j + 1])
            for m in g.data for j in range(5)
        ]
        assert cw_statistic(X, g, dirs) == pytest.approx(max(singles), abs=1e-12)

    def test_bad_inputs(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 3))
        with pytest.raises(BadParameters):
            cw_statistic(X, sample_batch(so(3), rng, 0), np.eye(3))
        g = sample_batch(so(3), rng, 1)
        with pytest.raises(Exception):
            cw_statistic(X, g, np.eye(2))


class TestMcInvariance:
    def test_pvalue_on_lattice(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2))
        res = mc_invariance_test(X, so(2), KERNEL, B=9, rng=rng)
        assert res.p_value * 10 == pytest.approx(round(res.p_value * 10))
        assert res.null_stats.size == 9
        assert res.reject == (res.p_value <= res.alpha)

    @pytest.mark.parametrize("test", [
        functools.partial(mc_invariance_test, statistic="mmd-u"),
        functools.partial(mc_invariance_test, statistic="mmd-nystrom"),
        transformation_two_sample_test,
    ], ids=["mmd-u", "mmd-nystrom", "two-sample"])
    def test_median_kernel_takes_the_orbit_bandwidth(self, test):
        X = np.random.default_rng(9).normal(size=(20, 3)) + 0.5
        spec = sym(3)
        got, want = (test(X, spec, k, B=19, rng=np.random.default_rng(10))
                     for k in (GaussianRBF(None), GaussianRBF(orbit_bandwidth(spec, X))))
        assert got.p_value == want.p_value and got.statistic == want.statistic
        assert np.array_equal(got.null_stats, want.null_stats)

    @pytest.mark.parametrize("statistic", ["mmd-u", "mmd-nystrom"])
    def test_default_kernel_is_rbf_median(self, statistic):
        X = np.random.default_rng(13).normal(size=(20, 3))
        got, want = (mc_invariance_test(X, so(3), *kernel, B=19, statistic=statistic,
                                        rng=np.random.default_rng(14))
                     for kernel in ((), (GaussianRBF(None),)))
        assert got.p_value == want.p_value
        assert np.array_equal(got.null_stats, want.null_stats)

    def test_cw_and_callables_take_no_bandwidth(self, monkeypatch):
        def refuse(spec, X):
            raise AssertionError("a bandwidth was taken")

        monkeypatch.setattr(invariance, "orbit_bandwidth", refuse)
        X = np.random.default_rng(11).normal(size=(20, 2))
        for statistic in ("cw", lambda sample: float(sample[:, 0].mean())):
            mc_invariance_test(X, so(2), GaussianRBF(None), B=9, statistic=statistic,
                               rng=np.random.default_rng(12))

    def test_custom_statistic_callable(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 2)) + [5.0, 0.0]

        def first_coordinate_mean(sample):
            return abs(float(sample[:, 0].mean()))

        res = mc_invariance_test(
            X, so(2), statistic=first_coordinate_mean, B=99, rng=rng
        )
        assert res.p_value == pytest.approx(0.01)
        assert res.method == "first_coordinate_mean"

    def test_deterministic_given_seeded_rng(self):
        X = np.random.default_rng(8).normal(size=(15, 2))
        r1 = mc_invariance_test(
            X, so(2), KERNEL, B=19, rng=np.random.default_rng(1234)
        )
        r2 = mc_invariance_test(
            X, so(2), KERNEL, B=19, rng=np.random.default_rng(1234)
        )
        assert r1.statistic == r2.statistic
        assert r1.p_value == r2.p_value
        assert np.array_equal(r1.null_stats, r2.null_stats)

    def test_nystrom_variant_runs(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(25, 3))
        res = mc_invariance_test(
            X, so(3), KERNEL, B=19, statistic="mmd-nystrom", rng=rng
        )
        assert 0 < res.p_value <= 1

    def test_cw_variant_detects_mean_shift(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(100, 2)) + [3.0, 0.0]
        res = mc_invariance_test(X, so(2), B=99, statistic="cw", rng=rng)
        assert res.p_value <= 0.05

    def test_cw_on_dimensionless_trivial_group(self):
        # trivial() means "any dimension"; the cw statistic's transforms
        # take theirs from the sample, and identity copies give p = 1
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 2))
        res = mc_invariance_test(X, trivial(), B=9, statistic="cw", rng=rng)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_budget_and_alpha_validation(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(10, 2))
        with pytest.raises(BadMonteCarloBudget):
            mc_invariance_test(X, so(2), KERNEL, B=0, rng=rng)
        with pytest.raises(BadMonteCarloBudget):
            mc_invariance_test(X, so(2), KERNEL, B=True, rng=rng)
        with pytest.raises(BadParameters):
            mc_invariance_test(X, so(2), KERNEL, B=9, alpha=1.5, rng=rng)
        with pytest.raises(BadParameters):
            mc_invariance_test(X, so(2), KERNEL, B=9, statistic="nope", rng=rng)

    @pytest.mark.parametrize("spec", [trivial(), so(3)], ids=["trivial", "so3"])
    @pytest.mark.parametrize("statistic", [
        "mmd-u", "mmd-nystrom", "cw", lambda sample: float(sample.sum()),
    ], ids=["mmd-u", "mmd-nystrom", "cw", "callable"])
    def test_sample_that_is_not_two_dimensional_raises(self, statistic, spec):
        X = np.random.default_rng(13).normal(size=(10, 3))
        for bad in (X[:, 0], X[None]):
            with pytest.raises(DimensionMismatch):
                mc_invariance_test(bad, spec, KERNEL, B=9, statistic=statistic,
                                   rng=np.random.default_rng(0))

    @pytest.mark.parametrize("spec", [
        so(3), sym(3), paired_so2(), discrete_rotations(24.0, 3, axis=3),
    ], ids=str)
    @pytest.mark.parametrize("copies,draws", [
        (None, None), (1, 1), (3, 3), (1000, 1000), (None, 5),
    ], ids=["default", "1", "3", "1000", "draws-of-5"])
    def test_mmd_u_stacks_match_copies_drawn_one_at_a_time(self, spec, copies,
                                                            draws, monkeypatch):
        # the stacked null copies must be the statistics of B single
        # orbit_draw calls on the same seed, bit for bit, whatever the
        # group size of pair_sums and the number of copies a draw holds
        # (1000 puts all B copies in one; 5 draws 5, 5, 5 and 4)
        d = 4 if spec.family == "paired-so2" else 3
        X = np.random.default_rng(14).normal(size=(21, d))
        if copies is not None:
            monkeypatch.setattr(kernels, "_STACK_COPIES", copies)
        if draws is not None:
            monkeypatch.setattr(invariance, "_DRAW_ENTRIES", draws * X.size)
        res = mc_invariance_test(X, spec, KERNEL, B=19, rng=np.random.default_rng(15))
        ref_rng = np.random.default_rng(15)
        nulls = [invariance_stat_u(orbit_draw(spec, X, ref_rng), KERNEL)
                 for _ in range(19)]
        assert res.statistic == invariance_stat_u(X, KERNEL)
        assert res.null_stats.tolist() == nulls
        assert res.p_value == pvalue_from_nulls(res.statistic, nulls)

    @pytest.mark.parametrize("m", [2.5, True, 0])
    def test_transform_count_validation(self, m):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 2))
        with pytest.raises(BadMonteCarloBudget):
            mc_invariance_test(X, so(2), KERNEL, m=m, B=9, rng=rng)


_KCI_CFG = KciConfig(KERNEL, KERNEL, KERNEL)


class TestRngRequired:
    @pytest.mark.parametrize("call", [
        lambda X, Y: mc_invariance_test(X, so(2), KERNEL, B=9),
        lambda X, Y: kci_test(X, Y, so(2), _KCI_CFG),
        lambda X, Y: cp_test(X, Y, so(2), KERNEL, KERNEL, burn_in=2, B=9),
        lambda X, Y: inversion_mc_test(X, so(2), KERNEL, B=9),
        lambda X, Y: transformation_two_sample_test(X, so(2), KERNEL, B=9),
        lambda X, Y: power_estimate(X, lambda s: None, n_resamples=2),
        lambda X, Y: haar_rotations(3, 4, None),
        lambda X, Y: haar_quaternions(4, None),
        lambda X, Y: inversion_kernel_batch(so(3), np.ones((4, 3)), None),
        lambda X, Y: inversion_kernel_sample(so(3), np.ones(3), None),
        lambda X, Y: sample(parse_generator("gauss-iso(d=2)"), 5, None),
        lambda X, Y: vmf_sample(np.ones(3), 1.0, 5, None),
        lambda X, Y: chi_sample(3, None),
    ], ids=["mc_invariance_test", "kci_test", "cp_test", "inversion_mc_test",
            "transformation_two_sample_test", "power_estimate", "haar_rotations",
            "haar_quaternions", "inversion_kernel_batch", "inversion_kernel_sample",
            "sample", "vmf_sample", "chi_sample"])
    def test_missing_rng_raises(self, call):
        rng = np.random.default_rng(25)
        X, Y = rng.normal(size=(20, 2)), rng.normal(size=(20, 2))
        with pytest.raises(BadParameters, match="rng"):
            call(X, Y)


class TestNonFiniteInput:
    @staticmethod
    def sample_with_nan():
        X = np.random.default_rng(24).normal(size=(50, 4))
        X[3, 1] = np.nan
        return X

    def test_mc_invariance_test(self):
        with pytest.raises(BadParameters):
            mc_invariance_test(self.sample_with_nan(), so(4), KERNEL, B=19,
                               rng=np.random.default_rng(0))

    def test_inversion_mc_test(self):
        with pytest.raises(BadParameters):
            inversion_mc_test(self.sample_with_nan(), so(4), KERNEL, B=19,
                              rng=np.random.default_rng(0))

    def test_transformation_two_sample_test(self):
        with pytest.raises(BadParameters):
            transformation_two_sample_test(self.sample_with_nan(), so(4), KERNEL,
                                           B=19, rng=np.random.default_rng(0))

    def test_cw_statistic(self):
        # directly called, a NaN sample would otherwise score 0.4
        rng = np.random.default_rng(1)
        X = self.sample_with_nan()
        with pytest.raises(BadParameters):
            cw_statistic(X, sample_batch(so(4), rng, 2), np.eye(4)[:3])

    def test_ks_distance(self):
        # directly called, a NaN sample would otherwise score 0.5
        a = np.random.default_rng(2).normal(size=10)
        for bad in (np.nan, np.inf):
            b = a.copy()
            b[4] = bad
            with pytest.raises(BadParameters):
                ks_distance(a, b)
            with pytest.raises(BadParameters):
                ks_distance(b, a)


class TestAlphaValidation:
    @pytest.mark.parametrize("call", [
        lambda X, Y, a: mc_invariance_test(X, so(2), KERNEL, B=9, alpha=a,
                                           rng=np.random.default_rng(0)),
        lambda X, Y, a: mc_invariance_test(X, so(2), B=9, alpha=a, statistic="cw",
                                           rng=np.random.default_rng(0)),
        lambda X, Y, a: transformation_two_sample_test(
            X, so(2), KERNEL, B=9, alpha=a, rng=np.random.default_rng(0)),
        lambda X, Y, a: inversion_mc_test(X, so(2), KERNEL, B=9, alpha=a,
                                          rng=np.random.default_rng(0)),
        lambda X, Y, a: kci_test(X, Y, so(2), _KCI_CFG, alpha=a,
                                 rng=np.random.default_rng(0)),
        lambda X, Y, a: cp_test(X, Y, so(2), KERNEL, KERNEL, alpha=a, burn_in=2,
                                B=9, rng=np.random.default_rng(0)),
        lambda X, Y, a: conditional_power_binomial(0.5, 9, a),
    ], ids=["mc_invariance_test", "cw_test", "transformation_two_sample_test",
            "inversion_mc_test", "kci_test", "cp_test", "conditional_power_binomial"])
    @pytest.mark.parametrize("alpha", [0, 1, 2, -1, np.nan, True],
                             ids=["0", "1", "2", "-1", "nan", "True"])
    def test_alpha_outside_the_unit_interval_raises(self, call, alpha):
        rng = np.random.default_rng(29)
        X, Y = rng.normal(size=(20, 2)), rng.normal(size=(20, 2))
        with pytest.raises(BadParameters, match="alpha"):
            call(X, Y, alpha)


def _naive_paired_stat(X, Y, kernel, signs):
    # the paired U-statistic of the pairs after swapping those with sign -1
    A = np.where(signs[:, None] > 0, X, Y)
    C = np.where(signs[:, None] > 0, Y, X)
    n = len(X)
    k = functools.partial(eval_kernel, kernel)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += (k(A[i], A[j]) + k(C[i], C[j])
                          - k(A[i], C[j]) - k(C[i], A[j]))
    return total / (n * (n - 1))


class TestTwoSample:
    def test_null_pvalue_not_extreme(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2))
        res = transformation_two_sample_test(X, so(2), KERNEL, B=99, rng=rng)
        assert res.p_value > 0.05

    def test_detects_shift(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 2)) + [2.0, 0.0]
        res = transformation_two_sample_test(X, so(2), KERNEL, B=99, rng=rng)
        assert res.p_value == pytest.approx(0.01)

    def test_zero_budget_raises(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(10, 2))
        with pytest.raises(BadMonteCarloBudget):
            transformation_two_sample_test(X, so(2), KERNEL, B=0, rng=rng)

    @pytest.mark.parametrize("B", [2.5, True, -1])
    def test_budget_validation(self, B):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(20, 2))
        with pytest.raises(BadMonteCarloBudget):
            transformation_two_sample_test(X, so(2), KERNEL, B=B, rng=rng)

    def test_transformation_variant(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(60, 2)) + [4.0, 0.0]
        res = transformation_two_sample_test(X, so(2), KERNEL, B=99, rng=rng)
        assert res.method == "transformation-two-sample-mmd"
        assert res.p_value <= 0.05

    @pytest.mark.parametrize("spec", [so(3), sym(3)], ids=["so3", "sym3"])
    def test_swap_statistics_match_naive_double_loop(self, spec):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(7, 3)) + [0.5, 0.0, 0.0]
        Y = orbit_draw(spec, X, rng)
        signs = np.vstack([np.ones(7), 1.0 - 2.0 * rng.integers(0, 2, (5, 7))])
        got = mmd._paired_swap_stats(X, Y, KERNEL, signs)
        for s, value in zip(signs, got):
            assert value == pytest.approx(_naive_paired_stat(X, Y, KERNEL, s),
                                          rel=1e-12, abs=1e-15)

    def test_observed_and_null_statistics_are_sign_flips(self):
        # the observed statistic has every sign +1, and the null copies
        # flip the pairs of Y = orbit_draw(X) by the signs drawn after Y
        X = np.random.default_rng(17).normal(size=(12, 3))
        res = transformation_two_sample_test(X, so(3), KERNEL, B=9,
                                             rng=np.random.default_rng(18))
        rng = np.random.default_rng(18)
        Y = orbit_draw(so(3), X, rng)
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=(9, 12))
        assert res.statistic == pytest.approx(
            _naive_paired_stat(X, Y, KERNEL, np.ones(12)), rel=1e-12, abs=1e-15)
        for s, null in zip(signs, res.null_stats):
            assert null == pytest.approx(_naive_paired_stat(X, Y, KERNEL, s),
                                         rel=1e-12, abs=1e-15)


class TestInversion:
    def test_runs_for_rotations(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(30, 3))
        res = inversion_mc_test(X, so(3), RotationKernelSO3(), B=19, rng=rng)
        assert 0 < res.p_value <= 1
        assert res.method == "inversion-mmd"

    def test_runs_for_permutations(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 5))
        res = inversion_mc_test(X, sym(5), GaussianRBF(2.0), B=19, rng=rng)
        assert 0 < res.p_value <= 1

    @pytest.mark.parametrize("spec,sq", [
        (so(2), 4.0), (so(3), 6.0), (so(4), 8.0), (sym(3), 4.0), (sym(10), 165.0),
    ], ids=str)
    def test_median_bandwidth_is_the_haar_constant(self, spec, sq):
        # rbf(median) on the inverting elements is sqrt(E|g - h|^2) for
        # independent Haar g and h as sample_batch stores them: 2d on SO(d),
        # d (d^2 - 1) / 6 on the index arrays of S_d; no data is read
        rng = np.random.default_rng(21)
        g, h = (sample_batch(spec, rng, 100_000).data.reshape(100_000, -1) for _ in range(2))
        dist = np.sum((g - h).astype(float) ** 2, axis=1)
        assert abs(dist.mean() - sq) <= 4.0 * dist.std(ddof=1) / np.sqrt(dist.size)
        X = rng.normal(size=(20, spec.dim))
        got, want = (inversion_mc_test(X, spec, k, B=19, rng=np.random.default_rng(22))
                     for k in (GaussianRBF(None), GaussianRBF(np.sqrt(sq))))
        assert got.p_value == want.p_value and got.statistic == want.statistic
        assert np.array_equal(got.null_stats, want.null_stats)

    def test_median_bandwidth_on_sym1_is_all_points_identical(self):
        # S_1's one element inverts every point, so the inverting elements
        # coincide and their Haar constant sqrt(d (d^2 - 1) / 6) is 0
        X = np.random.default_rng(23).normal(size=(10, 1))
        with pytest.raises(AllPointsIdentical):
            inversion_mc_test(X, sym(1), GaussianRBF(None), B=9,
                              rng=np.random.default_rng(24))
        res = inversion_mc_test(X, sym(1), GaussianRBF(1.0), B=9,
                                rng=np.random.default_rng(24))
        assert res.p_value == 1.0

    def test_unsupported_family(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(10, 4))
        with pytest.raises(UnsupportedFamily):
            inversion_mc_test(X, paired_so2(), GaussianRBF(1.0), B=9, rng=rng)

    def test_rotation_kernel_needs_so3(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(10, 4))
        with pytest.raises(UnsupportedFamily):
            inversion_mc_test(X, so(4), RotationKernelSO3(), B=9, rng=rng)
        with pytest.raises(UnsupportedFamily):
            inversion_mc_test(X[:, :3], sym(3), RotationKernelSO3(), B=9, rng=rng)

    def test_budget_validation(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(10, 3))
        with pytest.raises(BadMonteCarloBudget):
            inversion_mc_test(X, so(3), RotationKernelSO3(), B=0, rng=rng)

    def test_observed_statistic_is_mmd_u(self):
        # the statistic is the U-form MMD^2 to Haar measure up to a constant:
        # invariance_stat_u of tau in unit quaternions; each null copy is
        # the same on a fresh Haar sample, and no reference sample is drawn
        X = np.random.default_rng(25).normal(size=(40, 3))
        kernel = RotationKernelSO3()
        rng = np.random.default_rng(26)
        tau = rotation_quaternions(inversion_kernel_batch(so(3), X, rng).data)
        res = inversion_mc_test(X, so(3), kernel, B=9, rng=np.random.default_rng(26))
        assert res.statistic == pytest.approx(
            invariance_stat_u(tau, kernel), rel=1e-12, abs=1e-12
        )
        for null in res.null_stats:
            assert null == pytest.approx(
                invariance_stat_u(haar_quaternions(40, rng), kernel),
                rel=1e-12, abs=1e-12,
            )

    def test_pvalues_match_the_reference_gram(self, monkeypatch):
        # the quaternion SO(3) pair sums give the p-values of the upper
        # triangle of the matrix einsum-plus-mask reference on the same draws
        def reference_sums(kernel, stack):
            n = stack.shape[1]
            return np.array([so3_gram(quaternion_matrix(X))[np.triu_indices(n, 1)].sum()
                             for X in stack])

        kernel = RotationKernelSO3()
        for seed in range(8):
            X = np.random.default_rng(seed).normal(size=(40, 3)) + [0.5, 0.0, 0.0]
            new = inversion_mc_test(X, so(3), kernel, B=29,
                                    rng=np.random.default_rng(100 + seed))
            with monkeypatch.context() as m:
                m.setattr(mmd, "pair_sums", reference_sums)
                ref = inversion_mc_test(X, so(3), kernel, B=29,
                                        rng=np.random.default_rng(100 + seed))
            assert new.p_value == ref.p_value
            assert new.statistic == pytest.approx(ref.statistic, rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(new.null_stats, ref.null_stats,
                                       rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("spec,kernel", [
        (so(3), RotationKernelSO3()),
        (so(4), GaussianRBF(2.0)),
        (sym(5), GaussianRBF(2.0)),
    ], ids=["so3-so3", "so4-rbf", "sym5-rbf"])
    @pytest.mark.parametrize("block,draws", [
        (None, None), (1, 1), (1000, 1000), (None, 5),
    ], ids=["default", "1", "1000", "draws-of-5"])
    def test_one_null_draw_matches_a_draw_per_sample(self, spec, kernel, block,
                                                     draws, monkeypatch):
        # the null samples come from one sampler call per draw of at most
        # ``draws`` samples, all B of them by default and at 1000, and 5, 5,
        # 5 and 4 at 5, scored in groups of at most ``block``; they must be
        # the samples of B calls of size n on the same seed, scored bit for
        # bit as one at a time, and leave the generator where those calls
        # leave it
        n, B = 30, 19
        X = np.random.default_rng(29).normal(size=(n, spec.dim))
        ref_rng = np.random.default_rng(30)
        tau = inversion_kernel_batch(spec, X, ref_rng).data
        if isinstance(kernel, RotationKernelSO3):
            tau = rotation_quaternions(tau)

            def draw():
                return haar_quaternions(n, ref_rng)

        elif spec.family == "so":
            def draw():
                return haar_rotations(spec.dim, n, ref_rng)

        else:
            base = np.tile(np.arange(spec.dim), (n, 1))

            def draw():
                return ref_rng.permuted(base, axis=1).astype(float)

        if block is not None:
            monkeypatch.setattr(kernels, "_STACK_COPIES", block)
        if draws is not None:  # a null sample has as many values as tau
            monkeypatch.setattr(invariance, "_DRAW_ENTRIES", draws * tau.size)
        rng = np.random.default_rng(30)
        res = inversion_mc_test(X, spec, kernel, B=B, rng=rng)

        t_obs = invariance_stat_u(tau.astype(float), kernel)
        nulls = np.array([invariance_stat_u(draw(), kernel) for _ in range(B)])
        assert res.statistic == t_obs
        assert res.null_stats.tolist() == nulls.tolist()
        assert res.p_value == pvalue_from_nulls(t_obs, nulls)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("spec,kernel", [
        (so(3), RotationKernelSO3()),
        (so(4), GaussianRBF(2.0)),
        (sym(5), GaussianRBF(2.0)),
    ], ids=["so3-so3", "so4-rbf", "sym5-rbf"])
    def test_null_copies_do_not_depend_on_the_data(self, spec, kernel):
        rng = np.random.default_rng(27)
        X1 = rng.normal(size=(30, spec.dim))
        X2 = rng.normal(size=(30, spec.dim)) * 3.0 + 1.0
        a = inversion_mc_test(X1, spec, kernel, B=19, rng=np.random.default_rng(28))
        b = inversion_mc_test(X2, spec, kernel, B=19, rng=np.random.default_rng(28))
        assert a.statistic != b.statistic
        np.testing.assert_array_equal(a.null_stats, b.null_stats)


class TestPower:
    def test_binomial_formula_frozen_values(self):
        # p0 = 0: every null copy loses, reject with certainty (if the
        # rejection region is nonempty)
        assert conditional_power_binomial(0.0, 99, 0.05) == 1.0
        # alpha too small for the budget: empty rejection region
        assert conditional_power_binomial(0.0, 9, 0.05) == 0.0
        # p0 = 1: all null copies tie or beat the observation
        assert conditional_power_binomial(1.0, 99, 0.05) == 0.0
        # B = 19, alpha = 0.05: reject iff zero of 19 exceed, prob (1-p0)^19
        assert conditional_power_binomial(0.3, 19, 0.05) == pytest.approx(
            0.7**19, rel=1e-12
        )

    def test_binomial_formula_validation(self):
        with pytest.raises(BadParameters):
            conditional_power_binomial(-0.1, 99, 0.05)
        with pytest.raises(BadMonteCarloBudget):
            conditional_power_binomial(0.5, 0, 0.05)

    @staticmethod
    def stub_test(exceeding, B=99, alpha=0.05):
        # a test whose result on any sample has B null copies, ``exceeding``
        # of which lie above its statistic
        def test_fn(sample):
            nulls = np.r_[np.ones(exceeding), np.zeros(B - exceeding)]
            p = pvalue_from_nulls(0.5, nulls)
            return invariance.TestResult(0.5, p, nulls, alpha, p <= alpha, "stub")

        return test_fn

    def test_power_estimate_with_stub_test(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 2))
        # no null copy beats the statistic: p0 = 0 and hence certain rejection
        est = power_estimate(X, self.stub_test(0), n_resamples=10, rng=rng)
        assert isinstance(est, PowerEstimate)
        assert est.beta_hat == 1.0
        # every null copy beats it: p0 = 1 and zero power
        est = power_estimate(X, self.stub_test(99), n_resamples=10, rng=rng)
        assert est.beta_hat == 0.0

    def test_power_estimate_p0_recovery(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(30, 2))
        est = power_estimate(X, self.stub_test(30), n_resamples=5, rng=rng)
        assert np.allclose(est.p_nulls, 30.0 / 99.0)

    def test_power_estimate_reads_budget_and_level_from_the_result(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(30, 2))

        def test_fn(sample):
            # 19 null copies, the first coordinates of the resample, against
            # a statistic of 0, so p0 moves with the resample
            nulls = sample[:19, 0]
            p = pvalue_from_nulls(0.0, nulls)
            return invariance.TestResult(0.0, p, nulls, 0.1, p <= 0.1, "stub")

        est = power_estimate(X, test_fn, n_resamples=6, rng=rng)
        assert len(set(est.p_nulls)) > 1
        np.testing.assert_allclose(est.p_nulls * 19, np.round(est.p_nulls * 19))
        assert list(est.betas) == [conditional_power_binomial(p0, 19, 0.1)
                                   for p0 in est.p_nulls]

    def test_power_estimate_validation(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(10, 2))
        for bad in (0, 2.5, True):
            with pytest.raises(BadMonteCarloBudget):
                power_estimate(X, self.stub_test(0), n_resamples=bad, rng=rng)
