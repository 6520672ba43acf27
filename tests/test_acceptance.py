"""End-to-end statistical acceptance suite.

Each test exercises one headline guarantee of the package at a reduced but
meaningful scale: exact finite-sample size, p-value uniformity, calibrated
size and nontrivial power for the main test families, agreement of the fast
statistics with naive enumeration oracles, and the identities behind the
orbit machinery.  Every test prints a one-line summary of the measured
quantity so a suite run doubles as a small report.
"""

import functools

import numpy as np
import pytest
from condsym_reference import kcde_swap_odds
from group_reference import act_each, act_rows
from kernel_reference import eval_kernel
from mmd_reference import mmd_v

from symtest import (
    DiscreteDelta,
    ExperimentConfig,
    GaussianRBF,
    KciConfig,
    PairedDataset,
    cw_statistic,
    gram,
    invariance_stat_u,
    kci_statistic,
    kci_test_data,
    mc_invariance_test,
    mmd_u,
    nystrom_invariance_stat,
    power_estimate,
    run_simulation,
    sample_batch,
    tune_bandwidths,
)
from symtest.groups import gamma_batch, orbit_draw, so, sym, tau_batch


def simulate(**fields):
    return run_simulation(ExperimentConfig.from_dict(fields))


@functools.lru_cache(maxsize=None)
def rotation_power_simulation():
    """Rejection rate of the invariance MMD test on a mean-shifted model."""
    return simulate(
        method="mmd", group="so(4)", generator="gauss-mean(d=4,mu=0.4e1)",
        n=200, reps=200, m=2, B=99, kernel="rbf(median)", seed=104,
    )


class TestExactSize:
    def test_tiny_budget_two_element_group(self):
        # B = 4 at alpha = 0.2: the rejection region holds exactly one of
        # the five exchangeable ranks, so the size is exactly 0.2
        rej = 0
        reps = 2000
        for rep in range(reps):
            rng = np.random.default_rng([101, rep])
            X = rng.standard_normal((20, 2))
            res = mc_invariance_test(
                X, sym(2), GaussianRBF(1.0), m=1, B=4, alpha=0.2, rng=rng
            )
            rej += res.reject
        rate = rej / reps
        print(f"[size] exchangeable pairs: rate={rate:.4f} target=0.2000")
        assert abs(rate - 0.2) <= 0.027


class TestUniformity:
    def test_pvalues_uniform_under_invariance(self):
        rep = simulate(
            method="mmd", group="so(2)", generator="gauss-iso(d=2)",
            n=100, reps=500, m=2, B=99, kernel="rbf(median)", seed=102,
        )
        print(f"[uniformity] ks={rep.ks_stat:.4f} p={rep.ks_p:.4f}")
        assert rep.ks_p > 0.01


class TestRotationRates:
    def test_size_under_isotropy(self):
        rep = simulate(
            method="mmd", group="so(4)", generator="gauss-iso(d=4)",
            n=200, reps=300, m=2, B=99, kernel="rbf(median)", seed=103,
        )
        print(f"[so(4) size] rate={rep.rejection_rate:.4f}")
        assert 0.02 <= rep.rejection_rate <= 0.09

    def test_power_against_mean_shift(self):
        rep = rotation_power_simulation()
        print(f"[so(4) power] rate={rep.rejection_rate:.4f}")
        assert rep.rejection_rate >= 0.90


class TestExchangeabilityRates:
    def test_size_positive_and_negative_correlation(self):
        rates = {}
        for tag in ("exch-plus", "exch-minus"):
            rep = simulate(
                method="mmd", group="sym(10)", generator=f"{tag}(d=10)",
                n=200, reps=200, m=2, B=99, kernel="rbf(median)", seed=105,
            )
            rates[tag] = rep.rejection_rate
        print(f"[sym(10) size] plus={rates['exch-plus']:.4f} "
              f"minus={rates['exch-minus']:.4f}")
        assert 0.02 <= rates["exch-plus"] <= 0.09
        assert 0.02 <= rates["exch-minus"] <= 0.09

    def test_power_against_random_covariance(self):
        rep = simulate(
            method="mmd", group="sym(10)", generator="wishart(d=10)",
            n=200, reps=200, m=2, B=99, kernel="rbf(median)", seed=106,
        )
        print(f"[sym(10) power] rate={rep.rejection_rate:.4f}")
        assert rep.rejection_rate >= 0.95


class TestPowerEstimator:
    def test_single_dataset_estimate_tracks_simulation(self):
        simulated = rotation_power_simulation().rejection_rate
        rng = np.random.default_rng(107)
        from symtest.synthdata import parse_generator, sample
        from symtest.kernels import resolve_bandwidth

        gen = parse_generator("gauss-mean(d=4,mu=0.4e1)")
        X = sample(gen, 200, rng)
        kernel = resolve_bandwidth(GaussianRBF(None), sample(gen, 200, rng))
        est = power_estimate(
            X, lambda s: mc_invariance_test(s, so(4), kernel, B=99, rng=rng),
            n_resamples=50, rng=rng,
        )
        print(f"[power estimator] beta_hat={est.beta_hat:.4f} "
              f"simulated={simulated:.4f}")
        assert abs(est.beta_hat - simulated) <= 0.15


class TestOracleEquivalence:
    """The vectorised statistics against naive enumeration on tiny inputs."""

    KERNEL = GaussianRBF(0.9)

    def test_two_sample_estimates(self):
        rng = np.random.default_rng(108)
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=(4, 2))
        k = self.KERNEL

        def pair_sum(A, B, skip_diag):
            total = 0.0
            for i in range(len(A)):
                for j in range(len(B)):
                    if skip_diag and i == j:
                        continue
                    total += eval_kernel(k, A[i], B[j])
            return total

        u = pair_sum(X, X, True) / 20 + pair_sum(Y, Y, True) / 12 \
            - 2 * pair_sum(X, Y, False) / 20
        v = pair_sum(X, X, False) / 25 + pair_sum(Y, Y, False) / 16 \
            - 2 * pair_sum(X, Y, False) / 20
        assert mmd_u(X, Y, k) == pytest.approx(u, rel=1e-12, abs=1e-15)
        assert mmd_v(X, Y, k) == pytest.approx(v, rel=1e-12, abs=1e-15)
        print("[oracles] two-sample u/v match naive enumeration")

    def test_invariance_statistic(self):
        rng = np.random.default_rng(109)
        X = rng.normal(size=(5, 3))
        k = self.KERNEL
        for sample in (X, orbit_draw(so(3), X, rng)):
            total = 0.0
            for i in range(5):
                for j in range(5):
                    if i != j:
                        total += eval_kernel(k, sample[i], sample[j])
            value = invariance_stat_u(sample, k)
            assert value == pytest.approx(total / 20, rel=1e-12, abs=1e-15)
        print("[oracles] invariance statistic matches naive enumeration")

    def test_projected_ecdf_statistic(self):
        rng = np.random.default_rng(110)
        X = rng.normal(size=(5, 3))
        transforms = sample_batch(so(3), rng, 2)
        dirs = rng.normal(size=(3, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

        def naive_ks(a, b):
            best = 0.0
            for t in np.concatenate([a, b]):
                best = max(best, abs(np.mean(a <= t) - np.mean(b <= t)))
            return best

        best = 0.0
        for gx in act_each(transforms, X):
            for t in dirs:
                best = max(best, naive_ks(X @ t, gx @ t))
        got = cw_statistic(X, transforms, dirs)
        assert got == pytest.approx(best, rel=1e-12, abs=1e-15)
        print("[oracles] projected-ECDF statistic matches naive enumeration")

    def _tiny_paired(self):
        rng = np.random.default_rng(111)
        from symtest import transform_responses

        X = rng.normal(size=(5, 2))
        Y = X + 0.5 * rng.normal(size=(5, 2))
        return transform_responses(X, Y, so(2))

    def test_conditional_independence_statistic(self):
        data = self._tiny_paired()
        k = self.KERNEL
        cfg = KciConfig(k, k, k)
        n = 5
        h = np.eye(n) - np.ones((n, n)) / n

        def g(a, b=None):
            b = a if b is None else b
            return np.array(
                [[eval_kernel(k, x, y) for y in b] for x in a]
            )

        ky = h @ g(data.Z) @ h
        km = h @ g(data.M) @ h
        kxm = h @ (g(data.X) * g(data.M)) @ h
        r = cfg.epsilon * np.linalg.inv(km + cfg.epsilon * np.eye(n))
        expected = np.trace((r @ kxm @ r) @ (r @ ky @ r)) / n
        assert kci_statistic(data, cfg) == pytest.approx(
            expected, rel=1e-12, abs=1e-15
        )
        print("[oracles] conditional-independence statistic matches")

    def test_swap_odds(self):
        data = self._tiny_paired()
        k = self.KERNEL
        cfg = KciConfig(k, k, k)

        def joint(a, q):
            return sum(
                eval_kernel(k, data.Z[a], data.Z[r])
                * eval_kernel(k, data.M[q], data.M[r])
                for r in range(5)
            )

        i, j = 0, 3
        expected = joint(j, i) * joint(i, j) / (joint(i, i) * joint(j, j))
        assert kcde_swap_odds(data, cfg, i, j) == pytest.approx(
            expected, rel=1e-12
        )
        print("[oracles] swap odds match naive density ratio")


class TestLandmarkConsistency:
    def test_full_landmark_mode_equals_v_form(self):
        # with every sample point a landmark the Nystrom mean embedding is
        # the mean embedding itself, whose squared norm is the mean Gram entry
        class AllPoints:
            def integers(self, low, high, size):
                return np.arange(size)

        X = np.random.default_rng(112).normal(size=(50, 3))
        k = GaussianRBF(1.5)
        low = nystrom_invariance_stat(X, k, 50, rng=AllPoints())
        full = float(gram(k, X).sum()) / 50**2
        print(f"[landmarks] |low-rank - V-form| = {abs(low - full):.2e}")
        assert low == pytest.approx(full, abs=1e-8)


class TestInversionIdentities:
    @pytest.mark.parametrize(
        "spec", [so(2), so(3), so(4), sym(10)],
        ids=["so2", "so3", "so4", "sym10"],
    )
    def test_selector_and_inverter(self, spec):
        rng = np.random.default_rng(113)
        n = 10000
        X = rng.standard_normal((n, spec.dim))
        gs = sample_batch(spec, rng, n)
        gamma = gamma_batch(spec, X)
        recon = act_rows(tau_batch(spec, X), gamma)
        worst_recon = float(np.max(np.abs(recon - X)))
        worst_inv = float(np.max(np.abs(gamma_batch(spec, act_rows(gs, X)) - gamma)))
        print(f"[inversion {spec.family}({spec.dim})] "
              f"recon={worst_recon:.2e} invariance={worst_inv:.2e}")
        assert worst_recon <= 1e-9
        assert worst_inv <= 1e-9


class TestInversionSize:
    def test_size_under_an_invariant_law(self):
        # the null copies are exchangeable with the observed statistic, so
        # the size is exactly floor(alpha (B + 1)) / (B + 1) = 1 / 20
        from scipy.stats import binom

        reps, B = 300, 19
        rep = simulate(
            method="inversion-mmd", group="so(3)", generator="gauss-iso(d=3)",
            n=50, reps=reps, B=B, kernel="so3", seed=120,
        )
        target = np.floor(0.05 * (B + 1)) / (B + 1)
        lo, hi = binom.ppf([0.0005, 0.9995], reps, target) / reps
        print(f"[inversion size] rate={rep.rejection_rate:.4f} target={target:.4f} "
              f"interval=[{lo:.4f}, {hi:.4f}]")
        assert lo <= rep.rejection_rate <= hi


class TestTwoSampleSize:
    def test_size_under_an_invariant_law(self):
        # flipping each pair (X_i, g_i X_i) by a fair sign gives null copies
        # exchangeable with the observed pairs, so the size is exactly
        # floor(alpha (B + 1)) / (B + 1) = 1 / 20
        from scipy.stats import binom

        reps, B = 300, 19
        rep = simulate(
            method="2smmd", group="so(4)", generator="gauss-iso(d=4)",
            n=50, reps=reps, B=B, kernel="rbf(median)", seed=121,
        )
        target = np.floor(0.05 * (B + 1)) / (B + 1)
        lo, hi = binom.ppf([0.0005, 0.9995], reps, target) / reps
        print(f"[2smmd size] rate={rep.rejection_rate:.4f} target={target:.4f} "
              f"interval=[{lo:.4f}, {hi:.4f}]")
        assert lo <= rep.rejection_rate <= hi


class TestNystromSize:
    def test_size_under_an_invariant_law(self):
        # the landmarks are drawn afresh for X and for each orbit copy, so the
        # copies' statistics stay exchangeable with the observed one and the
        # size is exactly floor(alpha (B + 1)) / (B + 1) = 1 / 20
        from scipy.stats import binom

        reps, B = 300, 19
        rep = simulate(
            method="nmmd", group="so(4)", generator="gauss-iso(d=4)",
            n=50, reps=reps, B=B, kernel="rbf(median)", seed=122,
        )
        target = np.floor(0.05 * (B + 1)) / (B + 1)
        lo, hi = binom.ppf([0.0005, 0.9995], reps, target) / reps
        print(f"[nmmd size] rate={rep.rejection_rate:.4f} target={target:.4f} "
              f"interval=[{lo:.4f}, {hi:.4f}]")
        assert lo <= rep.rejection_rate <= hi


class TestCpSize:
    def test_size_is_recorded_not_exact(self):
        # the swap chain keeps the kernel-density model of Z given M exactly,
        # but that model is only an estimate of the true conditional law, so
        # the size is above the nominal 0.05 (Berrett et al. 2020, Thm 4):
        # 2,000 replications of this config at seed 214 measured 0.080
        from scipy.stats import binom

        reps, recorded = 250, 0.080
        rep = simulate(
            method="cp", group="so(3)", generator="cond-shift(d=3)", n=64,
            reps=reps, B=99, burn_in=50, seed=123,
        )
        lo, hi = binom.ppf([0.0005, 0.9995], reps, recorded) / reps
        print(f"[cp size] rate={rep.rejection_rate:.4f} recorded={recorded:.4f} "
              f"interval=[{lo:.4f}, {hi:.4f}]")
        assert lo <= rep.rejection_rate <= hi


class TestConditionalTests:
    def test_tuned_conditional_independence_rates(self):
        grids = {"kernel": [2.0, 4.0], "kernel_y": [2.0, 4.0],
                 "kernel_m": [1.0, 2.0]}
        base = dict(
            method="kci", group="so(2)", n=50, reps=100, B=99,
            null_samples=500, seed=114,
        )

        def measure(combo):
            kw = {k: f"rbf({v})" for k, v in combo.items()}
            h0 = simulate(**base, generator="cond-shift(d=2)", **kw)
            h1 = simulate(**base, generator="cond-abs(d=2)", **kw)
            return h0.rejection_rate, h1.rejection_rate

        best, records = tune_bandwidths(grids, measure, h0_cap=0.1)
        kw = {k: f"rbf({v})" for k, v in best.items()}
        final = dict(base, reps=200, seed=115)
        h0 = simulate(**final, generator="cond-shift(d=2)", **kw)
        h1 = simulate(**final, generator="cond-abs(d=2)", **kw)
        print(f"[conditional] tuned={best} h0={h0.rejection_rate:.4f} "
              f"h1={h1.rejection_rate:.4f}")
        assert h0.rejection_rate <= 0.10
        assert h1.rejection_rate >= 0.60


class TestKciDefaultBandwidths:
    def test_size_and_power_at_median_bandwidths(self):
        base = dict(method="kci", group="so(3)", n=64, reps=300)
        h0 = simulate(**base, generator="cond-shift(d=3)", seed=118)
        h1 = simulate(**base, generator="cond-abs(d=3)", seed=119)
        print(f"[kci median bandwidths] h0={h0.rejection_rate:.4f} "
              f"h1={h1.rejection_rate:.4f}")
        assert h0.rejection_rate <= 0.08
        assert h1.rejection_rate >= 0.9


class TestProjectedEcdfRates:
    def test_size_and_power(self):
        h0 = simulate(
            method="cw", group="so(4)", generator="gauss-iso(d=4)",
            n=200, reps=200, m=2, B=99, seed=116,
        )
        h1 = simulate(
            method="cw", group="so(4)", generator="gauss-mean(d=4,mu=0.4e1)",
            n=200, reps=200, m=2, B=99, seed=117,
        )
        print(f"[projected ECDF] h0={h0.rejection_rate:.4f} "
              f"h1={h1.rejection_rate:.4f}")
        assert h0.rejection_rate <= 0.11
        assert h1.rejection_rate >= 0.80


class TestConditionalIndependenceCharacterisation:
    """A four-point toy model where conditional independence is enumerable.

    X is uniform on {0, 1, 2, 3} with orbits {0, 1} and {2, 3} (M = X // 2)
    and a binary response.  When the response law is constant on orbits the
    conditional mutual information of X and Y given M is exactly zero; when
    it varies within an orbit the CMI is bounded away from zero.  The kernel
    test should agree directionally.
    """

    EQUIVARIANT = (0.8, 0.8, 0.3, 0.3)
    NON_EQUIVARIANT = (0.9, 0.1, 0.7, 0.2)

    @staticmethod
    def exact_cmi(py1_given_x):
        total = 0.0
        for m in (0, 1):
            xs = (2 * m, 2 * m + 1)
            for y in (0, 1):
                py_m = sum(
                    0.5 * (py1_given_x[x] if y else 1 - py1_given_x[x])
                    for x in xs
                )
                for x in xs:
                    pyx = py1_given_x[x] if y else 1 - py1_given_x[x]
                    if pyx > 0:
                        total += 0.5 * 0.5 * pyx * np.log(pyx / py_m)
        return total

    def test_exact_enumeration(self):
        cmi0 = self.exact_cmi(self.EQUIVARIANT)
        cmi1 = self.exact_cmi(self.NON_EQUIVARIANT)
        print(f"[cmi oracle] within-orbit-constant={cmi0:.6f} "
              f"varying={cmi1:.6f}")
        assert cmi0 == pytest.approx(0.0, abs=1e-12)
        assert cmi1 > 0.01

    def _run(self, probs, seed):
        cfg = KciConfig(
            DiscreteDelta(), DiscreteDelta(), DiscreteDelta(),
            null_samples=500,
        )
        small = large = 0
        probs = np.asarray(probs)
        for rep in range(100):
            rng = np.random.default_rng([seed, rep])
            x = rng.integers(0, 4, 100)
            y = (rng.uniform(size=100) < probs[x]).astype(float)
            data = PairedDataset(
                x[:, None].astype(float), y[:, None],
                (x // 2)[:, None].astype(float), y[:, None],
            )
            p = kci_test_data(data, cfg, rng=rng).p_value
            small += p <= 0.05
            large += p > 0.1
        return small, large

    def test_kernel_test_agrees_directionally(self):
        _, large0 = self._run(self.EQUIVARIANT, 10)
        small1, _ = self._run(self.NON_EQUIVARIANT, 11)
        print(f"[cmi test] null #p>0.1 = {large0}/100, "
              f"alternative #p<=0.05 = {small1}/100")
        assert large0 > 50
        assert small1 > 50
