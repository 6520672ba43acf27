"""Tests for the conditional-symmetry (equivariance) tests."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from condsym_reference import (
    kcde_swap_odds,
    reference_cp_pvalue,
    reference_multiple_correlation,
    reference_sweeps,
)
from group_reference import act_rows
from kernel_reference import eval_kernel

from symtest import (
    BadMonteCarloBudget,
    BadParameters,
    GaussianRBF,
    KciConfig,
    PairedDataset,
    RankDeficientDesign,
    SampleTooSmall,
    UnsupportedKind,
    cp_test,
    kci_statistic,
    kci_test,
    kci_test_data,
    multiple_correlation_statistic,
    transform_responses,
)
from symtest.condsym import (
    _chain_sweeps,
    _kci_matrices,
    _log_joint_sums,
    _trimmed_eigs,
    kci_null_samples,
)
from symtest.groups import so, sym, tau_batch
from symtest.kernels import center, gram, median_heuristic, resolve_bandwidth
from symtest.synthdata import parse_generator, sample


K1 = GaussianRBF(1.0)
CFG = KciConfig(K1, K1, K1)


def make_paired(n=20, d=2, seed=0, dependent=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Y = X + 0.3 * rng.normal(size=(n, d)) if dependent else rng.normal(size=(n, d))
    return transform_responses(X, Y, so(d))


class TestTransformResponses:
    def test_so2_frozen_example(self):
        # X = e2 is a quarter turn of e1, so tau(X) rotates by pi/2 and
        # Z = tau(X)^{-1} Y rotates Y = e1 back by -pi/2 onto -e2
        X = np.array([[0.0, 1.0]])
        Y = np.array([[1.0, 0.0]])
        data = transform_responses(X, Y, so(2))
        assert np.allclose(data.Z, [[0.0, -1.0]], atol=1e-12)
        assert np.allclose(data.M, [[1.0]], atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for spec in (so(2), so(3), sym(4)):
            d = spec.dim
            X = rng.normal(size=(8, d))
            Y = rng.normal(size=(8, d))
            data = transform_responses(X, Y, spec)
            back = act_rows(tau_batch(spec, X), data.Z)
            assert np.allclose(back, Y, atol=1e-10)

    def test_trivial_action_keeps_y(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 3))
        Y = rng.normal(size=6)
        data = transform_responses(X, Y, so(3), y_action="trivial")
        assert data.Z.shape == (6, 1)
        assert np.allclose(data.Z[:, 0], Y)

    def test_same_action_needs_matching_dimension(self):
        rng = np.random.default_rng(3)
        with pytest.raises(BadParameters):
            transform_responses(
                rng.normal(size=(5, 3)), rng.normal(size=(5, 2)), so(3)
            )

    def test_unknown_action(self):
        rng = np.random.default_rng(4)
        with pytest.raises(UnsupportedKind):
            transform_responses(
                rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), so(2),
                y_action="both",
            )

    def test_mismatched_rows(self):
        with pytest.raises(BadParameters):
            transform_responses(np.zeros((4, 2)), np.zeros((5, 2)), so(2))

    def test_non_finite_values_raise(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 3))
        Y = rng.normal(size=(6, 3))
        Y[2, 0] = np.inf
        with pytest.raises(BadParameters):
            transform_responses(X, Y, so(3))
        X[1, 1] = np.nan
        with pytest.raises(BadParameters):
            transform_responses(X, rng.normal(size=(6, 3)), so(3))


class TestKciStatistic:
    def test_matches_naive_construction(self):
        data = make_paired(n=12, seed=5)
        n = 12
        k_y = center(gram(CFG.kernel_y, data.Z))
        k_m = center(gram(CFG.kernel_m, data.M))
        k_xm = center(gram(CFG.kernel_x, data.X) * gram(CFG.kernel_m, data.M))
        r = CFG.epsilon * np.linalg.inv(k_m + CFG.epsilon * np.eye(n))
        expected = np.trace(r @ k_xm @ r @ r @ k_y @ r) / n
        assert kci_statistic(data, CFG) == pytest.approx(expected, rel=1e-10)

    def test_invariant_under_joint_reordering(self):
        data = make_paired(n=15, seed=6, dependent=True)
        perm = np.random.default_rng(7).permutation(15)
        shuffled = PairedDataset(
            data.X[perm], data.Y[perm], data.M[perm], data.Z[perm]
        )
        assert kci_statistic(shuffled, CFG) == pytest.approx(
            kci_statistic(data, CFG), rel=1e-9
        )

    def test_nonnegative(self):
        for seed in range(5):
            data = make_paired(n=10, seed=seed)
            assert kci_statistic(data, CFG) >= -1e-12

    def test_non_finite_values_raise(self):
        for field in ("X", "Z", "M"):
            data = make_paired(n=10, seed=15)
            getattr(data, field)[3, 0] = np.nan
            with pytest.raises(BadParameters):
                kci_statistic(data, CFG)
            with pytest.raises(BadParameters):
                kci_null_samples(data, CFG, np.random.default_rng(0))


class TestKciNull:
    def test_deterministic_given_seed(self):
        data = make_paired(n=10, seed=8)
        a = kci_null_samples(
            data, replace(CFG, null_samples=50), np.random.default_rng(42)
        )
        b = kci_null_samples(
            data, replace(CFG, null_samples=50), np.random.default_rng(42)
        )
        assert np.array_equal(a, b)

    def test_weights_are_the_spectrum_of_w(self):
        # Zhang et al. (2011), Prop. 5: with A = psi psi^T, B = phi phi^T and
        # row t of W equal to psi_t (x) phi_t, the null weights are the
        # nonzero eigenvalues of W^T W, which are those of A o B
        data = make_paired(n=10, seed=9)
        a, b = _kci_matrices(data, CFG)

        def factor(mat):
            vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
            keep = vals > 1e-12 * vals.max()
            return vecs[:, keep] * np.sqrt(vals[keep])

        psi, phi = factor(a), factor(b)
        w = np.einsum("ti,tj->tij", psi, phi).reshape(10, -1)
        from_w = np.linalg.eigvalsh(w.T @ w)
        from_w = np.sort(from_w[from_w > 1e-10 * from_w.max()])
        assert np.allclose(from_w, _trimmed_eigs(a * b), rtol=0, atol=1e-10)

    def test_mean_matches_hadamard_trace(self):
        # E T_b = (1/n) Tr(A o B) since E z^2 = 1
        data = make_paired(n=10, seed=9)
        a, b = _kci_matrices(data, CFG)
        expect = np.trace(a * b) / 10.0
        draws = kci_null_samples(
            data, replace(CFG, null_samples=40000), np.random.default_rng(0)
        )
        assert draws.mean() == pytest.approx(expect, rel=0.05)

    def test_all_draws_nonnegative(self):
        data = make_paired(n=10, seed=10)
        draws = kci_null_samples(
            data, replace(CFG, null_samples=200), np.random.default_rng(1)
        )
        assert np.all(draws >= 0)

    def test_missing_rng_raises(self):
        with pytest.raises(BadParameters):
            kci_null_samples(make_paired(n=10, seed=10), CFG, None)

    def test_test_reads_the_wrappers_values_from_one_build(self):
        # kci_test_data builds the conditioned matrices once; its statistic
        # and null draws equal those of the two public wrappers
        data = make_paired(n=14, seed=16, dependent=True)
        cfg = replace(CFG, null_samples=60)
        res = kci_test_data(data, cfg, rng=np.random.default_rng(17))
        assert res.statistic == kci_statistic(data, cfg)
        assert np.array_equal(
            res.null_stats, kci_null_samples(data, cfg, np.random.default_rng(17))
        )


class TestKciTest:
    def test_independent_responses_not_rejected(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 2))
        Y = rng.normal(size=(60, 2))
        res = kci_test(X, Y, so(2), CFG, rng=rng)
        assert res.p_value > 0.05

    def test_equivariant_dependence_not_rejected(self):
        # Y = 2X is exactly equivariant: Z depends on X only through M
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 2))
        Y = 2.0 * X + 0.1 * rng.normal(size=(60, 2))
        res = kci_test(X, Y, so(2), CFG, rng=rng)
        assert res.p_value > 0.05

    def test_non_equivariant_dependence_rejected(self):
        # Y = |X| + noise with a trivial action on Y breaks equivariance in
        # the direction of X, which the conditioned statistic picks up
        rng = np.random.default_rng(13)
        X = rng.normal(size=(80, 2))
        Y = X[:, 0] + 0.1 * rng.normal(size=80)
        res = kci_test(X, Y, so(2), CFG, rng=rng, y_action="trivial")
        assert res.p_value <= 0.05

    def test_statistic_above_every_null_draw(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(80, 2))
        Y = X[:, 0] + 0.1 * rng.normal(size=80)
        data = transform_responses(X, Y, so(2), y_action="trivial")
        cfg = KciConfig(CFG.kernel_x, CFG.kernel_y, CFG.kernel_m, null_samples=99)
        res = kci_test_data(data, cfg, rng=rng)
        assert res.statistic > res.null_stats.max()
        assert res.p_value == 1.0 / 100.0

    def test_too_small(self):
        data = make_paired(n=12, seed=14)
        tiny = PairedDataset(
            data.X[:1], data.Y[:1], data.M[:1], data.Z[:1]
        )
        with pytest.raises(SampleTooSmall):
            kci_test_data(tiny, CFG, rng=np.random.default_rng(0))

    def test_non_finite_prepared_data_raises(self):
        data = make_paired(n=12, seed=14)
        data.Z[4, 1] = np.nan
        with pytest.raises(BadParameters):
            kci_test_data(data, CFG, rng=np.random.default_rng(0))

    def test_non_finite_epsilon(self):
        # with an infinite ridge, kci_test fails in numpy's linear algebra
        for bad in (np.inf, np.nan):
            with pytest.raises(BadParameters, match="finite"):
                KciConfig(CFG.kernel_x, CFG.kernel_y, CFG.kernel_m, epsilon=bad)

    def test_config_validation(self):
        with pytest.raises(BadParameters):
            KciConfig(CFG.kernel_x, CFG.kernel_y, CFG.kernel_m, epsilon=0.0)
        for bad in (0, 2.5, True, "7"):
            with pytest.raises(BadMonteCarloBudget):
                KciConfig(CFG.kernel_x, CFG.kernel_y, CFG.kernel_m,
                          null_samples=bad)


class TestSwapOdds:
    def test_swap_with_self_is_one(self):
        data = make_paired(n=8, seed=15)
        assert kcde_swap_odds(data, CFG, 3, 3) == pytest.approx(1.0)

    def test_reverse_swap_inverts_odds(self):
        data = make_paired(n=8, seed=16, dependent=True)
        fwd = kcde_swap_odds(data, CFG, 1, 5)
        assert kcde_swap_odds(data, CFG, 5, 1) == pytest.approx(fwd, rel=1e-9)
        # swapping back after the swap inverts the odds
        pi = np.arange(8)
        pi[1], pi[5] = pi[5], pi[1]
        back = kcde_swap_odds(data, CFG, 1, 5, assignment=pi)
        assert back == pytest.approx(1.0 / fwd, rel=1e-9)

    def test_matches_naive_density_ratio(self):
        data = make_paired(n=7, seed=17, dependent=True)

        def joint(a, q):
            # kernel estimate of the joint density of (Z_a, M_q)
            return sum(
                eval_kernel(CFG.kernel_y, data.Z[a], data.Z[r])
                * eval_kernel(CFG.kernel_m, data.M[q], data.M[r])
                for r in range(7)
            )

        i, j = 2, 4
        expect = (joint(j, i) * joint(i, j)) / (joint(i, i) * joint(j, j))
        assert kcde_swap_odds(data, CFG, i, j) == pytest.approx(expect, rel=1e-9)

    def test_log_sums_are_finite(self):
        data = make_paired(n=9, seed=18)
        ls = _log_joint_sums(data, K1, K1)
        assert ls.shape == (9, 9)
        assert np.all(np.isfinite(ls))


class TestChain:
    def test_returns_permutation(self):
        data = make_paired(n=11, seed=19, dependent=True)
        ls = _log_joint_sums(data, K1, K1)
        pis = _chain_sweeps(ls, np.tile(np.arange(11), (3, 1)), 20,
                            np.random.default_rng(2))
        assert pis.shape == (3, 11)
        for pi in pis:
            assert sorted(pi) == list(range(11))

    def test_deterministic_given_seed(self):
        data = make_paired(n=11, seed=20)
        ls = _log_joint_sums(data, K1, K1)
        a = _chain_sweeps(ls, np.arange(11)[None], 10, np.random.default_rng(3))
        b = _chain_sweeps(ls, np.arange(11)[None], 10, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_start_is_not_modified(self):
        data = make_paired(n=11, seed=20)
        ls = _log_joint_sums(data, K1, K1)
        start = np.tile(np.arange(11), (2, 1))
        _chain_sweeps(ls, start, 10, np.random.default_rng(3))
        assert np.array_equal(start, np.tile(np.arange(11), (2, 1)))


def _fitted(tag, n, rng):
    """A paired sample of the generator and its median-bandwidth config."""
    X, Y = sample(parse_generator(f"{tag}(d=3)"), n, rng)
    data = transform_responses(X, Y, so(3))
    cfg = KciConfig(
        resolve_bandwidth(GaussianRBF(None), data.X),
        resolve_bandwidth(GaussianRBF(None), data.Z),
        resolve_bandwidth(GaussianRBF(None), data.M),
    )
    return X, Y, data, cfg


class TestChainMatchesReference:
    @pytest.mark.parametrize("tag", ["cond-shift", "cond-abs"])
    def test_identical_permutations(self, tag):
        # the stacked decisions against one swap decision at a time, on the
        # same draws
        for seed in range(25):
            rng = np.random.default_rng([seed, 31])
            n = (4, 5, 11, 64)[seed % 4]
            _, _, data, cfg = _fitted(tag, n, rng)
            ls = _log_joint_sums(data, cfg.kernel_y, cfg.kernel_m)
            starts = np.array([rng.permutation(n) for _ in range(3)])
            got = _chain_sweeps(ls, starts, 20, np.random.default_rng(seed))
            want = reference_sweeps(ls, starts, 20, np.random.default_rng(seed))
            assert np.array_equal(got, want), (tag, seed, n)


def _sweep_matrix(ls):
    """The exact one-sweep transition matrix over all n! assignments.

    A sweep pairs the positions by a uniform order, (o_0, o_1), (o_2, o_3),
    ..., and swaps each pair's entries with probability sigmoid(log odds),
    the odds read from the assignment as it stood before the sweep.
    """
    n = ls.shape[0]
    states = list(itertools.permutations(range(n)))
    index = {s: k for k, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for k, pi in enumerate(states):
        for order in states:  # the n! pair orders
            pairs = [order[2 * a:2 * a + 2] for a in range(n // 2)]
            accept = [
                1.0 / (1.0 + np.exp(-(ls[pi[j], i] + ls[pi[i], j]
                                      - ls[pi[i], i] - ls[pi[j], j])))
                for i, j in pairs
            ]
            for flips in itertools.product([False, True], repeat=len(pairs)):
                new, w = list(pi), 1.0
                for (i, j), a, flip in zip(pairs, accept, flips):
                    if flip:
                        new[i], new[j] = new[j], new[i]
                    w *= a if flip else 1.0 - a
                P[k, index[tuple(new)]] += w / len(states)
    return states, P


class TestChainLaw:
    @pytest.mark.parametrize("n", [4, 5])
    def test_target_law_is_stationary(self, n):
        ls = np.random.default_rng([45, n]).normal(scale=0.8, size=(n, n))
        states, P = _sweep_matrix(ls)
        energy = np.array([sum(ls[s[a], a] for a in range(n)) for s in states])
        target = np.exp(energy - energy.max())
        target /= target.sum()
        assert np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(target @ P, target, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 5])
    def test_chain_draws_follow_the_sweep_matrix(self, n):
        # 40,000 chains from one start against the rows of P and P^3 by a
        # chi-square test; bins expected to hold under 5 chains are pooled
        from scipy.stats import chisquare

        reps = 40_000
        ls = np.random.default_rng([46, n]).normal(scale=0.8, size=(n, n))
        states, P = _sweep_matrix(ls)
        index = {s: k for k, s in enumerate(states)}
        start = np.random.default_rng([47, n]).permutation(n)
        for sweeps in (1, 3):
            law = np.linalg.matrix_power(P, sweeps)[index[tuple(start)]]
            pis = _chain_sweeps(ls, np.tile(start, (reps, 1)), sweeps,
                                np.random.default_rng([48, n, sweeps]))
            counts = np.bincount([index[tuple(pi)] for pi in pis],
                                 minlength=len(states))
            assert counts[law == 0.0].sum() == 0
            expected = reps * law
            big = expected >= 5.0
            obs = np.append(counts[big], counts[~big].sum())
            exp = np.append(expected[big], expected[~big].sum())
            keep = exp > 0.0
            p = chisquare(obs[keep], exp[keep]).pvalue
            print(f"[chain law] n={n} sweeps={sweeps} chi-square p={p:.3f}")
            assert p > 1e-3

    def test_chains_of_one_stack_are_independent(self):
        # one draw serves all chains of a sweep; the chains must still be
        # independent: a contingency test on 20,000 stacks of two chains,
        # one sweep each from one start (10 reachable assignments)
        from scipy.stats import chi2_contingency

        n = 4
        ls = np.random.default_rng([46, n]).normal(scale=0.8, size=(n, n))
        states = list(itertools.permutations(range(n)))
        index = {s: k for k, s in enumerate(states)}
        rng = np.random.default_rng(52)
        starts = np.tile(np.arange(n), (2, 1))
        table = np.zeros((len(states), len(states)))
        for _ in range(20_000):
            a, b = _chain_sweeps(ls, starts, 1, rng)
            table[index[tuple(a)], index[tuple(b)]] += 1
        seen = table.sum(axis=1) > 0
        p = chi2_contingency(table[seen][:, seen]).pvalue
        print(f"[chain law] independence chi-square p={p:.3f}")
        assert p > 1e-3


class TestMultipleCorrelation:
    def test_exact_linear_relation_gives_one(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 3))
        z = X @ [1.0, -2.0, 0.5] + 4.0
        assert multiple_correlation_statistic(X, z) == pytest.approx(1.0)

    def test_constant_target_gives_zero(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(20, 2))
        assert multiple_correlation_statistic(X, np.ones(20)) == 0.0
        orders = np.array([rng.permutation(20) for _ in range(3)])
        got = multiple_correlation_statistic(X, np.ones((20, 2)), orders)
        assert np.array_equal(got, np.zeros(3))

    def test_identity_in_a_stack_scores_the_observed_statistic(self):
        # the observed assignment scored anywhere in a stack of copies gives
        # the observed statistic bit for bit, so a chain that returns to it
        # ties the observed statistic
        rng = np.random.default_rng(29)
        for _ in range(200):
            n, d, q = (int(v) for v in rng.integers((6, 1, 1), (70, 4, 4)))
            X, Z = rng.normal(size=(n, d)), rng.normal(size=(n, q))
            k = int(rng.integers(1, 60))
            at = int(rng.integers(0, k + 1))
            orders = np.array([rng.permutation(n) for _ in range(k)])
            orders = np.insert(orders, at, np.arange(n), axis=0)
            got = multiple_correlation_statistic(X, Z, orders)
            assert got[at] == multiple_correlation_statistic(X, Z)

    def test_matches_pearson_for_single_covariate(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(25, 1))
        z = 0.7 * x[:, 0] + rng.normal(size=25)
        expect = abs(np.corrcoef(x[:, 0], z)[0, 1])
        assert multiple_correlation_statistic(x, z) == pytest.approx(
            expect, rel=1e-10
        )

    def test_one_dimensional_covariate_is_one_column(self):
        rng = np.random.default_rng(49)
        x = rng.normal(size=25)
        Z = 0.5 * x[:, None] + rng.normal(size=(25, 2))
        orders = np.array([rng.permutation(25) for _ in range(4)])
        assert multiple_correlation_statistic(x, Z) == (
            multiple_correlation_statistic(x[:, None], Z))
        assert np.array_equal(multiple_correlation_statistic(x, Z, orders),
                              multiple_correlation_statistic(x[:, None], Z, orders))

    def test_multivariate_uses_leading_direction(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(40, 2))
        # Z's dominant variance direction is its first column
        Z = np.column_stack([10.0 * X[:, 0], 0.01 * rng.normal(size=40)])
        assert multiple_correlation_statistic(X, Z) == pytest.approx(1.0, abs=1e-6)

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=20)
        X = np.column_stack([x, 2.0 * x])
        with pytest.raises(RankDeficientDesign):
            multiple_correlation_statistic(X, rng.normal(size=20))

    def test_too_few_rows(self):
        with pytest.raises(SampleTooSmall):
            multiple_correlation_statistic(np.zeros((3, 3)), np.zeros(3))

    def test_non_finite_values_raise(self):
        rng = np.random.default_rng(50)
        X, Z = rng.normal(size=(20, 2)), rng.normal(size=(20, 3))
        Z[4, 1] = np.nan
        with pytest.raises(BadParameters):
            multiple_correlation_statistic(X, Z)
        X[2, 0] = np.inf
        with pytest.raises(BadParameters):
            multiple_correlation_statistic(X, rng.normal(size=20))

    @pytest.mark.parametrize("d,q", [(1, 1), (3, 1), (2, 2), (3, 3)])
    def test_stack_matches_lstsq_reference(self, d, q):
        # the permuted copies Z[orders[b]] scored from one SVD of Z, against
        # one SVD and one lstsq per copy
        rng = np.random.default_rng([39, d, q])
        n = 30
        X = rng.normal(size=(n, d))
        Z = rng.normal(size=(n, q)) + X @ rng.normal(size=(d, q))
        orders = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(11)])
        got = multiple_correlation_statistic(X, Z, orders)
        want = [reference_multiple_correlation(X, Z[o]) for o in orders]
        assert got.shape == (12,)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        for o, r in zip(orders, got):
            one = multiple_correlation_statistic(X, Z[o])
            assert isinstance(one, float)
            assert one == pytest.approx(r, rel=0, abs=1e-12)

    def test_univariate_stack_matches_vector_targets(self):
        rng = np.random.default_rng(40)
        X = rng.normal(size=(25, 2))
        z = rng.normal(size=25)
        orders = np.array([rng.permutation(25) for _ in range(6)])
        got = multiple_correlation_statistic(X, z, orders)
        want = [reference_multiple_correlation(X, z[o]) for o in orders]
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.array_equal(got, multiple_correlation_statistic(X, z[:, None], orders))

    def test_stack_checks_the_design(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=20)
        orders = np.array([rng.permutation(20) for _ in range(5)])
        with pytest.raises(RankDeficientDesign):
            multiple_correlation_statistic(
                np.column_stack([x, 2.0 * x]), rng.normal(size=(20, 2)), orders
            )
        with pytest.raises(SampleTooSmall):
            multiple_correlation_statistic(np.zeros((3, 3)), np.zeros((3, 1)),
                                           orders[:, :3])

    def test_bad_orders_and_rows_raise(self):
        # the shared SVD holds for row permutations only
        rng = np.random.default_rng(53)
        X, Z = rng.normal(size=(10, 2)), rng.normal(size=(10, 2))
        perm = rng.permutation(10)
        for bad in (perm, np.tile(perm, (2, 1))[:, :5], np.zeros((2, 10), int),
                    np.full((2, 10), 10), perm[None].astype(float)):
            with pytest.raises(BadParameters, match="permutations"):
                multiple_correlation_statistic(X, Z, bad)
        with pytest.raises(BadParameters, match="one row per observation"):
            multiple_correlation_statistic(X, rng.normal(size=(12, 2)))


class TestCpTest:
    def test_pvalue_on_lattice(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(30, 2))
        Y = rng.normal(size=(30, 2))
        res = cp_test(X, Y, so(2), K1, K1, burn_in=5, B=19, rng=rng)
        assert res.p_value * 20 == pytest.approx(round(res.p_value * 20))
        assert res.null_stats.size == 19
        assert res.method == "cp"

    def test_detects_non_equivariant_response(self):
        rng = np.random.default_rng(27)
        X = rng.normal(size=(60, 2))
        Y = X[:, 0] + 0.1 * rng.normal(size=60)
        res = cp_test(
            X, Y, so(2), K1, K1, burn_in=10, B=49, rng=rng, y_action="trivial"
        )
        assert res.p_value <= 0.05

    def test_budget_validation(self):
        rng = np.random.default_rng(28)
        X = rng.normal(size=(10, 2))
        Y = rng.normal(size=(10, 2))
        for bad in (dict(B=0), dict(B=2.5), dict(B=True), dict(burn_in=0),
                    dict(burn_in=2.5), dict(burn_in=True)):
            with pytest.raises(BadMonteCarloBudget):
                cp_test(X, Y, so(2), K1, K1, rng=rng, **bad)
        with pytest.raises(SampleTooSmall):
            cp_test(X[:3], Y[:3], so(2), K1, K1, rng=rng)

    def test_rank_deficient_covariates(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=12)
        X = np.column_stack([x, 2.0 * x])
        with pytest.raises(RankDeficientDesign):
            cp_test(X, rng.normal(size=(12, 2)), so(2), K1, K1, burn_in=2,
                    B=9, rng=rng)

    @pytest.mark.parametrize("y_action", ["same", "trivial"])
    def test_median_kernels_take_the_medians_of_the_tested_points(self, y_action):
        # rbf(median) in cp_test and kci_test is the median heuristic of the
        # Z, M and X that the test builds from the sample, and nothing else
        rng = np.random.default_rng(51)
        X, Y = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
        data = transform_responses(X, Y, so(2), y_action)
        medians = [GaussianRBF(median_heuristic(v)) for v in (data.X, data.Z, data.M)]
        same = lambda r, s: (r.p_value == s.p_value and r.statistic == s.statistic
                             and np.array_equal(r.null_stats, s.null_stats))
        k = GaussianRBF(1.0)
        for ky, km, want_y, want_m in ((GaussianRBF(None), k, medians[1], k),
                                       (k, GaussianRBF(None), k, medians[2])):
            got, want = (cp_test(X, Y, so(2), a, b, burn_in=2, B=9, y_action=y_action,
                                 rng=np.random.default_rng(52))
                         for a, b in ((ky, km), (want_y, want_m)))
            assert same(got, want)
        unresolved = KciConfig(GaussianRBF(None), GaussianRBF(None), GaussianRBF(None),
                               null_samples=50)
        got, want = (kci_test(X, Y, so(2), cfg, y_action=y_action,
                              rng=np.random.default_rng(53))
                     for cfg in (unresolved, KciConfig(*medians, null_samples=50)))
        assert same(got, want)

    def test_pvalues_match_sequential_reference(self):
        # the batched chains and statistic against one swap decision at a
        # time on the same draws and one lstsq per copy, on 300 replications
        mismatched = []
        for rep in range(300):
            tag = ("cond-shift", "cond-abs")[rep % 2]
            n = (16, 23, 32)[rep % 3]
            X, Y, _, cfg = _fitted(tag, n, np.random.default_rng([rep, 43]))
            got = cp_test(X, Y, so(3), cfg.kernel_y, cfg.kernel_m, burn_in=3, B=19,
                          rng=np.random.default_rng([rep, 44]))
            want = reference_cp_pvalue(X, Y, so(3), cfg, 3, 19,
                                       np.random.default_rng([rep, 44]))
            if got.p_value != want:
                mismatched.append((rep, got.p_value, want))
        assert mismatched == []
