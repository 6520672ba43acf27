import numpy as np
import pytest
from group_reference import (
    act_each,
    act_rows,
    axis_rotation,
    element_matrices,
    lorentz_boost,
    orbit_sq_distance,
    quaternion_matrix,
    rot2,
    rotate_planes,
)
from hypothesis import given, settings
from hypothesis import strategies as hst

from symtest import (
    TransformBatch,
    discrete_rotations,
    inversion_kernel_sample,
    median_heuristic,
    paired_so2,
    parse_group,
    representative_inversion,
    so,
    so2xso2,
    sym,
    trivial,
)
from symtest.errors import (
    AllPointsIdentical,
    BadParameters,
    DimensionMismatch,
    InvalidRotation,
    SampleTooSmall,
    UnsupportedFamily,
    UnsupportedKind,
    VariantMismatch,
    ZeroVector,
)
from symtest.groups import (
    GroupSpec,
    gamma_batch,
    haar_quaternions,
    haar_rotations,
    invariant_batch,
    orbit_bandwidth,
    orbit_draw,
    rotation_quaternions,
    sample_batch,
    tau_batch,
)


def _gamma(spec, x):
    """gamma_batch at one point, as a flat vector."""
    return gamma_batch(spec, np.asarray(x, dtype=float)[None])[0]


def _invariant(spec, kind, x):
    """invariant_batch at one point, as a flat vector."""
    return invariant_batch(spec, kind, np.asarray(x, dtype=float)[None])[0]


def perms(*rows):
    """A batch of permutations of S_d, one per index row."""
    data = np.array(rows, dtype=np.intp)
    return TransformBatch(sym(data.shape[1]), "perm", data, len(data))


def rots(*mats):
    """A batch of rotations of SO(d), one per matrix."""
    data = np.array(mats, dtype=float)
    return TransformBatch(so(data.shape[1]), "rot", data, len(data))


def composed(g, h):
    """Index rows of the products g*h (apply h first): (g h)[i] = g[h[i]]."""
    return np.take_along_axis(g.data, h.data, axis=1)


def inverted(g):
    """Index rows of the inverses of a permutation batch."""
    return np.argsort(g.data, axis=1)


class TestElements:
    def test_permutation_compose(self):
        g, h = perms([1, 0, 2]), perms([2, 1, 0])
        gh = composed(g, h)
        assert list(gh[0]) == [2, 0, 1]
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(perms(*gh).apply(x), g.apply(h.apply(x)))

    def test_permutation_inverse(self):
        p = perms([2, 0, 1])
        assert list(inverted(p)[0]) == [1, 2, 0]
        assert list(composed(p, perms(*inverted(p)))[0]) == [0, 1, 2]
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(perms(*inverted(p)).apply(x), p.apply_inverse(x))

    def test_permutation_act_swaps(self):
        out = perms([1, 0]).apply(np.array([[3.0, 7.0]]))
        assert list(out[0]) == [7.0, 3.0]

    def test_rotation_compose_matches_matrix_product(self):
        X = np.random.default_rng(0).standard_normal((1, 2))
        a, b = rots(rot2(0.3)), rots(rot2(1.1))
        np.testing.assert_allclose(a.apply(b.apply(X)), X @ rot2(1.4).T, atol=1e-12)

    def test_rotation_inverse_is_transpose(self):
        X = np.random.default_rng(1).standard_normal((1, 2))
        r = rots(rot2(0.9))
        np.testing.assert_allclose(r.apply_inverse(X), X @ rot2(-0.9).T, atol=1e-12)

    def test_act_compose_compatible(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 5))
        g, h = sample_batch(so(5), rng, 7), sample_batch(so(5), rng, 7)
        gh = rots(*(g.data @ h.data))
        np.testing.assert_allclose(g.apply(h.apply(X)), act_rows(gh, X), atol=1e-12)

    def test_permutation_act_compose_compatible(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((7, 6))
        g, h = sample_batch(sym(6), rng, 7), sample_batch(sym(6), rng, 7)
        gh = perms(*composed(g, h))
        np.testing.assert_array_equal(g.apply(h.apply(X)), act_rows(gh, X))

    def test_variant_mismatch(self):
        with pytest.raises(VariantMismatch):
            TransformBatch(so(2), "quaternion", None, 1).apply(np.ones((1, 2)))

    def test_dimension_mismatch(self):
        g = sample_batch(so(3), np.random.default_rng(2), 2)
        with pytest.raises(DimensionMismatch):
            g.apply(np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            g.apply(np.zeros((3, 3)))
        with pytest.raises(DimensionMismatch):
            g.apply_all(np.zeros((5, 2)))

    @given(hst.permutations(list(range(5))), hst.permutations(list(range(5))))
    @settings(max_examples=50, deadline=None)
    def test_permutation_group_axioms(self, p, q):
        g, h = perms(p), perms(q)
        assert list(composed(perms(*inverted(g)), g)[0]) == [0, 1, 2, 3, 4]
        x = np.arange(5.0)[None]
        np.testing.assert_array_equal(
            perms(*composed(g, h)).apply(x), g.apply(h.apply(x))
        )
        np.testing.assert_array_equal(g.apply(x), act_rows(g, x))

    def test_apply_all_matches_reference(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((7, 4))
        for spec in (so(4), sym(4), paired_so2(), so2xso2(), trivial()):
            g = sample_batch(spec, rng, 3)
            out = g.apply_all(X)
            assert out.shape == (3, 7, 4)
            np.testing.assert_allclose(out, act_each(g, X), atol=1e-12)


class TestSpecs:
    def test_parse_round_trip(self):
        assert parse_group("so(4)") == so(4)
        assert parse_group("sym(10)") == sym(10)
        assert parse_group("paired-so2") == paired_so2()
        assert parse_group("so2xso2") == so2xso2()
        assert parse_group("rot-discrete(24deg,d=3,axis=3)") == \
            discrete_rotations(24.0, 3, 3)
        assert parse_group("trivial") == trivial()

    def test_parse_rejects_garbage(self):
        for bad in ("so(1)", "nope", "so()", "rot-discrete(7deg,d=3,axis=3)"):
            with pytest.raises((UnsupportedFamily, BadParameters)):
                parse_group(bad)

    def test_bad_specs_rejected(self):
        with pytest.raises(BadParameters):
            GroupSpec("paired-so2", 3)
        with pytest.raises(BadParameters):
            GroupSpec("rot-discrete", 3, step_deg=24.0)  # missing axis
        with pytest.raises(UnsupportedFamily):
            GroupSpec("dihedral", 2)


class TestHaar:
    def test_rotation_matrices_are_rotations(self):
        mats = haar_rotations(5, 40, np.random.default_rng(3))
        for m in mats:
            np.testing.assert_allclose(m.T @ m, np.eye(5), atol=1e-10)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)

    def test_so2_angles_uniform(self):
        from scipy.stats import kstest

        mats = haar_rotations(2, 4000, np.random.default_rng(4))
        angles = np.arctan2(mats[:, 1, 0], mats[:, 0, 0])
        stat, p = kstest((angles + np.pi) / (2 * np.pi), "uniform")
        assert p > 0.01

    def test_left_invariance_so3(self):
        # composing with a fixed rotation leaves the Haar law unchanged;
        # compare a smooth statistic across the two ensembles
        rng = np.random.default_rng(5)
        mats = haar_rotations(3, 4000, rng)
        fixed = haar_rotations(3, 1, rng)[0]
        shifted = np.einsum("ij,njk->nik", fixed, mats)
        f = lambda m: np.trace(m, axis1=1, axis2=2)
        assert abs(f(mats).mean() - f(shifted).mean()) < 0.1

    def test_quaternions_are_unit_and_give_rotations(self):
        q = haar_quaternions(40, np.random.default_rng(12))
        assert q.shape == (40, 4)
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-15)
        for m in quaternion_matrix(q):
            np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-14)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-14)

    def test_quaternions_have_the_haar_law(self):
        # the half-angle cosine to a fixed rotation, |q . q0| for quaternions
        # and sqrt((1 + tr(R0^T R)) / 4) for matrices, has the same law
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(13)
        n = 100_000
        fixed = haar_rotations(3, 1, rng)
        q0 = rotation_quaternions(fixed)[0]
        cos_q = np.abs(haar_quaternions(n, rng) @ q0)
        tr = np.einsum("ij,nij->n", fixed[0], haar_rotations(3, n, rng))
        cos_m = np.sqrt(np.clip((1.0 + tr) / 4.0, 0.0, 1.0))
        assert ks_2samp(cos_q, cos_m).pvalue > 0.001

    def test_permutations_uniform(self):
        rng = np.random.default_rng(6)
        perms = sample_batch(sym(3), rng, 6000).data
        codes = perms[:, 0] * 9 + perms[:, 1] * 3 + perms[:, 2]
        _, counts = np.unique(codes, return_counts=True)
        assert counts.size == 6
        assert np.all(np.abs(counts / 6000 - 1 / 6) < 0.03)

    def test_paired_so2_shares_the_angle(self):
        g = sample_batch(paired_so2(), np.random.default_rng(7), 5)
        out = g.apply(np.tile([1.0, 0.0, 1.0, 0.0], (5, 1)))
        np.testing.assert_allclose(out[:, 0:2], out[:, 2:4])

    def test_so2xso2_angles_differ(self):
        g = sample_batch(so2xso2(), np.random.default_rng(8), 5)
        out = g.apply(np.tile([1.0, 0.0, 1.0, 0.0], (5, 1)))
        assert not np.allclose(out[:, 0:2], out[:, 2:4])

    def test_discrete_rotations_land_on_the_lattice(self):
        rng = np.random.default_rng(9)
        spec = discrete_rotations(24.0, 3, axis=3)
        for m in sample_batch(spec, rng, 20).data:
            theta = np.arctan2(m[1, 0], m[0, 0])
            steps = np.rad2deg(theta) / 24.0
            assert abs(steps - round(steps)) < 1e-9
            np.testing.assert_allclose(m[2], [0, 0, 1], atol=1e-12)

    def test_batch_apply_matches_elements(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((9, 4))
        for spec in (so(4), sym(4), trivial(4)):
            batch = sample_batch(spec, np.random.default_rng(11), 9)
            np.testing.assert_allclose(batch.apply(X), act_rows(batch, X), atol=1e-12)
            np.testing.assert_allclose(
                batch.apply_inverse(X),
                np.stack([m.T @ x for m, x in zip(element_matrices(batch, 4), X)]),
                atol=1e-12,
            )

    @pytest.mark.parametrize("spec", [
        discrete_rotations(24.0, 3, axis=3),
        discrete_rotations(90.0, 3, axis=1),
        discrete_rotations(0.5, 3, axis=2),
        discrete_rotations(60.0, 2),
    ], ids=str)
    def test_discrete_rotations_match_per_row_construction(self, spec):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            order = int(round(360.0 / spec.step_deg))
            theta = np.deg2rad(spec.step_deg) * rng.integers(0, order, 200)
            per_row = np.stack([axis_rotation(t, spec.dim, spec.axis) for t in theta])
            batch = sample_batch(spec, np.random.default_rng(seed), 200)
            assert np.array_equal(batch.data, per_row)

    @pytest.mark.parametrize("spec", [paired_so2(), so2xso2()], ids=str)
    def test_plane_rotations_match_the_planar_formula(self, spec):
        # the angles a generator with the same seed draws, one per plane, or
        # one shared by both planes, turn each plane by (c x - s y, s x + c y)
        X = np.random.default_rng(10).standard_normal((200, 4))
        shape = (200, 1) if spec == paired_so2() else (200, 2)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            theta = np.broadcast_to(rng.uniform(0.0, 2 * np.pi, shape), (200, 2))
            batch = sample_batch(spec, np.random.default_rng(seed), 200)
            assert np.array_equal(batch.apply(X), rotate_planes(X, theta))
            assert np.array_equal(batch.apply_inverse(X), rotate_planes(X, -theta))
        # tau(x)^-1 turns the first block of x, and for so2xso2 the second
        # too, back by the block's polar angle
        angles = np.arctan2(X[:, 1::2], X[:, 0::2])
        if spec == paired_so2():
            angles = np.broadcast_to(angles[:, :1], (200, 2))
        assert np.array_equal(tau_batch(spec, X).apply_inverse(X),
                              rotate_planes(X, -angles))

    @pytest.mark.parametrize("spec", [
        so(3), sym(4), paired_so2(), so2xso2(), discrete_rotations(24.0, 3, axis=3),
        discrete_rotations(60.0, 2), trivial(4),
    ], ids=str)
    def test_empty_draw_gives_an_empty_batch(self, spec):
        rng = np.random.default_rng(16)
        empty = np.empty((0, spec.dim))
        batch = sample_batch(spec, rng, 0)
        assert batch.count == 0
        assert batch.apply(empty).shape == (0, spec.dim)
        assert batch.apply_all(empty).shape == (0, 0, spec.dim)
        assert orbit_draw(spec, empty, rng).shape == (0, spec.dim)


def half_turns_and_neighbours(rng):
    """The identity and the half-turns about each axis, alone and composed
    with tiny rotations, so that every branch of Shepperd's method is taken."""
    base = [np.eye(3)] + [axis_rotation(np.pi, 3, axis) for axis in (1, 2, 3)]
    out = list(base)
    for m in base:
        for phi in (1e-10, 1e-6, 1e-2):
            out.append(m @ axis_rotation(phi, 3, int(rng.integers(1, 4))))
    return np.array(out)


class TestRotationQuaternions:
    def test_round_trip_on_every_branch(self):
        rng = np.random.default_rng(14)
        mats = np.concatenate([half_turns_and_neighbours(rng),
                               haar_rotations(3, 200, rng)])
        q = rotation_quaternions(mats)
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-15)
        np.testing.assert_allclose(quaternion_matrix(q), mats, atol=1e-14)
        # each of the four components is the largest one somewhere
        assert set(np.argmax(np.abs(q), axis=1)) == {0, 1, 2, 3}

    def test_quaternion_and_its_negative_give_one_rotation(self):
        q = haar_quaternions(50, np.random.default_rng(15))
        back = rotation_quaternions(quaternion_matrix(q))
        signs = np.sign(np.sum(back * q, axis=1))
        np.testing.assert_allclose(back, signs[:, None] * q, atol=1e-14)
        np.testing.assert_allclose(rotation_quaternions(quaternion_matrix(-q)),
                                   back, atol=1e-14)

    def test_frozen_examples(self):
        quarter_z = axis_rotation(np.pi / 2, 3, 3)
        np.testing.assert_allclose(
            rotation_quaternions(np.stack([np.eye(3), quarter_z])),
            [[1, 0, 0, 0], [np.sqrt(0.5), 0, 0, np.sqrt(0.5)]], atol=1e-15,
        )

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4, 4), (5, 9)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(InvalidRotation):
            rotation_quaternions(np.zeros(shape))


class TestOrbitDraw:
    """``orbit_draw`` against ``sample_batch(...).apply``."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_norms_preserved_and_zero_rows_stay_zero(self, d):
        rng = np.random.default_rng(30 + d)
        X = rng.standard_normal((500, d)) * rng.uniform(1e-3, 1e3, (500, 1))
        X[[7, 123]] = 0.0
        out = orbit_draw(so(d), X, rng)
        assert out.shape == X.shape
        np.testing.assert_allclose(np.linalg.norm(out, axis=1),
                                   np.linalg.norm(X, axis=1), rtol=1e-12)
        assert np.array_equal(out[[7, 123]], np.zeros((2, d)))

    @pytest.mark.parametrize("d", [2, 4, 9, 130])
    def test_rows_are_rescaled_gaussians_bit_for_bit(self, d):
        # each row is the generator's Gaussian row g times |x| / |g|, with
        # both norms as np.linalg.norm takes them
        X = np.random.default_rng(60 + d).standard_normal((11, d))
        g = np.random.default_rng(61).standard_normal((3, 11, d))
        expect = g * (np.linalg.norm(X, axis=1) / np.linalg.norm(g, axis=2))[..., None]
        got = orbit_draw(so(d), X, np.random.default_rng(61), 3)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_same_law_as_rotating_each_row(self, d):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(40 + d)
        X = rng.standard_normal((100_000, d)) + np.eye(d)[0] * 2.0
        new = orbit_draw(so(d), X, np.random.default_rng(1))
        old = sample_batch(so(d), np.random.default_rng(2), len(X)).apply(X)
        v = np.arange(1.0, d + 1.0) / np.linalg.norm(np.arange(1.0, d + 1.0))
        unit = lambda Y: Y / np.linalg.norm(Y, axis=1, keepdims=True)
        # the image direction on a fixed projection, and its cosine with the row
        assert ks_2samp(unit(new) @ v, unit(old) @ v).pvalue > 0.001
        cos = lambda Y: np.sum(unit(X) * unit(Y), axis=1)
        assert ks_2samp(cos(new), cos(old)).pvalue > 0.001

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(50)
        for d in (2, 3, 4):
            with pytest.raises(DimensionMismatch):
                orbit_draw(so(d), rng.standard_normal((5, d + 1)), rng)
        with pytest.raises(DimensionMismatch):
            orbit_draw(so(3), rng.standard_normal(3), rng)

    @pytest.mark.parametrize("spec", [so(3), sym(3), trivial(3)], ids=str)
    def test_bad_input_raises(self, spec):
        X = np.random.default_rng(53).standard_normal((6, 3))
        with pytest.raises(BadParameters):
            orbit_draw(spec, X, None)
        with pytest.raises(BadParameters):
            sample_batch(spec, None, 6)
        for bad in (np.nan, np.inf):
            X[2, 1] = bad
            with pytest.raises(BadParameters):
                orbit_draw(spec, X, np.random.default_rng(54))

    @pytest.mark.parametrize("spec", [
        sym(4), paired_so2(), so2xso2(), discrete_rotations(24.0, 3, axis=3),
        trivial(4), trivial(),
    ], ids=str)
    def test_other_families_apply_a_sampled_batch(self, spec):
        X = np.random.default_rng(51).standard_normal((30, spec.dim or 4))
        out = orbit_draw(spec, X, np.random.default_rng(52))
        batch = sample_batch(spec, np.random.default_rng(52), 30)
        assert np.array_equal(out, batch.apply(X))

    @pytest.mark.parametrize("spec", [
        so(3), sym(5), trivial(3), paired_so2(), so2xso2(),
        discrete_rotations(90.0, 2), discrete_rotations(24.0, 3, axis=3),
    ], ids=str)
    @pytest.mark.parametrize("count", [1, 5])
    def test_stacked_draw_equals_single_draws(self, spec, count):
        # one stacked draw of count copies must be the count single draws on
        # the same seed and leave the generator where they leave it; odd n,
        # so that no draw falls on a boundary of paired generator words
        n = 7
        X = np.random.default_rng(55).standard_normal((n, spec.dim))
        rng, ref_rng = np.random.default_rng(56), np.random.default_rng(56)
        stack = orbit_draw(spec, X, rng, count)
        assert stack.shape == (count, n, spec.dim)
        singles = np.stack([orbit_draw(spec, X, ref_rng) for _ in range(count)])
        assert np.array_equal(stack, singles)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# one family of each kind of fixed subspace: none, the ones direction, an
# axis of R^3 (each of the three), and all of the space
ORBIT_RULE_SPECS = [
    so(2), so(4), sym(5), paired_so2(), so2xso2(), discrete_rotations(90.0, 2),
    *(discrete_rotations(120.0, 3, axis=k) for k in (1, 2, 3)),
    discrete_rotations(360.0, 2), trivial(3),
]


class TestOrbitBandwidth:
    """``orbit_bandwidth``, the bandwidth of ``rbf(median)`` in the invariance tests."""

    @pytest.mark.parametrize("spec", ORBIT_RULE_SPECS, ids=str)
    def test_the_same_on_every_orbit_copy(self, spec):
        # rows off the origin, so that every fixed part is nonzero
        rng = np.random.default_rng(70)
        X = rng.standard_normal((40, spec.dim)) + 0.7
        want = orbit_bandwidth(spec, X)
        for copy in orbit_draw(spec, X, rng, 5):
            assert orbit_bandwidth(spec, copy) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", ORBIT_RULE_SPECS, ids=str)
    def test_square_is_the_haar_mean_square_distance(self, spec):
        # for two points the median is sqrt(E|g x - h y|^2) itself
        rng = np.random.default_rng(71)
        x, y = rng.standard_normal((2, spec.dim)) + np.linspace(-0.8, 1.3, spec.dim)
        mean, se = orbit_sq_distance(spec, x, y, rng)
        closed = orbit_bandwidth(spec, np.stack([x, y])) ** 2
        assert abs(mean - closed) <= 4.0 * se + 1e-12 * closed

    @pytest.mark.parametrize("spec,d", [
        (trivial(3), 3), (trivial(), 10), (discrete_rotations(360.0, 2), 2),
        (discrete_rotations(360.0, 3, axis=2), 3),
    ], ids=str)
    def test_a_trivial_action_gives_the_median_heuristic(self, spec, d):
        X = np.random.default_rng(72).standard_normal((30, d))
        X[5] = X[0]  # one duplicate row
        assert orbit_bandwidth(spec, X) == median_heuristic(X)

    def test_rotations_read_the_row_norms_only(self):
        # with no fixed subspace the pair value is sqrt(|x_i|^2 + |x_j|^2)
        X = np.array([[3.0, 4.0], [0.0, 1.0], [1.0, 0.0]])
        assert orbit_bandwidth(so(2), X) == np.sqrt(26.0)

    @pytest.mark.parametrize("spec", [so(3), sym(3), trivial(3)], ids=str)
    def test_bad_input_raises(self, spec):
        X = np.random.default_rng(73).standard_normal((6, 3))
        with pytest.raises(SampleTooSmall):
            orbit_bandwidth(spec, X[:1])
        with pytest.raises(DimensionMismatch):
            orbit_bandwidth(spec, X[:, :2])
        with pytest.raises(AllPointsIdentical):
            orbit_bandwidth(spec, np.zeros((6, 3)))
        for bad in (np.nan, np.inf):
            X[2, 1] = bad
            with pytest.raises(BadParameters, match="NaN or infinite"):
                orbit_bandwidth(spec, X)


class TestOrbits:
    def test_selector_so(self):
        x = np.array([3.0, 4.0])
        np.testing.assert_allclose(_gamma(so(2), x), [5.0, 0.0])

    def test_selector_sym(self):
        x = np.array([3.0, 1.0, 2.0])
        np.testing.assert_allclose(_gamma(sym(3), x), [1.0, 2.0, 3.0])

    def test_selector_invariant_under_action(self):
        rng = np.random.default_rng(12)
        for spec in (so(4), sym(4), paired_so2(), so2xso2()):
            x = rng.standard_normal(4)
            gx = sample_batch(spec, rng, 1).apply(x[None])[0]
            np.testing.assert_allclose(
                _gamma(spec, gx), _gamma(spec, x), atol=1e-9,
            )

    def test_selector_idempotent(self):
        rng = np.random.default_rng(13)
        for spec in (so(3), sym(5)):
            x = rng.standard_normal(spec.dim)
            gam = _gamma(spec, x)
            np.testing.assert_allclose(_gamma(spec, gam), gam, atol=1e-12)

    def test_tau_frozen_example_so3(self):
        # the rotation carrying 2*e1 to (0, 0, 2) swaps the first and third
        # axes with the sign pattern of a quarter turn in that plane
        tau = representative_inversion(so(3), np.array([0.0, 0.0, 2.0]))
        expected = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(tau.data[0], expected, atol=1e-12)

    def test_tau_inverts_selector(self):
        rng = np.random.default_rng(14)
        for spec in (so(2), so(3), so(6), sym(5), paired_so2(), so2xso2()):
            for _ in range(20):
                x = rng.standard_normal(spec.dim)
                gam = _gamma(spec, x)
                tau = representative_inversion(spec, x)
                np.testing.assert_allclose(act_rows(tau, gam[None])[0], x, atol=1e-9)

    def test_tau_equivariant_free_actions(self):
        # tau(g x) == g tau(x), row by row
        rng = np.random.default_rng(15)
        for spec in (so(2), sym(6)):
            X = rng.standard_normal((50, spec.dim))
            g = sample_batch(spec, rng, 50)
            lhs = tau_batch(spec, g.apply(X)).data
            if spec.family == "so":
                rhs = g.data @ tau_batch(spec, X).data
                np.testing.assert_allclose(lhs, rhs, atol=1e-9)
            else:
                np.testing.assert_array_equal(lhs, composed(g, tau_batch(spec, X)))

    def test_tau_equivariant_up_to_stabiliser(self):
        # for d >= 3 the action has stabilisers, so tau is equivariant only
        # modulo elements fixing e1: tau(gx)^-1 g tau(x) must fix e1
        rng = np.random.default_rng(15)
        X = rng.standard_normal((50, 3))
        g = sample_batch(so(3), rng, 50)
        lhs = tau_batch(so(3), g.apply(X)).data
        rhs = g.data @ tau_batch(so(3), X).data
        h = np.swapaxes(lhs, 1, 2) @ rhs
        np.testing.assert_allclose(
            h[:, :, 0], np.tile(np.eye(3)[0], (50, 1)), atol=1e-9
        )

    def test_tau_ties_use_stable_order(self):
        tau = representative_inversion(sym(4), np.array([2.0, 1.0, 1.0, 0.0]))
        # positions of the sorted values, earliest original index first
        assert list(tau.data[0]) == [3, 1, 2, 0]

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            representative_inversion(so(3), np.zeros(3))
        with pytest.raises(ZeroVector):
            representative_inversion(paired_so2(), np.array([0, 0, 1, 1.0]))

    def test_negative_axis_point_is_handled(self):
        x = np.array([-2.0, 0.0, 0.0])
        tau = representative_inversion(so(3), x)
        np.testing.assert_allclose(tau.data[0] @ [2.0, 0.0, 0.0], x, atol=1e-12)

    def test_unsupported_selector(self):
        with pytest.raises(UnsupportedFamily):
            _gamma(discrete_rotations(24.0, 2), np.ones(2))

    def test_inversion_sample_stabiliser_fixes_e1(self):
        rng = np.random.default_rng(16)
        for d in (3, 4, 7):
            x = rng.standard_normal(d)
            tau = representative_inversion(so(d), x)
            draw = inversion_kernel_sample(so(d), x, rng)
            h = tau.data[0].T @ draw.data[0]
            e1 = np.eye(d)[0]
            np.testing.assert_allclose(h[0], e1, atol=1e-12)
            np.testing.assert_allclose(h[:, 0], e1, atol=1e-12)

    def test_inversion_sample_still_inverts(self):
        rng = np.random.default_rng(17)
        for spec in (so(2), so(3), so(5), sym(6)):
            x = rng.standard_normal(spec.dim)
            g = inversion_kernel_sample(spec, x, rng)
            gam = _gamma(spec, x)
            np.testing.assert_allclose(act_rows(g, gam[None])[0], x, atol=1e-9)

    def test_inversion_sample_free_action_is_tau(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(2)
        g = inversion_kernel_sample(so(2), x, rng)
        np.testing.assert_allclose(
            g.data, representative_inversion(so(2), x).data, atol=1e-12
        )


class TestBatchOrbits:
    SPECS = [so(2), so(5), sym(6), paired_so2(), so2xso2()]
    IDS = ["so2", "so5", "sym6", "paired-so2", "so2xso2"]

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_tau_inverts_gamma(self, spec):
        X = np.random.default_rng(20).standard_normal((500, spec.dim))
        if spec.family == "so":  # rows on the negative and positive e1 axis
            X[:2, 1:] = 0.0
            X[:2, 0] = [-2.0, 3.0]
        tau = tau_batch(spec, X)
        np.testing.assert_allclose(tau.apply(gamma_batch(spec, X)), X, atol=1e-12)

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_apply_inverse_undoes_apply(self, spec):
        rng = np.random.default_rng(21)
        tau = tau_batch(spec, rng.standard_normal((500, spec.dim)))
        Y = rng.standard_normal((500, spec.dim))
        np.testing.assert_allclose(tau.apply_inverse(tau.apply(Y)), Y, atol=1e-12)

    @pytest.mark.parametrize("spec", [so(2), so(5), paired_so2(), so2xso2()],
                             ids=["so2", "so5", "paired-so2", "so2xso2"])
    def test_zero_row_in_batch_raises(self, spec):
        X = np.random.default_rng(22).standard_normal((6, spec.dim))
        X[4] = 0.0
        with pytest.raises(ZeroVector):
            tau_batch(spec, X)


class TestMaximalInvariants:
    def test_norm(self):
        out = _invariant(so(2), "norm", np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [5.0])

    def test_sorted(self):
        out = _invariant(sym(3), "sorted", np.array([2.0, 0.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0])

    def test_minkowski_q(self):
        out = _invariant(trivial(4), "minkowski-q",
                                np.array([5.0, 1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [11.0])
        two = _invariant(
            trivial(8), "minkowski-q",
            np.array([5.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0]),
        )
        # p1^2, p1 . p2 and p2^2
        np.testing.assert_allclose(two, [11.0, 20.0, 16.0])

    def test_minkowski_q_is_lorentz_invariant(self):
        # one boost and one rotation hit both four-vectors of every row
        rng = np.random.default_rng(31)
        p = rng.normal(size=(20, 2, 4))
        p[..., 0] = np.linalg.norm(p[..., 1:], axis=2) + rng.uniform(0.1, 2.0, (20, 2))
        rotation = np.eye(4)
        rotation[1:, 1:] = haar_rotations(3, 1, rng)[0]
        move = lorentz_boost([0.5, -0.3, 0.6]) @ rotation
        before = invariant_batch(trivial(8), "minkowski-q", p.reshape(20, 8))
        after = invariant_batch(trivial(8), "minkowski-q", (p @ move.T).reshape(20, 8))
        assert before.shape == (20, 3)
        np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-9)
        # each four-vector moved on its own changes p1 . p2
        apart = np.concatenate([p[:, 0] @ move.T, p[:, 1]], axis=1)
        moved = invariant_batch(trivial(8), "minkowski-q", apart)
        np.testing.assert_allclose(moved[:, [0, 2]], before[:, [0, 2]],
                                   rtol=1e-9, atol=1e-9)
        assert not np.allclose(moved[:, 1], before[:, 1])

    def test_per_block_norm(self):
        out = _invariant(so2xso2(), "per-block-norm",
                                np.array([3.0, 4.0, 0.0, 2.0]))
        np.testing.assert_allclose(out, [5.0, 2.0])

    def test_paired_rotation(self):
        out = _invariant(paired_so2(), "paired-rotation",
                                np.array([1.0, 0.0, 0.0, 2.0]))
        np.testing.assert_allclose(out, [1.0, 2.0, 0.0, 1.0])

    def test_invariance_under_action(self):
        rng = np.random.default_rng(19)
        cases = [
            (so(4), "norm"), (sym(4), "sorted"),
            (so2xso2(), "per-block-norm"), (paired_so2(), "paired-rotation"),
        ]
        for spec, kind in cases:
            x = rng.standard_normal(4)
            gx = sample_batch(spec, rng, 1).apply(x[None])[0]
            np.testing.assert_allclose(
                _invariant(spec, kind, gx),
                _invariant(spec, kind, x),
                atol=1e-9,
            )

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedKind):
            _invariant(so(2), "angle", np.ones(2))
