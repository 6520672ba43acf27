import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from kernel_reference import (
    eval_kernel,
    median_heuristic_by_rows,
    pair_values,
    so3_from_trace,
    so3_gram,
    so3_trace,
)

from symtest import (
    DiscreteDelta,
    GaussianRBF,
    RotationKernelSO3,
    center,
    gram,
    median_heuristic,
    parse_kernel,
)
from symtest.errors import (
    AllPointsIdentical,
    BadParameters,
    DimensionMismatch,
    InvalidRotation,
    SampleTooSmall,
    UnsupportedKind,
)
from symtest import kernels
from symtest.groups import (
    FAMILIES,
    discrete_rotations,
    haar_quaternions,
    haar_rotations,
    paired_so2,
    rotation_quaternions,
    sample_batch,
    so,
    so2xso2,
    sym,
    trivial,
)
from symtest.kernels import _so3_from_cos


def axis_rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


class TestRbf:
    def test_unit_at_zero_distance(self):
        k = GaussianRBF(2.0)
        assert eval_kernel(k, np.ones(3), np.ones(3)) == 1.0

    def test_frozen_value(self):
        # distance sqrt(2), sigma 1 -> exp(-1)
        k = GaussianRBF(1.0)
        v = eval_kernel(k, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert v == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_gram_matches_eval(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        Y = rng.standard_normal((4, 3))
        k = GaussianRBF(1.3)
        K = gram(k, X, Y)
        for i in range(6):
            for j in range(4):
                assert K[i, j] == pytest.approx(
                    eval_kernel(k, X[i], Y[j]), rel=1e-12
                )

    def test_gram_psd(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 5))
        K = gram(GaussianRBF(0.8), X)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        assert np.linalg.eigvalsh(K).min() > -1e-10

    def test_unresolved_bandwidth_fails(self):
        with pytest.raises(BadParameters):
            gram(GaussianRBF(None), np.zeros((3, 2)))

    def test_bad_bandwidth(self):
        with pytest.raises(BadParameters):
            GaussianRBF(0.0)

    def test_non_finite_bandwidth(self):
        # an infinite bandwidth sets every kernel value to 1
        for bad in (np.inf, np.nan):
            with pytest.raises(BadParameters, match="finite"):
                GaussianRBF(bad)
        with pytest.raises(BadParameters, match="finite"):
            parse_kernel("rbf(1e400)")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gram(GaussianRBF(1.0), np.zeros((3, 2)), np.zeros((3, 4)))

    def test_accepts_matrix_valued_points(self):
        # stacks of matrices are treated as flattened vectors
        rng = np.random.default_rng(2)
        stack = haar_rotations(2, 5, rng)
        K = gram(GaussianRBF(1.0), stack)
        flat = stack.reshape(5, -1)
        np.testing.assert_allclose(K, gram(GaussianRBF(1.0), flat), atol=1e-14)

    def test_huge_distances_underflow_to_zero(self):
        k = GaussianRBF(1e-3)
        X = np.array([[0.0], [1.0]])
        K = gram(k, X)
        assert K[0, 1] == 0.0 and K[0, 0] == 1.0


def quats(*mats):
    """Unit quaternions of one or more rotation matrices."""
    return rotation_quaternions(np.array(mats, dtype=float))


def so3_value(a, b):
    """The rotation kernel at one pair of rotation matrices, through gram."""
    return gram(RotationKernelSO3(), quats(a), quats(b))[0, 0]


class TestRotationKernel:
    def test_value_at_identity(self):
        v = so3_value(np.eye(3), np.eye(3))
        assert v == pytest.approx(np.pi**2 / 8.0, rel=1e-12)

    def test_quarter_turn_closed_form(self):
        # rotation angle pi/2 -> half-angle pi/4:
        # k = pi * (pi/4) * (3pi/4) / (8 * sin(pi/4)) = 3 sqrt(2) pi^3 / 128
        v = so3_value(axis_rotation(np.pi / 2), np.eye(3))
        assert v == pytest.approx(3.0 * np.sqrt(2.0) * np.pi**3 / 128.0, rel=1e-12)

    def test_generic_angle_closed_form(self):
        for phi in (0.3, 1.2, 2.9):
            v = so3_value(axis_rotation(phi), np.eye(3))
            half = phi / 2.0
            expect = np.pi * half * (np.pi - half) / (8 * np.sin(half))
            assert v == pytest.approx(expect, rel=1e-12)

    def test_stable_near_zero_angle(self):
        for phi in (1e-9, 1e-7, 1e-5):
            v = so3_value(axis_rotation(phi), np.eye(3))
            assert np.isfinite(v)
            assert v == pytest.approx(np.pi**2 / 8.0, rel=1e-5)

    def test_half_turn_closed_form(self):
        # rotation angle pi -> half-angle pi/2: k = pi^3 / 32
        for phi in (np.pi, np.pi - 1e-9):
            v = so3_value(axis_rotation(phi), np.eye(3))
            assert v == pytest.approx(np.pi**3 / 32.0, rel=1e-6)

    def test_invariance_under_left_translation(self):
        rng = np.random.default_rng(3)
        a, b, q = haar_rotations(3, 3, rng)
        v1 = so3_value(a, b)
        v2 = so3_value(q @ a, q @ b)
        assert v1 == pytest.approx(v2, rel=1e-9)

    def test_gram_matches_eval(self):
        rng = np.random.default_rng(4)
        stack = haar_rotations(3, 5, rng)
        k = RotationKernelSO3()
        K = gram(k, rotation_quaternions(stack))
        for i in range(5):
            for j in range(5):
                if i == j:
                    # the exact value; the matrix reference's trace can
                    # round below 3 here, which moves its value by 6e-9
                    assert K[i, j] == pytest.approx(np.pi**2 / 8.0, rel=1e-12)
                    continue
                assert K[i, j] == pytest.approx(
                    eval_kernel(k, stack[i], stack[j]), rel=1e-12
                )

    def test_gram_psd(self):
        rng = np.random.default_rng(5)
        stack = haar_rotations(3, 30, rng)
        K = gram(RotationKernelSO3(), rotation_quaternions(stack))
        assert np.linalg.eigvalsh(K).min() > -1e-8

    def test_rejects_matrices(self):
        # the kernel's points are (n, 4) quaternions, not rotation matrices
        stack = haar_rotations(3, 5, np.random.default_rng(6))
        for bad in (stack, stack.reshape(5, 9), np.zeros(4)):
            with pytest.raises(InvalidRotation):
                gram(RotationKernelSO3(), bad)
        with pytest.raises(InvalidRotation):
            gram(RotationKernelSO3(), rotation_quaternions(stack), stack)

    def test_rejects_quaternions_off_unit_norm(self):
        # unnormalised rows would clip every cosine to 1 and give pi^2/8
        q = rotation_quaternions(haar_rotations(3, 3, np.random.default_rng(7)))
        k = RotationKernelSO3()
        for bad in (2 * q, q * (1 + 2e-8), np.where(np.eye(3, 4) > 0, np.nan, q)):
            with pytest.raises(InvalidRotation, match="unit norm"):
                gram(k, bad)
            with pytest.raises(InvalidRotation, match="unit norm"):
                gram(k, q, bad)
        # a norm off 1 by less than the tolerance is accepted
        near = q * (1 + 5e-9)
        assert np.all(np.isfinite(gram(k, near, q))) and np.all(np.isfinite(gram(k, near)))


def _near(stack, angles, rng):
    """Each rotation of the stack composed with a rotation by a tiny angle."""
    axes = rng.standard_normal((len(stack), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    out = []
    for m, a, phi in zip(stack, axes, angles):
        k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
        r = np.eye(3) + np.sin(phi) * k + (1 - np.cos(phi)) * (k @ k)
        out.append(m @ r)
    return np.array(out)


def _half_turns():
    """The identity and the half-turns about each coordinate axis."""
    turns = [np.eye(3)]
    for axis in range(3):
        m = -np.eye(3)
        m[axis, axis] = 1.0
        turns.append(m)
    return np.array(turns)


class TestRotationGramReference:
    """The quaternion Gram against the matrix einsum-plus-mask reference."""

    def test_generic_pairs(self):
        rng = np.random.default_rng(40)
        k = RotationKernelSO3()
        for n, m in ((60, 45), (100, 100)):
            A, B = haar_rotations(3, n, rng), haar_rotations(3, m, rng)
            ref = so3_gram(A, B)
            half = np.arccos(np.sqrt(np.clip((1 + so3_trace(A, B)) / 4, 0, 1)))
            far = half >= 1e-3
            assert far.mean() > 0.99
            qa, qb = rotation_quaternions(A), rotation_quaternions(B)
            np.testing.assert_allclose(gram(k, qa, qb)[far], ref[far], rtol=1e-12)
            np.testing.assert_allclose(gram(k, qa), so3_gram(A), rtol=1e-12, atol=1e-7)

    def test_identical_and_near_identical(self):
        rng = np.random.default_rng(41)
        k = RotationKernelSO3()
        A = haar_rotations(3, 40, rng)
        qa = rotation_quaternions(A)
        np.testing.assert_allclose(np.diag(gram(k, qa)), np.diag(so3_gram(A)),
                                   rtol=0, atol=1e-7)
        np.testing.assert_allclose(np.diag(gram(k, qa, qa.copy())), np.pi**2 / 8,
                                   rtol=0, atol=1e-7)
        angles = np.geomspace(1e-10, 2e-3, 40)
        B = _near(A, angles, rng)
        np.testing.assert_allclose(
            np.diag(gram(k, qa, rotation_quaternions(B))), np.diag(so3_gram(A, B)),
            rtol=0, atol=1e-7,
        )

    def test_quaternion_sign_does_not_matter(self):
        # q and -q are one rotation, so they give the same kernel values
        rng = np.random.default_rng(42)
        k = RotationKernelSO3()
        A = haar_rotations(3, 30, rng)
        qa = rotation_quaternions(A)
        np.testing.assert_array_equal(gram(k, qa, -qa), gram(k, qa, qa.copy()))
        np.testing.assert_allclose(np.diag(gram(k, qa, -qa)), np.pi**2 / 8,
                                   rtol=0, atol=1e-7)

    def test_half_turns_and_their_neighbours(self):
        # every branch of Shepperd's conversion, the identity and rotations
        # within 1e-10 rad of each half-turn
        rng = np.random.default_rng(43)
        k = RotationKernelSO3()
        turns = _half_turns()
        A = np.concatenate([turns, _near(turns, np.full(4, 1e-10), rng),
                            _near(turns, np.full(4, 1e-5), rng),
                            haar_rotations(3, 20, rng)])
        qa = rotation_quaternions(A)
        assert set(np.argmax(np.abs(qa[:4]), axis=1)) == {0, 1, 2, 3}
        ref = so3_gram(A)
        K = gram(k, qa)
        np.testing.assert_allclose(K, ref, rtol=1e-12, atol=1e-7)
        half = np.arccos(np.sqrt(np.clip((1 + so3_trace(A, A)) / 4, 0, 1)))
        far = half >= 1e-3
        np.testing.assert_allclose(K[far], ref[far], rtol=1e-12)

    def test_kernel_value_matches_masked_reference(self):
        # trace values across [-1, 3], both sides of the theta = 1e-6 switch
        tr = np.concatenate([
            np.linspace(-1.0, 3.0, 2001),
            3.0 - np.geomspace(1e-16, 1e-4, 200),
        ])
        c = np.sqrt(np.clip((1.0 + tr) / 4.0, 0.0, 1.0))
        np.testing.assert_allclose(_so3_from_cos(c), so3_from_trace(tr), rtol=1e-12)

    def test_in_place_form_is_bit_identical(self):
        # _so3_from_cos forms its terms in place; the values must equal the
        # plain expressions exactly, and the caller's array stay as it was
        c = np.concatenate([np.linspace(-0.1, 1.1, 1001),
                            1.0 - np.geomspace(1e-16, 1e-4, 200)])
        before = c.copy()
        clipped = np.clip(c, 0.0, 1.0)
        theta = np.arccos(clipped)
        sin = np.sqrt((1.0 - clipped) * (1.0 + clipped))
        ratio = np.divide(theta, sin, out=1.0 + theta**2 / 6.0, where=theta >= 1e-6)
        np.testing.assert_array_equal(
            _so3_from_cos(c), np.pi / 8.0 * (np.pi - theta) * ratio)
        np.testing.assert_array_equal(c, before)

    def test_accurate_on_both_sides_of_the_series_switch(self):
        # near theta = 1e-6 the series for theta / sin(theta) is exact to
        # rounding, so both branches must agree with it
        tr = 3.0 - np.linspace(3.8e-12, 4.2e-12, 201)
        c = np.sqrt((1.0 + tr) / 4.0)
        theta = np.arccos(c)
        assert theta.min() < 1e-6 < theta.max()
        expect = np.pi / 8 * (np.pi - theta) * (1 + theta**2 / 6)
        np.testing.assert_allclose(_so3_from_cos(c), expect, rtol=1e-14)


class TestDelta:
    def test_eval(self):
        k = DiscreteDelta()
        assert eval_kernel(k, np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 1.0
        assert eval_kernel(k, np.array([1.0, 2.0]), np.array([1.0, 2.5])) == 0.0

    def test_gram(self):
        k = DiscreteDelta()
        X = np.array([[0.0], [1.0], [0.0]])
        K = gram(k, X)
        np.testing.assert_allclose(K, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])


def one_sample_sum(kernel, X):
    return kernels.pair_sums(kernel, np.asarray(X)[None])[0]


class TestPairValues:
    # one sample's pair sum against the sum of the pairs of its Gram's upper
    # triangle (the reference pair_values): bit for bit up to n = 128, where
    # pair_sums takes one row block, and to rounding above

    @staticmethod
    def check(kernel, X):
        got, expect = one_sample_sum(kernel, X), pair_values(kernel, X).sum()
        if len(X) <= 128:
            assert got == expect
        else:
            assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 17, 200])
    @pytest.mark.parametrize("bandwidth", [1.0, 0.1])
    def test_rbf(self, n, bandwidth):
        # at bandwidth 0.1 most exponents lie past -708, where gram clamps
        X = np.random.default_rng(n).normal(size=(n, 3))
        self.check(GaussianRBF(bandwidth), X)

    def test_rbf_clamp_is_reached(self):
        X = np.random.default_rng(200).normal(size=(200, 3))
        values = pair_values(GaussianRBF(0.1), X)
        assert (values == 0.0).any() and (values > 0.0).any()
        self.check(GaussianRBF(0.1), X)

    @pytest.mark.parametrize("n", [2, 3, 17, 200])
    def test_so3_with_a_duplicate_row(self, n):
        Q = haar_quaternions(n, np.random.default_rng(n))
        Q[-1] = Q[0]  # a half-angle below 1e-6, on the series branch
        k = RotationKernelSO3()
        assert pair_values(k, Q)[n - 2] == pytest.approx(np.pi**2 / 8.0, rel=1e-14)
        self.check(k, Q)

    @pytest.mark.parametrize("n", [2, 3, 17, 200])
    def test_delta(self, n):
        X = np.random.default_rng(n).integers(0, 3, size=(n, 2)).astype(float)
        self.check(DiscreteDelta(), X)

    def test_rejects_what_gram_rejects(self):
        with pytest.raises(BadParameters):
            one_sample_sum(GaussianRBF(), np.zeros((3, 2)))
        with pytest.raises(InvalidRotation):
            one_sample_sum(RotationKernelSO3(), np.full((3, 4), 0.6))


class TestPairSums:
    # each stacked sum of samples of n <= 128 (one row block) must equal the
    # per-sample pair_values(...).sum() bit for bit

    @staticmethod
    def per_sample(kernel, stack):
        return np.array([pair_values(kernel, s).sum() for s in stack])

    @pytest.mark.parametrize("kernel,stack", [
        (GaussianRBF(1.3), np.random.default_rng(60).normal(size=(4, 17, 3))),
        (GaussianRBF(0.8), haar_rotations(3, 4 * 13, np.random.default_rng(61))
         .reshape(4, 13, 3, 3)),
        (GaussianRBF(2.0), sample_batch(sym(5), np.random.default_rng(62), 4 * 15)
         .data.reshape(4, 15, 5)),
        (RotationKernelSO3(), haar_quaternions(4 * 19, np.random.default_rng(63))
         .reshape(4, 19, 4)),
        (DiscreteDelta(), np.random.default_rng(64).integers(0, 3, size=(4, 11, 2))),
        # repeated rows, and a -0.0 that == takes as equal to 0.0
        (DiscreteDelta(), np.array([[[0.0, 1.0], [-0.0, 1.0], [2.0, 2.0], [0.0, 1.0],
                                     [2.0, 2.0], [1.0, 0.0]]] * 4)),
    ], ids=["rbf-points", "rbf-rotations", "rbf-permutations", "so3", "delta",
            "delta-signed-zero"])
    def test_equal_to_the_sum_of_pair_values(self, kernel, stack):
        expect = self.per_sample(kernel, stack)
        assert np.array_equal(kernels.pair_sums(kernel, stack), expect)
        for lo, hi in [(0, 4), (0, 1), (1, 4), (3, 4)]:
            # a full stack, a stack of one and shorter stacks
            got = kernels.pair_sums(kernel, stack[lo:hi])
            assert np.array_equal(got, expect[lo:hi])

    def test_clamp_path(self):
        # at bandwidth 0.1 most exponents lie past -708; a copy scaled to
        # 1e-3 has none there, and its sum must not see the clamp
        stack = np.random.default_rng(65).normal(size=(3, 40, 3))
        stack[1] *= 1e-3
        k = GaussianRBF(0.1)
        assert np.array_equal(kernels.pair_sums(k, stack), self.per_sample(k, stack))
        assert np.array_equal(kernels.pair_sums(k, stack[1:2]),
                              self.per_sample(k, stack[1:2]))

    def test_work_arrays_follow_the_sample_size(self):
        k = GaussianRBF(1.0)
        rng = np.random.default_rng(66)
        for shape in [(2, 30, 3), (4, 10, 3), (1, 50, 3), (3, 2, 3)]:
            stack = rng.normal(size=shape)
            got = kernels.pair_sums(k, stack)
            assert np.array_equal(got, self.per_sample(k, stack))

    @pytest.mark.parametrize("kernel,d", [
        (GaussianRBF(1.0), 3), (RotationKernelSO3(), 4), (DiscreteDelta(), 2),
    ], ids=["rbf", "so3", "delta"])
    def test_an_empty_stack_gives_an_empty_array(self, kernel, d):
        for n in (0, 5):
            got = kernels.pair_sums(kernel, np.zeros((0, n, d)))
            assert got.shape == (0,) and got.dtype == float

    @pytest.mark.parametrize("kernel,d", [
        (GaussianRBF(1.0), 3), (RotationKernelSO3(), 4), (DiscreteDelta(), 2),
    ], ids=["rbf", "so3", "delta"])
    def test_samples_of_no_rows_give_zeros(self, kernel, d):
        got = kernels.pair_sums(kernel, np.zeros((3, 0, d)))
        assert got.dtype == float and got.tolist() == [0.0, 0.0, 0.0]

    def test_a_non_unit_quaternion_in_any_copy_raises(self):
        stack = haar_quaternions(3 * 10, np.random.default_rng(67)).reshape(3, 10, 4)
        stack[2, 4] *= 1.001
        with pytest.raises(InvalidRotation):
            kernels.pair_sums(RotationKernelSO3(), stack)
        with pytest.raises(InvalidRotation):
            kernels.pair_sums(RotationKernelSO3(), stack[:, :, :3])


def along_a_line(positions, d=3):
    """Points at the given positions along a unit vector of R^d."""
    u = np.random.default_rng(70).normal(size=d)
    return np.multiply.outer(positions, u / np.linalg.norm(u))


def bandwidth_of(exponent, distance):
    """The RBF bandwidth at which two points ``distance`` apart have ``exponent``."""
    return GaussianRBF(distance / np.sqrt(-2.0 * exponent))


class TestClampBound:
    # pair_sums scans a copy group's exponents for the clamp at -708 only
    # when 4 min(-c |x|^2), a lower bound of them, is not above -700; on
    # either side of the bound, and in a stack where one group clamps and
    # the others do not, each sum is that of pair_values: bit for bit up to
    # n = 128 (one row block) and to rounding above

    @staticmethod
    def check(kernel, stack):
        got = kernels.pair_sums(kernel, stack)
        expect = [pair_values(kernel, s).sum() for s in stack]
        if stack.shape[1] <= 128:
            assert np.array_equal(got, expect)
        else:
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2, 40, 128, 129, 200])
    @pytest.mark.parametrize("bound", [-699.9, -708.1], ids=["idle", "clamps"])
    def test_on_either_side_of_the_bound(self, n, bound):
        # rows 0 and 1 at +-1, the rest between: 4 c max |x|^2 is -bound, and
        # the exponent of that pair is the bound itself, whose exp is a
        # normal number above -708 and clamped to 0 below
        positions = np.r_[1.0, -1.0, np.random.default_rng(n).uniform(-1, 1, n - 2)]
        X = along_a_line(positions)
        kernel = bandwidth_of(bound, 2.0)
        left = kernels._factors(kernel, X[None], lead=2)[0]
        assert 4.0 * left[..., -2].min() == pytest.approx(bound, rel=1e-14)
        assert (pair_values(kernel, X)[0] > 0.0) == (bound > -708.0)
        self.check(kernel, X[None])

    @pytest.mark.parametrize("n", [40, 200])
    @pytest.mark.parametrize("group", [0, 1, 2])
    def test_only_one_copy_group_clamps(self, n, group):
        # at c = 1 the clamping copy has rows +-s e_a, two to an axis a, with
        # s^2 = 352.5 on even axes and 360 on odd ones: rows on two axes meet at
        # exponents -705, -712.5 and -720, the last two clamped to 0 from
        # subnormal, and the two rows of an axis near -1420; the other copies
        # lie within exponents of -10, and their groups skip the scan
        step = kernels._STACK_COPIES
        kernel = GaussianRBF(np.sqrt(0.5))
        rows = np.arange(n)
        axis = rows // 2
        clamping = np.zeros((n, n // 2))
        clamping[rows, axis] = (-1.0) ** rows * np.sqrt(np.where(axis % 2, 360.0, 352.5))
        values = pair_values(kernel, clamping)
        assert (values == 0.0).any() and values.max() == pytest.approx(np.exp(-705.0))
        stack = 0.1 * np.random.default_rng(71).normal(size=(2 * step + 1, n, n // 2))
        stack[[step - 1, step + 1, 2 * step][group]] = clamping  # last, inside, alone
        self.check(kernel, stack)


class TestBlockRows:
    # above n = 128 pair_sums sums each sample's pairs over row blocks: a
    # rectangle against the later rows and the block's own triangle

    KERNELS = [GaussianRBF(1.0), GaussianRBF(0.1), RotationKernelSO3()]
    IDS = ["rbf", "rbf-clamp", "so3"]

    @staticmethod
    def stack(kernel, k, n, seed):
        rng = np.random.default_rng(seed)
        if isinstance(kernel, RotationKernelSO3):
            return haar_quaternions(k * n, rng).reshape(k, n, 4)
        return rng.normal(size=(k, n, 3))

    @pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
    @pytest.mark.parametrize("n", [129, 130, 159, 160, 161, 200, 241, 257, 1000])
    def test_equal_to_the_gram_upper_triangle_to_rounding(self, kernel, n):
        # row blocks of at most 40 rows from n = 129 on: four of 40 at 160, and
        # five of 33 or fewer at 161
        stack = self.stack(kernel, 2, n, n)
        expect = [pair_values(kernel, s).sum() for s in stack]
        np.testing.assert_allclose(kernels.pair_sums(kernel, stack), expect,
                                   rtol=1e-12, atol=0)

    def test_clamp_is_reached_in_a_rectangle(self):
        # the rbf-clamp case at n = 200: the rectangle of the first row block
        # against the later rows holds exponents past -708, clamped to a
        # value of 0, and others
        stack = self.stack(GaussianRBF(0.1), 2, 200, 200)
        lo, hi = next(kernels._row_blocks(200, kernels._BLOCK_ROWS))
        rect = gram(GaussianRBF(0.1), stack[0])[lo:hi, hi:]
        assert (rect == 0.0).any() and (rect > 0.0).any()

    @pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
    @pytest.mark.parametrize("n", [2, 64, 127, 128])
    def test_one_block_is_the_triangle_sum_bit_for_bit(self, kernel, n):
        stack = self.stack(kernel, 3, n, n)
        expect = [pair_values(kernel, s).sum() for s in stack]
        assert np.array_equal(kernels.pair_sums(kernel, stack), expect)

    @pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
    @pytest.mark.parametrize("n", [129, 200, 300])
    @pytest.mark.parametrize("k", [4, 2 * kernels._STACK_COPIES + 1])
    def test_a_copy_scores_alike_alone_and_at_every_stack_position(self, kernel, n, k):
        # a stack of 2 _STACK_COPIES + 1 puts the copy first, inside and last
        # in each of three groups
        others = self.stack(kernel, k - 1, n, n + 1)
        copy = self.stack(kernel, 1, n, n)
        alone = one_sample_sum(kernel, copy[0])
        for at in range(k):
            stack = np.concatenate([others[:at], copy, others[at:]])
            assert kernels.pair_sums(kernel, stack)[at] == alone

    @pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
    @pytest.mark.parametrize("k,n", [(2 * kernels._STACK_COPIES + 1, 200), (7, 2000)])
    def test_a_stack_of_several_groups_scores_each_copy_as_alone(self, kernel, k, n):
        # groups of 16, 16 and 1 copies at n = 200; of 3, 3 and 1 at 2,000
        stack = self.stack(kernel, k, n, k + n)
        got = kernels.pair_sums(kernel, stack)
        assert np.array_equal(got, [one_sample_sum(kernel, s) for s in stack])

    @pytest.mark.parametrize("kernel", [GaussianRBF(1.0), RotationKernelSO3()],
                             ids=["rbf", "so3"])
    def test_work_arrays_stay_within_the_block_rows(self, kernel):
        # at n = 2,000 a group holds 3 copies, so 6 copies allocate at most
        # the block-row buffers of three, 120 n values, three times over for
        # the rotation kernel's theta and sin, and one group's small factors;
        # the thread's work arrays are dropped first, so that they are counted
        k, n = 6, 2000
        stack = self.stack(kernel, k, n, 7)
        vars(kernels._WORK).clear()
        tracemalloc.start()
        try:
            kernels.pair_sums(kernel, stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 128 * n * 8

    def test_work_arrays_are_kept_from_call_to_call(self):
        # kept, they are not handed back to the system and faulted in anew
        stack = self.stack(GaussianRBF(1.0), 20, 300, 9)
        kernels.pair_sums(GaussianRBF(1.0), stack)
        kept = dict(vars(kernels._WORK))
        kernels.pair_sums(GaussianRBF(1.0), stack[:5])
        assert kept and all(vars(kernels._WORK)[name] is a for name, a in kept.items())

    def test_threads_score_on_work_arrays_of_their_own(self):
        kernel = GaussianRBF(1.0)
        stacks = [self.stack(kernel, 17, n, n) for n in (150, 300)]
        expect = [kernels.pair_sums(kernel, s) for s in stacks]
        with ThreadPoolExecutor(2) as pool:
            runs = [pool.submit(lambda s: [kernels.pair_sums(kernel, s) for _ in range(20)], s)
                    for s in stacks]
            for run, want in zip(runs, expect):
                assert all(np.array_equal(got, want) for got in run.result())

    def test_a_non_unit_quaternion_in_a_later_block_raises(self):
        stack = self.stack(RotationKernelSO3(), 2, 300, 8)
        stack[1, 250] *= 1.001
        with pytest.raises(InvalidRotation):
            kernels.pair_sums(RotationKernelSO3(), stack)


class TestMedianHeuristic:
    def test_frozen_example(self):
        # pairwise distances {1, 3, 2} -> median 2
        X = np.array([[0.0], [1.0], [3.0]])
        assert median_heuristic(X) == 2.0

    def test_identical_points(self):
        with pytest.raises(AllPointsIdentical):
            median_heuristic(np.ones((5, 2)))

    def test_too_small(self):
        with pytest.raises(SampleTooSmall):
            median_heuristic(np.ones((1, 2)))

    def test_mostly_duplicate_float_rows(self):
        # 18 copies of one non-integer row and 2 others: 153 of the 190
        # pairwise distances are exactly zero, so the median is zero
        rng = np.random.default_rng(3)
        for _ in range(50):
            rows = rng.normal(size=(3, 4)) * 10.0 ** rng.uniform(-3, 3)
            X = rows[np.r_[np.zeros(18, dtype=int), 1, 2]]
            with pytest.raises(AllPointsIdentical):
                median_heuristic(X[rng.permutation(20)])

    @pytest.mark.parametrize("block", [None, 1, 50])
    def test_bit_identical_to_row_loop(self, block, monkeypatch):
        if block is not None:  # force blocks of one row or a few rows
            monkeypatch.setattr(kernels, "_MEDIAN_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(8)
        for n, d in [(2, 1), (3, 2), (7, 3), (64, 3), (65, 9), (200, 4), (33, 40)]:
            X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
            if n > 2:
                X[n // 2] = X[0]  # one duplicate row
            assert median_heuristic(X) == median_heuristic_by_rows(X), (n, d)

    @pytest.mark.parametrize("block", [None, 1, 50])
    def test_wide_rows_bit_identical_to_row_loop(self, block, monkeypatch):
        # more than 128 columns, where numpy sums a row's squares in halves
        if block is not None:
            monkeypatch.setattr(kernels, "_MEDIAN_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(11)
        for n, d in [(20, 130), (9, 300)]:
            X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
            X[n // 2] = X[0]
            assert median_heuristic(X) == median_heuristic_by_rows(X), (n, d)

    def test_nan_distance_gives_nan_as_np_median_does(self):
        X = np.random.default_rng(10).normal(size=(9, 3))
        X[4, 1] = np.nan
        assert np.isnan(median_heuristic_by_rows(X))
        assert np.isnan(median_heuristic(X))

    @pytest.mark.parametrize("block", [None, 1, 50])
    def test_row_terms_match_a_pair_loop(self, block, monkeypatch):
        # the pair values sqrt(|X_i - X_j|^2 + t_i + t_j) of the orbit rule
        if block is not None:
            monkeypatch.setattr(kernels, "_MEDIAN_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(12)
        for n, d in [(2, 0), (3, 1), (64, 0), (200, 1), (65, 9)]:
            X, t = rng.normal(size=(n, d)), rng.uniform(0.0, 2.0, n)
            want = np.median([np.sqrt(np.sum((X[i] - X[j]) ** 2) + t[i] + t[j])
                              for i in range(n) for j in range(i + 1, n)])
            assert kernels._pair_median(X, t) == pytest.approx(want, rel=1e-15), (n, d)

    def test_resolving_a_non_finite_sample_raises_the_nan_message(self):
        X = np.random.default_rng(10).normal(size=(9, 3))
        for bad in (np.nan, np.inf):
            X[4, 1] = bad
            with pytest.raises(BadParameters, match="NaN or infinite"):
                kernels.resolve_bandwidth(GaussianRBF(None), X)
        # a resolved kernel is returned as it is, with no look at the sample
        assert kernels.resolve_bandwidth(GaussianRBF(2.0), X) == GaussianRBF(2.0)

    @pytest.mark.parametrize("block", [None, 1, 50])
    def test_duplicate_rows_raise_in_blocks(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(kernels, "_MEDIAN_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(3, 4)) * 1e-3
        X = rows[np.r_[np.zeros(18, dtype=int), 1, 2]][rng.permutation(20)]
        with pytest.raises(AllPointsIdentical):
            median_heuristic(X)
        with pytest.raises(AllPointsIdentical):
            median_heuristic_by_rows(X)


class TestCenter:
    def test_rows_and_columns_sum_to_zero(self):
        rng = np.random.default_rng(6)
        K = gram(GaussianRBF(1.0), rng.standard_normal((8, 3)))
        C = center(K)
        np.testing.assert_allclose(C.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(C.sum(axis=1), 0.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        K = gram(GaussianRBF(1.0), rng.standard_normal((8, 3)))
        C = center(K)
        np.testing.assert_allclose(center(C), C, atol=1e-12)

    def test_matches_explicit_h_k_h(self):
        rng = np.random.default_rng(8)
        K = rng.standard_normal((6, 6))
        H = np.eye(6) - np.ones((6, 6)) / 6
        np.testing.assert_allclose(center(K), H @ K @ H, atol=1e-12)


class TestParsing:
    def test_descriptors(self):
        assert parse_kernel("rbf(median)") == GaussianRBF(None)
        assert parse_kernel("rbf(1.5)") == GaussianRBF(1.5)
        assert parse_kernel("so3") == RotationKernelSO3()
        assert parse_kernel("delta") == DiscreteDelta()

    def test_rejects_garbage(self):
        for bad in ("rbf", "gauss(1)", "rbf(x)", ""):
            with pytest.raises(UnsupportedKind):
                parse_kernel(bad)


# One group of each family, and one acting on R^4 where the family has one:
# the rotation kernel's points are unit quaternions in R^4.
_GROUPS = {
    "so": (so(3), so(4)),
    "sym": (sym(5), sym(4)),
    "paired-so2": (paired_so2(), paired_so2()),
    "so2xso2": (so2xso2(), so2xso2()),
    "rot-discrete": (discrete_rotations(90.0, 3, axis=3), None),
    "trivial": (trivial(3), trivial(4)),
}


def _invariance_cases():
    for descriptor in ("rbf(1.5)", "delta", "so3"):
        for family in FAMILIES:
            spec = _GROUPS[family][descriptor == "so3"]
            if spec is not None:
                yield pytest.param(descriptor, spec, id=f"{descriptor}-{family}")


class TestGroupInvariance:
    """k(g x, g y) = k(x, y): the condition behind the invariance MMD."""

    def test_every_family_is_covered(self):
        assert set(_GROUPS) == set(FAMILIES)

    @pytest.mark.parametrize("descriptor,spec", list(_invariance_cases()))
    def test_gram_is_invariant_under_one_shared_element(self, descriptor, spec):
        rng = np.random.default_rng(50)
        kernel = parse_kernel(descriptor)
        d = spec.dim
        if descriptor == "so3":
            X, Y = haar_quaternions(9, rng), haar_quaternions(7, rng)
        elif descriptor == "delta":
            # few distinct rows, so that X and Y share some of them
            rows = rng.integers(-2, 3, size=(4, d)).astype(float)
            X, Y = rows[rng.integers(0, 4, 9)], rows[rng.integers(0, 4, 7)]
        else:
            X, Y = rng.normal(size=(9, d)), rng.normal(size=(7, d))
        g = sample_batch(spec, rng, 1)
        gx, gy = g.apply_all(X)[0], g.apply_all(Y)[0]
        for moved, plain in ((gram(kernel, gx, gy), gram(kernel, X, Y)),
                             (gram(kernel, gx), gram(kernel, X))):
            if descriptor == "delta":
                assert 0 < plain.sum() < plain.size  # some matches, not all
                np.testing.assert_array_equal(moved, plain)
            else:
                np.testing.assert_allclose(moved, plain, rtol=1e-12, atol=0)
