"""Rotation/pose algebra tests.

Oracles here are built from plain rotation matrices: quaternion results are
checked against 3x3 matrix products and 4x4 homogeneous inverses computed
with numpy, never against the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial.transform import Rotation as ScipyRotation

from conftest import rotation_matrix
from motionflow import se3, trajeval

RNG = np.random.default_rng


def rotvec_strategy(max_norm=math.pi - 1e-3):
    """Rotation vectors with norm <= max_norm, shrinking toward zero."""

    def clip(v):
        vec = np.array(v)
        norm = np.linalg.norm(vec)
        if norm > max_norm:
            vec = vec * (max_norm / norm)
        return vec

    component = st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False)
    return st.tuples(component, component, component).map(clip)


def unit(q):
    """One quaternion normalized and signed by se3.stack, as a one-row stack does."""
    return se3.stack([q], np.zeros((1, 3)))[0][0]


class TestRotationType:
    """The rule on one quaternion, through se3.stack."""

    def test_constructor_normalizes(self):
        q = unit(np.array([2.0, 0.0, 0.0, 0.0]))
        assert np.allclose(q, [1, 0, 0, 0])
        assert abs(np.linalg.norm(q) - 1.0) < 1e-9

    def test_canonical_sign_flips_negative_w(self):
        q = unit(np.array([-0.5, 0.5, 0.5, 0.5]))
        assert q[0] > 0
        assert np.allclose(q, [0.5, -0.5, -0.5, -0.5])

    def test_half_turn_sign_rule(self):
        # w == 0: first nonzero vector component must come out positive.
        q = unit(np.array([0.0, -1.0, 0.0, 0.0]))
        assert q[1] > 0
        q = unit(np.array([0.0, 0.0, -0.6, -0.8]))
        assert q[2] > 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            unit(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            unit(np.array([np.nan, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            unit(np.zeros(4))
        # The squared norm overflows: rejected, not divided down to zeros.
        for big in ([1e200, 0.0, 0.0, 0.0], [1e155, -1e155, 0.0, 1.0]):
            with pytest.raises(ValueError, match="not finite"):
                unit(np.array(big))
        # |rho| overflows in the chart the same way: rejected by name.
        for big in ([1e200, 0.0, 0.0], [1e155, 1e155, 0.0]):
            with pytest.raises(ValueError) as err:
                exp_quat(big)
            assert str(err.value) == f"rho norm overflows: {np.array(big)}"

    def test_quaternion_is_immutable(self):
        q = unit(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            q[0] = 2.0

    def test_matrix_is_orthonormal(self):
        rng = RNG(3)
        for _ in range(20):
            m = rotation_matrix(rng.standard_normal(4))
            assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(m) - 1.0) < 1e-12


def exp_quat(rho):
    """The quaternion of one rotation vector, through state_to_pose."""
    return se3.state_to_pose(np.concatenate([rho, np.zeros(3)]))[0]


def log_quat(q):
    """The rotation vector of one canonical quaternion, through pose_to_state."""
    return se3.pose_to_state(q, np.zeros(3))[:3]


def pose_stack(rng, n):
    """n random poses as a checked stack."""
    return se3.stack(rng.standard_normal((n, 4)), rng.standard_normal((n, 3)))


def matrices(q, t):
    """4x4 homogeneous transforms of a stack, built from rotation_matrix."""
    out = np.tile(np.eye(4), (len(q), 1, 1))
    for m, qi, ti in zip(out, q, t):
        m[:3, :3] = rotation_matrix(qi)
        m[:3, 3] = ti
    return out


class TestExpLog:
    """The chart maps on one row: exp (state_to_pose) and log (pose_to_state)."""

    def test_identity(self):
        assert np.allclose(exp_quat(np.zeros(3)), [1, 0, 0, 0])
        assert np.allclose(log_quat(unit([1.0, 0.0, 0.0, 0.0])), 0.0)

    def test_known_quarter_turn(self):
        # 90 degrees about z: q = (cos 45, 0, 0, sin 45)
        q = exp_quat([0.0, 0.0, math.pi / 2])
        assert np.allclose(q, [math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)])
        assert np.allclose(rotation_matrix(q), [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                           atol=1e-15)

    @given(rotvec_strategy())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_inside_ball(self, rho):
        back = log_quat(exp_quat(rho))
        assert np.linalg.norm(back - rho) < 1e-9

    def test_round_trip_dense_norm_sweep(self):
        rng = RNG(5)
        axes = rng.standard_normal((200, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        norms = np.linspace(1e-12, math.pi - 1e-3, 200)
        rows = np.concatenate([axes * norms[:, None], np.zeros((200, 3))], axis=1)
        back = se3.pose_to_state(*se3.state_to_pose(rows))
        assert np.max(np.linalg.norm(back - rows, axis=1)) < 1e-9

    def test_small_angle_series_matches_closed_form(self):
        # Straddle the series threshold; both branches must agree smoothly.
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        for norm in [1e-9, 1e-7, 9.9e-7, 1.01e-6, 1e-5]:
            q = exp_quat(axis * norm)
            exact = np.array(
                [math.cos(norm / 2), *(axis * math.sin(norm / 2))]
            )
            assert np.linalg.norm(q - exact) < 1e-16

    def test_log_range_is_principal(self):
        rng = RNG(6)
        q, t = pose_stack(rng, 200)
        rho = se3.pose_to_state(q, t)[:, :3]
        assert np.max(np.linalg.norm(rho, axis=1)) <= math.pi + 1e-9

    def test_angle_pi_branch(self):
        # At a half turn the quaternion has w == 0 and q/-q describe the same
        # rotation; log must return the representative whose first nonzero
        # component is positive.
        for quat, want in [
            ([0.0, 1.0, 0.0, 0.0], [math.pi, 0, 0]),
            ([0.0, -1.0, 0.0, 0.0], [math.pi, 0, 0]),
            ([0.0, 0.0, -0.6, -0.8], [0, 0.6 * math.pi, 0.8 * math.pi]),
        ]:
            back = log_quat(unit(np.array(quat)))
            assert np.allclose(back, want, atol=1e-12)

    def test_half_turn_exp_consistency(self):
        # exp of +/-pi about one axis is the same rotation even though the
        # two charts sit on opposite sides of the branch cut.
        a = unit(exp_quat([math.pi, 0.0, 0.0]))
        b = unit(exp_quat([-math.pi, 0.0, 0.0]))
        assert se3.geodesic_angles([a], [b])[0] < 1e-9

    def test_wrap_beyond_pi(self):
        # |rho| = 3*pi/2 about z wraps to pi/2 about -z.
        back = log_quat(exp_quat([0, 0, 1.5 * math.pi]))
        assert np.allclose(back, [0, 0, -math.pi / 2], atol=1e-12)

    def test_same_axis_homomorphism(self):
        rng = RNG(7)
        axes = rng.standard_normal((50, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        a, b = rng.uniform(0, math.pi / 2, size=(2, 50, 1))
        zeros = np.zeros((50, 3))
        qa, _ = se3.state_to_pose(np.concatenate([axes * a, zeros], axis=1))
        qb, _ = se3.state_to_pose(np.concatenate([axes * b, zeros], axis=1))
        want, _ = se3.state_to_pose(np.concatenate([axes * (a + b), zeros], axis=1))
        got, _ = se3.compose((qa, zeros), (qb, zeros))
        assert np.max(np.linalg.norm(got - want, axis=1)) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            exp_quat([np.inf, 0.0, 0.0])
        with pytest.raises(ValueError):
            exp_quat([0.0, np.nan, 0.0])


class TestPoseAlgebra:
    """compose and inverse on stacks against 4x4 matrix products and inverses."""

    def test_compose_matches_matrix_oracle(self):
        rng = RNG(8)
        a, b = pose_stack(rng, 100), pose_stack(rng, 100)
        got = matrices(*se3.compose(a, b))
        want = matrices(*a) @ matrices(*b)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_inverse_matches_matrix_oracle(self):
        rng = RNG(9)
        p = pose_stack(rng, 100)
        got = matrices(*se3.inverse(p))
        want = np.linalg.inv(matrices(*p))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_compose_with_inverse_is_identity(self):
        rng = RNG(10)
        p = pose_stack(rng, 50)
        q, t = se3.compose(p, se3.inverse(p))
        assert np.all(se3.geodesic_angles(q, se3.IDENTITY[0]) < 1e-12)
        assert np.max(np.linalg.norm(t, axis=1)) < 1e-12

    def test_associativity(self):
        rng = RNG(11)
        a, b, c = (pose_stack(rng, 100) for _ in range(3))
        lhs = se3.compose(se3.compose(a, b), c)
        rhs = se3.compose(a, se3.compose(b, c))
        assert np.all(se3.geodesic_angles(lhs[0], rhs[0]) < 1e-9)
        assert np.max(np.linalg.norm(lhs[1] - rhs[1], axis=1)) < 1e-9

    def test_identity_element(self):
        rng = RNG(12)
        p = pose_stack(rng, 5)
        e = (np.tile(se3.IDENTITY[0], (5, 1)), np.tile(se3.IDENTITY[1], (5, 1)))
        for q, t in (se3.compose(p, e), se3.compose(e, p)):
            assert np.allclose(q, p[0], atol=1e-15)
            assert np.allclose(t, p[1], atol=1e-15)

    def test_compose_and_inverse_match_scipy(self):
        # Half turns (w == 0) and quaternions accepted off unit norm included.
        rng = RNG(13)
        a, b = TestCheckedBuilders.poses(rng, 1000), TestCheckedBuilders.poses(rng, 1000)
        def scipy_rotations(q):  # scipy orders quaternions (x, y, z, w)
            return ScipyRotation.from_quat(np.roll(q, -1, axis=1))

        ra, rb = scipy_rotations(a[0]), scipy_rotations(b[0])
        q, t = se3.compose(a, b)
        assert np.max(np.abs(scipy_rotations(q).as_matrix() - (ra * rb).as_matrix())) < 1e-12
        # scipy normalizes.  Rotating v by s q, q a unit quaternion, gives
        # v + s^2 (R v - v), which is off by at most 2 |s^2 - 1| |v|, or about
        # 4 UNIT_NORM_TOL |v| for a quaternion accepted off unit norm.
        # Translations reach 1e3, so sums may cancel down from that scale.
        def close(got, want, rotated):
            bound = 5 * se3.UNIT_NORM_TOL * np.linalg.norm(rotated, axis=1) + 1e-12 * 1e3
            return np.all(np.linalg.norm(got - want, axis=1) <= bound)

        assert close(t, ra.apply(np.array(b[1])) + a[1], b[1])
        q, t = se3.inverse(a)
        assert np.max(np.abs(scipy_rotations(q).as_matrix() - ra.inv().as_matrix())) < 1e-12
        assert close(t, -ra.inv().apply(np.array(a[1])), a[1])


class TestQuatRotate:
    """compose's rotation of translations, the one rotate."""

    def test_matches_cross_product_form_bitwise(self):
        rng = RNG(106)
        quats, _ = edge_inputs(rng, 2500)
        q = np.stack([norm_rotation(quat) for quat in quats])
        v = rng.standard_normal((len(q), 3)) * 10.0 ** rng.integers(-3, 4, (len(q), 1))
        identity = np.tile(se3.IDENTITY[0], (len(q), 1))
        _, got = se3.compose((q, np.zeros((len(q), 3))), (identity, v))
        for qi, vi, row in zip(q, v, got):
            u = qi[1:4]
            t = 2.0 * np.cross(u, vi)
            assert same_bits(row, vi + qi[0] * t + np.cross(u, t) + 0.0), qi


class TestQuatMultiply:
    """compose's product of rotations, the one quaternion product."""

    def test_matches_numpy_scalar_form_bitwise(self):
        rng = RNG(107)
        a = TestCheckedBuilders.poses(rng, 2000)[0]
        b = a[rng.permutation(len(a))]
        zeros = np.zeros((len(a), 3))
        got, _ = se3.compose((a, zeros), (b, zeros))
        for qa, qb, row in zip(a, b, got):
            aw, ax, ay, az = qa  # numpy float64 scalars
            bw, bx, by, bz = qb
            want = norm_rotation(np.array([
                aw * bw - ax * bx - ay * by - az * bz,
                aw * bx + ax * bw + ay * bz - az * by,
                aw * by - ax * bz + ay * bw + az * bx,
                aw * bz + ax * by - ay * bx + az * bw,
            ]))
            assert same_bits(row, want), (qa, qb)


def norm_rotation(q):
    """Rotation's normalization and sign rule with np.linalg.norm."""
    q = np.array(q, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(q))
    if abs(norm - 1.0) > se3.UNIT_NORM_TOL:
        q = q / norm
    if q[0] < 0.0:
        q = -q
    elif q[0] == 0.0:
        for component in q[1:]:
            if component != 0.0:
                if component < 0.0:
                    q = -q
                break
    return q + 0.0


def norm_exp(rho):
    """The exp quaternion of a rotation vector with np.linalg.norm."""
    rho = np.array(rho, dtype=np.float64)
    theta = float(np.linalg.norm(rho))
    if theta < se3.SMALL_ANGLE:
        w = 1.0 - theta * theta / 8.0
        xyz = rho * (0.5 - theta * theta / 48.0)
    else:
        w = math.cos(0.5 * theta)
        xyz = rho * (math.sin(0.5 * theta) / theta)
    return norm_rotation(np.array([w, xyz[0], xyz[1], xyz[2]]))


def norm_log(q):
    """The principal log of a canonical quaternion with np.linalg.norm."""
    w, v = float(q[0]), q[1:4]
    s = float(np.linalg.norm(v))
    if s < se3.SMALL_ANGLE:
        return v * (2.0 / w * (1.0 - s * s / (3.0 * w * w)))
    return v * (2.0 * math.atan2(s, w) / s)


def edge_inputs(rng, n):
    """n quaternions and n rotation vectors, a fifth each of generic draws,
    unit-norm (or |rho| <= pi) draws, angles below SMALL_ANGLE, angles
    within 1e-9 of pi, and norms off 1 by more than UNIT_NORM_TOL
    (quaternions) or the near-pi vectors negated (rotation vectors)."""
    k = n // 5
    axes = rng.standard_normal((k, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    small = rng.uniform(0.0, se3.SMALL_ANGLE, (k, 1))
    near_pi = math.pi - rng.uniform(0.0, 1e-9, (k, 1))
    unit = rng.standard_normal((k, 4))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    off_unit = unit * (1.0 + rng.choice([-1.0, 1.0], (k, 1)) * rng.uniform(2e-9, 1e-3, (k, 1)))
    quats = np.concatenate([
        rng.standard_normal((k, 4)) * 10.0 ** rng.integers(-4, 4, size=(k, 1)),
        unit,
        np.concatenate([np.cos(small / 2), axes * np.sin(small / 2)], axis=1),
        np.concatenate([np.cos(near_pi / 2), axes * np.sin(near_pi / 2)], axis=1)
        * rng.choice([-1.0, 1.0], (k, 1)),
        off_unit,
    ])
    rhos = np.concatenate([
        rng.standard_normal((k, 3)) * rng.uniform(0.0, 3 * math.pi, (k, 1)),
        axes * rng.uniform(0.0, math.pi, (k, 1)),
        axes * small,
        axes * near_pi,
        -axes * near_pi,
    ])
    return quats, rhos


class TestTrimmedFormsMatchNorm:
    """Every norm se3 takes is sqrt of a dot product, row by row; the
    references take np.linalg.norm of each vector, the same computation."""

    def test_rotation_exp_and_log_bitwise(self):
        quats, rhos = edge_inputs(RNG(108), 2500)
        assert np.sum(np.abs(np.linalg.norm(quats, axis=1) - 1.0) > se3.UNIT_NORM_TOL) >= 1000
        stacked, _ = se3.stack(quats, np.zeros((len(quats), 3)))
        logs = se3.pose_to_state(stacked, np.zeros((len(quats), 3)))[:, :3]
        for q, row, log in zip(quats, stacked, logs):
            want = norm_rotation(q)
            assert same_bits(unit(q), want), q
            assert same_bits(row, want), q
            assert same_bits(log, norm_log(want)), q
        exps, _ = se3.state_to_pose(np.concatenate([rhos, np.zeros((len(rhos), 3))], axis=1))
        logs = se3.pose_to_state(exps, np.zeros((len(rhos), 3)))[:, :3]
        for rho, got, log in zip(rhos, exps, logs):
            want = norm_exp(rho)
            assert same_bits(got, want), rho
            assert same_bits(log, norm_log(want)), rho

    def test_exact_zeros_and_half_turns_bitwise(self):
        quats = [[0.0, -0.0, 0.6, -0.8], [-0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -0.0, 2.0],
                 [-1.0, -0.0, 0.0, 0.0], [0.0, -0.0, -0.0, -3.0], [3.0, -0.0, -0.0, -0.0]]
        stacked, _ = se3.stack(quats, np.zeros((len(quats), 3)))
        for q, row in zip(quats, stacked):
            assert same_bits(unit(q), norm_rotation(q)), q
            assert same_bits(row, norm_rotation(q)), q


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_messages_are_unchanged(self, bad):
        vec = np.array([0.5, bad, -0.5])
        cases = [
            (lambda: se3.MotionState(vec, np.zeros(3)), f"rho contains non-finite values: {vec}"),
            (lambda: se3.MotionState(np.zeros(3), vec), f"trans contains non-finite values: {vec}"),
            (lambda: unit(np.append(vec, 1.0)),
             f"quaternion contains non-finite values: {np.append(vec, 1.0)}"),
            (lambda: se3.stack([[1.0, 0, 0, 0], np.append(vec, 1.0)], np.zeros((2, 3))),
             f"quaternion contains non-finite values: {np.append(vec, 1.0)}"),
            (lambda: se3.stack([[1.0, 0, 0, 0]], [vec]),
             f"translation contains non-finite values: {vec}"),
            (lambda: exp_quat(vec), f"state contains non-finite values: {np.append(vec, [0, 0, 0])}"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message


class TestShapeAndTypeRejected:
    @pytest.mark.parametrize("build, error, message", [
        (lambda: se3.stack([[1.0, 0.0, 0.0, 0.0]], [[1.0, 2.0]]), ValueError,
         "translation rows must have 3 components, got shape (1, 2)"),
        (lambda: se3.MotionState(np.zeros((2, 2)), np.zeros(3)), ValueError,
         "rho must have 3 components, got shape (4,)"),
        (lambda: se3.stack(np.eye(3), np.zeros((3, 3))), ValueError,
         "quaternion rows must have 4 components, got shape (3, 3)"),
        (lambda: se3.state_to_pose(np.zeros(5)), ValueError,
         "state rows must have 6 components, got shape (5,)"),
        (lambda: se3.stack([[1.0, 0.0, 0.0, 0.0]], np.zeros((2, 3))), ValueError,
         "1 rotations for 2 translations"),
        (lambda: se3.sample_initial_batch(RNG(0), 0), ValueError,
         "batch size must be >= 1, got 0"),
    ], ids=["translation-shape", "rho-shape", "rotation-type", "state-vector-shape",
            "stack-mismatch", "empty-batch"])
    def test_messages(self, build, error, message):
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message


def same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def read_only(*arrays):
    return all(isinstance(a, np.ndarray) and not a.flags.writeable for a in arrays)


class TestCheckedBuilders:
    """compose, inverse and chain build from checked stacks without the
    constructors' checks; they must build what the constructors' rule gives."""

    @staticmethod
    def poses(rng, n):
        quats, _ = edge_inputs(rng, n)
        # Accepted without normalizing, so products can leave the tolerance.
        near_unit = quats[n // 5:2 * n // 5] * (1.0 + rng.uniform(-1e-9, 1e-9, (n // 5, 1)))
        quats = np.concatenate([quats, near_unit])
        trans = rng.standard_normal((len(quats), 3)) * 10.0 ** rng.integers(-3, 4, (len(quats), 1))
        return se3.stack(quats, trans)

    def test_compose_and_inverse_match_constructors_bitwise(self):
        # The rule's references: norm_rotation of the scalar-form product and
        # of the conjugate, and compose's arithmetic written per pose.
        a = self.poses(RNG(111), 2500)
        b = tuple(np.roll(x, -1, axis=0) for x in a)
        composed, inverted = se3.compose(a, b), se3.inverse(a)
        renormalized = 0
        for i, (qa, ta, qb, tb) in enumerate(zip(*a, *b)):
            aw, ax, ay, az = qa
            bw, bx, by, bz = qb
            product = np.array([aw * bw - ax * bx - ay * by - az * bz,
                                aw * bx + ax * bw + ay * bz - az * by,
                                aw * by - ax * bz + ay * bw + az * bx,
                                aw * bz + ax * by - ay * bx + az * bw])
            renormalized += abs(np.linalg.norm(product) - 1.0) > se3.UNIT_NORM_TOL
            u = qa[1:]
            t = 2.0 * np.cross(u, tb)
            assert same_bits(composed[0][i], norm_rotation(product)), (qa, qb)
            assert same_bits(composed[1][i], tb + aw * t + np.cross(u, t) + ta), (qa, qb)
            conjugate = qa * [1.0, -1.0, -1.0, -1.0]
            t = 2.0 * np.cross(-u, ta)
            assert same_bits(inverted[0][i], norm_rotation(conjugate)), qa
            assert same_bits(inverted[1][i], -(ta + aw * t + np.cross(-u, t))), qa
        assert renormalized >= 50

    def test_stack_equals_its_rows(self):
        a = self.poses(RNG(113), 500)
        b = tuple(np.roll(x, 7, axis=0) for x in a)
        composed, inverted = se3.compose(a, b), se3.inverse(a)
        for i in range(len(a[0])):
            row = slice(i, i + 1)
            one = se3.compose((a[0][row], a[1][row]), (b[0][row], b[1][row]))
            assert same_bits(one[0], composed[0][row]) and same_bits(one[1], composed[1][row])
            one = se3.inverse((a[0][row], a[1][row]))
            assert same_bits(one[0], inverted[0][row]) and same_bits(one[1], inverted[1][row])

    def test_chain_equals_the_compose_fold_bitwise(self):
        # Motions accepted off unit norm make products that renormalize.
        q, t = self.poses(RNG(114), 1000)
        motions = (q, t * 1e-3)
        start = (q[7:8], t[7:8])
        got = se3.chain(start, motions)
        traj = trajeval.compose_trajectory(start, motions)
        pose = start
        for i in range(len(q) + 1):
            assert same_bits(got[0][i:i + 1], pose[0]) and same_bits(got[1][i:i + 1], pose[1]), i
            if i < len(q):
                pose = se3.compose(pose, (q[i:i + 1], motions[1][i:i + 1]))
        assert same_bits(traj.q, got[0]) and same_bits(traj.t, got[1])
        assert np.array_equal(traj.stamps, np.arange(len(q) + 1.0))

    def test_results_hold_read_only_arrays(self):
        # Checked stacks are read-only; compose, inverse and chain return
        # fresh arrays that share no memory with their inputs.
        a = self.poses(RNG(112), 10)
        assert read_only(*a, unit([0.3, -0.2, 0.1, 0.9]), *se3.IDENTITY)
        for q, t in (se3.compose(a, a), se3.inverse(a), se3.chain(se3.IDENTITY, a)):
            assert not any(np.shares_memory(x, y) for x in (q, t) for y in a)

    def test_overflowing_translation_is_rejected(self):
        big = (np.array([[1.0, 0.0, 0.0, 0.0]] * 2), np.array([[0.0, 0.0, 0.0], [1e308, 0.0, 0.0]]))
        with pytest.raises(se3.RowError) as err:
            se3.compose(big, big)  # 1e308 + 1e308 overflows in the add
        assert err.value.row == 1
        assert str(err.value) == "translation contains non-finite values: [inf  0.  0.]"
        # A quarter turn about z carries 1.7e308 past the float range.
        turned = (exp_quat([0.0, 0.0, math.pi / 2])[None], np.array([[1.7e308, 0.0, 0.0]]))
        for build in (lambda: se3.inverse(turned), lambda: se3.compose(turned, turned),
                      lambda: se3.chain(turned, turned)):
            with pytest.raises(se3.RowError, match="^translation contains non-finite values"):
                build()

    @pytest.mark.parametrize("q1, t1, q2, t2, message", [
        ([1.0, 0, 0, 0], [0, math.nan, 0], [0.0, 0, 0, 0], [0.0, 0, 0],
         "translation contains non-finite values: [ 0. nan  0.]"),
        ([0.0, 0, 0, 0], [0.0, 0, 0], [math.nan, 0, 0, 0], [0.0, 0, 0],
         "quaternion norm is zero or not finite: 0.0"),
        ([math.inf, 0, 0, 0], [0.0, 0, 0], [0.0, 0, 0, 0], [0.0, 0, 0],
         "quaternion contains non-finite values: [inf  0.  0.  0.]"),
    ], ids=["translation-then-quaternion", "zero-then-nan-quaternion", "inf-then-zero-quaternion"])
    def test_stack_names_its_first_bad_row(self, q1, t1, q2, t2, message):
        with pytest.raises(se3.RowError) as err:
            se3.stack([[1.0, 0, 0, 0], q1, q2], [[0.0, 0, 0], t1, t2])
        assert (err.value.row, str(err.value)) == (1, message)

    def test_overflowing_compose_is_rejected_without_a_warning(self):
        big = (np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([[1e308, 0.0, 0.0]]))
        for build in (lambda: se3.compose(big, big), lambda: se3.chain(big, big)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == "translation contains non-finite values: [inf  0.  0.]"


class TestStackChart:
    """state_to_pose and pose_to_state on stacks of rows: each row must equal
    the np.linalg.norm references norm_exp and norm_log, bit for bit."""

    @staticmethod
    def edge_rhos():
        rows = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0],
                [3e-7, -0.0, 1e-8], [-0.0, -2e-7, 0.0], [1e-300, 0.0, -1e-300]]
        for axis in range(3):
            # exactly pi (cos(pi/2) is the w == 0 tie, to rounding), the float
            # just under it, and angles in (pi, 2 pi), where the sign flips
            for angle in (math.pi, -math.pi, np.nextafter(math.pi, 0.0),
                          np.nextafter(math.pi, 4.0), 1.5 * math.pi, -1.9 * math.pi):
                rho = [-0.0, -0.0, -0.0]
                rho[axis] = angle
                rows.append(rho)
        return np.array(rows)

    def test_rows_match_norm_exp_and_norm_log_bitwise(self):
        rng = RNG(110)
        _, rhos = edge_inputs(rng, 4000)
        rhos = np.concatenate([rhos, self.edge_rhos()])
        states = np.concatenate([rhos, rng.standard_normal(rhos.shape)], axis=1)
        q, t = se3.state_to_pose(states)
        assert q.shape == (len(states), 4) and same_bits(t, states[:, 3:])
        for rho, got in zip(rhos, q):
            assert same_bits(got, norm_exp(rho)), rho
        # The quaternions state_to_pose gives, and those the rule gives
        # (near pi, below SMALL_ANGLE, accepted off unit norm).
        quats = np.concatenate([q, TestCheckedBuilders.poses(rng, 2500)[0]])
        trans = rng.standard_normal((len(quats), 3))
        back = se3.pose_to_state(quats, trans)
        assert back.shape == (len(quats), 6) and same_bits(back[:, 3:], trans)
        for got, quat in zip(back, quats):
            assert same_bits(got[:3], norm_log(quat)), quat

    def test_stack_equals_its_flattened_rows(self):
        rng = RNG(111)
        states = np.concatenate([rng.uniform(-4.0, 4.0, (7, 5, 3)),
                                 rng.standard_normal((7, 5, 3))], axis=2)
        q, t = se3.state_to_pose(states)
        flat_q, flat_t = se3.state_to_pose(states.reshape(-1, 6))
        assert q.shape == (7, 5, 4) and t.shape == (7, 5, 3)
        assert same_bits(q.reshape(-1, 4), flat_q) and same_bits(t.reshape(-1, 3), flat_t)
        rows = se3.pose_to_state(q, t)
        assert rows.shape == (7, 5, 6)
        assert same_bits(rows.reshape(-1, 6), se3.pose_to_state(flat_q, flat_t))

    def test_bad_row_is_named(self):
        # The norm overflows without a warning (any warning fails the suite).
        states = np.zeros((2, 3, 6))
        states[1, 2, :3] = [1e155, 1e155, 0.0]
        with pytest.raises(ValueError) as err:
            se3.state_to_pose(states)
        assert str(err.value) == f"rho norm overflows in row [1, 2]: {states[1, 2, :3]}"
        states[0, 1, 4] = math.inf
        with pytest.raises(ValueError) as err:
            se3.state_to_pose(states)
        assert str(err.value) == f"state row [0, 1] contains non-finite values: {states[0, 1]}"
        with pytest.raises(ValueError, match="6 components"):
            se3.state_to_pose(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="do not pair up"):
            se3.pose_to_state(np.zeros((4, 4)), np.zeros((3, 3)))


class TestStateChart:
    @given(rotvec_strategy(), st.tuples(*[st.floats(-10, 10)] * 3))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, rho, trans):
        row = np.concatenate([rho, trans])
        back = se3.pose_to_state(*se3.state_to_pose(row))
        assert np.linalg.norm(back - row) < 1e-9

    def test_vector_round_trip(self):
        vec = np.array([0.1, -0.2, 0.3, 1.0, 2.0, -3.0])
        assert np.array_equal(se3.MotionState(vec[:3], vec[3:]).as_vector(), vec)

    def test_translation_is_passthrough(self):
        # The chart never couples translation to rotation.
        rows = np.array([[0.5, -0.4, 0.3, 7.0, -8.0, 9.0], [3.0, 1.0, -2.0, 0.0, -0.0, 1e300]])
        _, trans = se3.state_to_pose(rows)
        assert same_bits(trans, rows[:, 3:])
        assert same_bits(se3.pose_to_state(*se3.state_to_pose(rows))[:, 3:], rows[:, 3:])

    def test_geodesic_angle_symmetry_and_known_value(self):
        a = unit(exp_quat([0, 0, 0.3]))[None]
        b = unit(exp_quat([0, 0, -0.4]))[None]
        assert abs(se3.geodesic_angles(a, b)[0] - 0.7) < 1e-12
        assert abs(se3.geodesic_angles(b, a)[0] - 0.7) < 1e-12
        assert se3.geodesic_angles(a, a)[0] == 0.0

    def test_geodesic_angles_pair_one_row_with_every_row(self):
        # Rotations about z by 0.1 k: angle 0.1 |k - 2| from the third,
        # which a one-row stack pairs with every row, on either side.
        angles = 0.1 * np.arange(7.0)
        q, _ = se3.state_to_pose(np.stack([np.zeros(7), np.zeros(7), angles,
                                           *np.zeros((3, 7))], axis=1))
        want = np.abs(angles - angles[2])
        for got in (se3.geodesic_angles(q, q[2:3]), se3.geodesic_angles(q[2:3], q)):
            assert got.shape == (7,) and np.max(np.abs(got - want)) < 1e-12
        assert np.array_equal(se3.geodesic_angles(q, q), np.zeros(7))

    def test_geodesic_angles_of_antipodal_half_turns_read_zero(self):
        # q and -q are one rotation: the two quaternions of a half turn about
        # each axis, and of a generic one, are 0 apart, not pi.
        turns = np.concatenate([np.eye(3), [[0.0, 0.6, -0.8]]])
        q = np.concatenate([np.zeros((4, 1)), turns], axis=1)
        assert np.array_equal(se3.geodesic_angles(q, -q), np.zeros(4))
        assert np.all(np.abs(se3.geodesic_angles(q, se3.IDENTITY[0]) - math.pi) < 1e-15)


class TestReferenceSampling:
    def test_translation_moments(self):
        rng = RNG(100)
        states = se3.sample_initial_batch(rng, 100_000)
        trans = states[:, 3:]
        assert np.max(np.abs(trans.mean(axis=0))) < 0.02
        assert np.max(np.abs(trans.var(axis=0) - 1.0)) < 0.03

    def test_rotation_angle_distribution(self):
        # Haar measure on SO(3) has angle density (1 - cos t)/pi on [0, pi];
        # its CDF is (t - sin t)/pi.  One-sample KS at n = 1e5.
        from scipy import stats

        rng = RNG(101)
        states = se3.sample_initial_batch(rng, 100_000)
        angles = np.linalg.norm(states[:, :3], axis=1)
        assert angles.max() <= math.pi + 1e-9
        cdf = lambda t: (t - np.sin(t)) / math.pi
        result = stats.kstest(angles, cdf)
        assert result.statistic < 0.01

    def test_rotation_axis_is_isotropic(self):
        rng = RNG(102)
        states = se3.sample_initial_batch(rng, 50_000)
        rho = states[:, :3]
        axes = rho / np.linalg.norm(rho, axis=1, keepdims=True)
        assert np.max(np.abs(axes.mean(axis=0))) < 0.02

    def test_batch_matches_sequential_draws(self):
        # A batch of n equals n batches of 1 drawn from one stream.
        batch = se3.sample_initial_batch(RNG(103), 16)
        rng = RNG(103)
        singles = np.concatenate([se3.sample_initial_batch(rng, 1) for _ in range(16)])
        assert np.array_equal(batch, singles)

    def test_each_row_reads_translation_then_quaternion(self):
        # Each row is Rotation's rule and the log of its quaternion, bit for bit.
        batch = se3.sample_initial_batch(RNG(105), 2000)
        normals = RNG(105).standard_normal((2000, 7))
        assert np.array_equal(batch[:, 3:], normals[:, :3])
        rho = np.stack([norm_log(norm_rotation(q)) for q in normals[:, 3:]])
        assert same_bits(batch[:, :3], rho)

    def test_edge_rows_match_rotation_and_log(self):
        class Stub:
            """Generator whose standard_normal returns crafted rows."""

            def __init__(self, rows):
                self.rows = np.array(rows, dtype=np.float64)

            def standard_normal(self, shape):
                assert shape == self.rows.shape
                return self.rows.copy()

        t = [0.1, -0.2, 0.3]
        quats = [
            [-0.5, 0.1, 0.2, 0.3],        # w < 0: sign flip
            [0.0, 0.0, -0.6, 0.8],        # w == 0, first nonzero component < 0
            [-0.0, -1.0, 0.0, 0.0],       # angle exactly pi, negative zero w
            [0.0, 0.0, 0.0, 1.0],         # angle exactly pi, kept sign
            [2.0, 1e-7, -2e-7, 3e-8],     # |v| < SMALL_ANGLE after normalizing
            [-1.0, 1e-8, 0.0, -0.0],      # small angle, unit norm kept, w < 0
            [1.0, 0.0, 0.0, 0.0],         # identity, exact zeros
            [-1.0, 0.0, 0.0, 0.0],        # identity with flipped sign
            [1e-3, 0.6, -0.8, 0.0],       # angle just below pi
        ]
        batch = se3.sample_initial_batch(Stub([t + q for q in quats]), len(quats))
        for row, q in zip(batch, quats):
            assert same_bits(row[:3], norm_log(norm_rotation(q))), q
            assert np.array_equal(row[3:], t)
        assert np.allclose(batch[1, :3], [0.0, 0.6 * math.pi, -0.8 * math.pi])
        with pytest.raises(ValueError, match="norm is zero"):
            se3.sample_initial_batch(Stub([t + [0.0, 0.0, 0.0, 0.0]]), 1)

    def test_determinism(self):
        a = se3.sample_initial_batch(RNG(104), 64)
        b = se3.sample_initial_batch(RNG(104), 64)
        assert np.array_equal(a, b)
