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

from motionflow import se3

RNG = np.random.default_rng


def random_pose(rng):
    return se3.RelativePose(
        se3.Rotation(rng.standard_normal(4)), rng.standard_normal(3)
    )


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


class TestRotationType:
    def test_constructor_normalizes(self):
        r = se3.Rotation(np.array([2.0, 0.0, 0.0, 0.0]))
        assert np.allclose(r.q, [1, 0, 0, 0])
        assert abs(np.linalg.norm(r.q) - 1.0) < 1e-9

    def test_canonical_sign_flips_negative_w(self):
        r = se3.Rotation(np.array([-0.5, 0.5, 0.5, 0.5]))
        assert r.q[0] > 0
        assert np.allclose(r.q, [0.5, -0.5, -0.5, -0.5])

    def test_half_turn_sign_rule(self):
        # w == 0: first nonzero vector component must come out positive.
        r = se3.Rotation(np.array([0.0, -1.0, 0.0, 0.0]))
        assert r.q[1] > 0
        r = se3.Rotation(np.array([0.0, 0.0, -0.6, -0.8]))
        assert r.q[2] > 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            se3.Rotation(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            se3.Rotation(np.array([np.nan, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            se3.Rotation(np.zeros(4))
        # The squared norm overflows: rejected, not divided down to zeros.
        for big in ([1e200, 0.0, 0.0, 0.0], [1e155, -1e155, 0.0, 1.0]):
            with pytest.raises(ValueError, match="not finite"):
                se3.Rotation(np.array(big))
        # |rho| overflows in exp_map the same way: rejected by name.
        for big in ([1e200, 0.0, 0.0], [1e155, 1e155, 0.0]):
            message = f"rho norm overflows: {np.array(big)}"
            for build in (se3.exp_map, lambda rho: se3.state_to_pose(se3.MotionState(rho, rho))):
                with pytest.raises(ValueError) as err:
                    build(big)
                assert str(err.value) == message

    def test_quaternion_is_immutable(self):
        r = se3.Rotation(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            r.q[0] = 2.0

    def test_matrix_is_orthonormal(self):
        rng = RNG(3)
        for _ in range(20):
            m = se3.Rotation(rng.standard_normal(4)).matrix()
            assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(m) - 1.0) < 1e-12


class TestExpLog:
    def test_identity(self):
        assert np.allclose(se3.exp_map(np.zeros(3)).q, [1, 0, 0, 0])
        assert np.allclose(se3.log_map(se3.Rotation.identity()), 0.0)

    def test_known_quarter_turn(self):
        # 90 degrees about z: q = (cos 45, 0, 0, sin 45)
        r = se3.exp_map([0.0, 0.0, math.pi / 2])
        assert np.allclose(r.q, [math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)])
        assert np.allclose(r.matrix(), [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)

    @given(rotvec_strategy())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_inside_ball(self, rho):
        back = se3.log_map(se3.exp_map(rho))
        assert np.linalg.norm(back - rho) < 1e-9

    def test_round_trip_dense_norm_sweep(self):
        rng = RNG(5)
        axes = rng.standard_normal((200, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        norms = np.linspace(1e-12, math.pi - 1e-3, 200)
        for axis, norm in zip(axes, norms):
            rho = axis * norm
            back = se3.log_map(se3.exp_map(rho))
            assert np.linalg.norm(back - rho) < 1e-9

    def test_small_angle_series_matches_closed_form(self):
        # Straddle the series threshold; both branches must agree smoothly.
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        for norm in [1e-9, 1e-7, 9.9e-7, 1.01e-6, 1e-5]:
            q = se3.exp_map(axis * norm).q
            exact = np.array(
                [math.cos(norm / 2), *(axis * math.sin(norm / 2))]
            )
            assert np.linalg.norm(q - exact) < 1e-16

    def test_log_range_is_principal(self):
        rng = RNG(6)
        for _ in range(200):
            rho = se3.log_map(se3.Rotation(rng.standard_normal(4)))
            assert np.linalg.norm(rho) <= math.pi + 1e-9

    def test_angle_pi_branch(self):
        # At a half turn the quaternion has w == 0 and q/-q describe the same
        # rotation; log must return the representative whose first nonzero
        # component is positive.
        for quat, want in [
            ([0.0, 1.0, 0.0, 0.0], [math.pi, 0, 0]),
            ([0.0, -1.0, 0.0, 0.0], [math.pi, 0, 0]),
            ([0.0, 0.0, -0.6, -0.8], [0, 0.6 * math.pi, 0.8 * math.pi]),
        ]:
            back = se3.log_map(se3.Rotation(np.array(quat)))
            assert np.allclose(back, want, atol=1e-12)

    def test_half_turn_exp_consistency(self):
        # exp of +/-pi about one axis is the same rotation even though the
        # two charts sit on opposite sides of the branch cut.
        a = se3.exp_map([math.pi, 0.0, 0.0])
        b = se3.exp_map([-math.pi, 0.0, 0.0])
        assert se3.geodesic_angle(a, b) < 1e-9

    def test_wrap_beyond_pi(self):
        # |rho| = 3*pi/2 about z wraps to pi/2 about -z.
        back = se3.log_map(se3.exp_map([0, 0, 1.5 * math.pi]))
        assert np.allclose(back, [0, 0, -math.pi / 2], atol=1e-12)

    def test_same_axis_homomorphism(self):
        rng = RNG(7)
        for _ in range(50):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            a, b = rng.uniform(0, math.pi / 2, size=2)
            lhs = se3._quat_multiply(se3.exp_map(axis * a).q, se3.exp_map(axis * b).q)
            rhs = se3.exp_map(axis * (a + b)).q
            assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            se3.exp_map([np.inf, 0.0, 0.0])
        with pytest.raises(ValueError):
            se3.exp_map([0.0, np.nan, 0.0])


class TestPoseAlgebra:
    def test_compose_matches_matrix_oracle(self):
        rng = RNG(8)
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            got = se3.compose(a, b).matrix()
            want = a.matrix() @ b.matrix()
            assert np.max(np.abs(got - want)) < 1e-12

    def test_inverse_matches_matrix_oracle(self):
        rng = RNG(9)
        for _ in range(100):
            p = random_pose(rng)
            got = se3.inverse(p).matrix()
            want = np.linalg.inv(p.matrix())
            assert np.max(np.abs(got - want)) < 1e-12

    def test_compose_with_inverse_is_identity(self):
        rng = RNG(10)
        for _ in range(50):
            p = random_pose(rng)
            ident = se3.compose(p, se3.inverse(p))
            assert se3.geodesic_angle(ident.rotation, se3.Rotation.identity()) < 1e-12
            assert np.linalg.norm(ident.translation) < 1e-12

    def test_associativity(self):
        rng = RNG(11)
        for _ in range(100):
            a, b, c = (random_pose(rng) for _ in range(3))
            lhs = se3.compose(se3.compose(a, b), c)
            rhs = se3.compose(a, se3.compose(b, c))
            assert se3.geodesic_angle(lhs.rotation, rhs.rotation) < 1e-9
            assert np.linalg.norm(lhs.translation - rhs.translation) < 1e-9

    def test_identity_element(self):
        rng = RNG(12)
        p = random_pose(rng)
        e = se3.RelativePose.identity()
        for other in (se3.compose(p, e), se3.compose(e, p)):
            assert np.allclose(other.rotation.q, p.rotation.q, atol=1e-15)
            assert np.allclose(other.translation, p.translation, atol=1e-15)


class TestQuatRotate:
    def test_matches_cross_product_form_bitwise(self):
        rng = RNG(106)
        for _ in range(500):
            q = se3.Rotation(rng.standard_normal(4)).q
            v = rng.standard_normal(3) * 10.0 ** rng.integers(-3, 4)
            u = q[1:4]
            t = 2.0 * np.cross(u, v)
            assert np.array_equal(se3._quat_rotate(q, v), v + q[0] * t + np.cross(u, t))


class TestQuatMultiply:
    def test_matches_numpy_scalar_form_bitwise(self):
        rng = RNG(107)
        for _ in range(2000):
            a, b = rng.standard_normal((2, 4)) * 10.0 ** rng.integers(-3, 4, size=(2, 1))
            aw, ax, ay, az = a  # numpy float64 scalars
            bw, bx, by, bz = b
            want = np.array([
                aw * bw - ax * bx - ay * by - az * bz,
                aw * bx + ax * bw + ay * bz - az * by,
                aw * by - ax * bz + ay * bw + az * bx,
                aw * bz + ax * by - ay * bx + az * bw,
            ])
            assert np.array_equal(se3._quat_multiply(a, b), want)


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
    """exp_map's quaternion with np.linalg.norm."""
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
    """log_map of a canonical quaternion with np.linalg.norm."""
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
    """Rotation, exp_map and log_map take norms as sqrt of a dot product;
    np.linalg.norm of a 1-d float vector is that same computation."""

    def test_rotation_exp_and_log_bitwise(self):
        quats, rhos = edge_inputs(RNG(108), 2500)
        assert np.sum(np.abs(np.linalg.norm(quats, axis=1) - 1.0) > se3.UNIT_NORM_TOL) >= 1000
        for q in quats:
            got = se3.Rotation(q)
            want = norm_rotation(q)
            assert np.array_equal(got.q, want), q
            assert np.array_equal(np.signbit(got.q), np.signbit(want)), q
            assert np.array_equal(se3.log_map(got), norm_log(want)), q
        for rho in rhos:
            got = se3.exp_map(rho).q
            want = norm_exp(rho)
            assert np.array_equal(got, want), rho
            assert np.array_equal(np.signbit(got), np.signbit(want)), rho
            assert np.array_equal(se3.log_map(se3.Rotation(got)), norm_log(want)), rho

    def test_exact_zeros_and_half_turns_bitwise(self):
        for q in ([0.0, -0.0, 0.6, -0.8], [-0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -0.0, 2.0],
                  [-1.0, -0.0, 0.0, 0.0], [0.0, -0.0, -0.0, -3.0], [3.0, -0.0, -0.0, -0.0]):
            got = se3.Rotation(q).q
            assert np.array_equal(got, norm_rotation(q)), q
            assert np.array_equal(np.signbit(got), np.signbit(norm_rotation(q))), q


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_messages_are_unchanged(self, bad):
        vec = np.array([0.5, bad, -0.5])
        cases = [
            (lambda: se3.MotionState(vec, np.zeros(3)), f"rho contains non-finite values: {vec}"),
            (lambda: se3.MotionState(np.zeros(3), vec), f"trans contains non-finite values: {vec}"),
            (lambda: se3.RelativePose(se3.Rotation.identity(), vec),
             f"translation contains non-finite values: {vec}"),
            (lambda: se3.exp_map(vec), f"rho contains non-finite values: {vec}"),
            (lambda: se3.Rotation(np.append(vec, 1.0)),
             f"quaternion contains non-finite values: {np.append(vec, 1.0)}"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message


def same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def read_only(*arrays):
    return all(isinstance(a, np.ndarray) and not a.flags.writeable for a in arrays)


class TestCheckedBuilders:
    """The chart maps, compose and inverse skip the constructors' checks on
    values already checked; they must build what the constructors build."""

    @staticmethod
    def poses(rng, n):
        quats, _ = edge_inputs(rng, n)
        # Accepted without normalizing, so products can leave the tolerance.
        near_unit = quats[n // 5:2 * n // 5] * (1.0 + rng.uniform(-1e-9, 1e-9, (n // 5, 1)))
        quats = np.concatenate([quats, near_unit])
        trans = rng.standard_normal((len(quats), 3)) * 10.0 ** rng.integers(-3, 4, (len(quats), 1))
        return [se3.RelativePose(se3.Rotation(q), t) for q, t in zip(quats, trans)]

    def test_chart_maps_match_constructors_bitwise(self):
        rng = RNG(110)
        _, rhos = edge_inputs(rng, 2500)
        for rho, trans in zip(rhos, rng.standard_normal((len(rhos), 3))):
            state = se3.MotionState(rho, trans)
            got, want = se3.state_to_pose(state), se3.RelativePose(se3.exp_map(rho), trans)
            assert same_bits(got.rotation.q, want.rotation.q), rho
            assert same_bits(got.translation, want.translation), rho
        for pose in self.poses(rng, 2500):
            got = se3.pose_to_state(pose)
            want = se3.MotionState(se3.log_map(pose.rotation), pose.translation)
            assert same_bits(got.as_vector(), want.as_vector()), pose.rotation.q

    def test_compose_and_inverse_match_constructors_bitwise(self):
        poses = self.poses(RNG(111), 2500)
        for a, b in zip(poses, poses[1:] + poses[:1]):
            qa, qb = a.rotation.q, b.rotation.q
            got = se3.compose(a, b)
            want = se3.RelativePose(se3.Rotation(se3._quat_multiply(qa, qb)),
                                    se3._quat_rotate(qa, b.translation) + a.translation)
            assert same_bits(got.rotation.q, want.rotation.q), (qa, qb)
            assert same_bits(got.translation, want.translation), (qa, qb)
            q_inv = se3._quat_conjugate(qa)
            got = se3.inverse(a)
            want = se3.RelativePose(se3.Rotation(q_inv), -se3._quat_rotate(q_inv, a.translation))
            assert same_bits(got.rotation.q, want.rotation.q), qa
            assert same_bits(got.translation, want.translation), qa

    def test_results_hold_read_only_arrays(self):
        a, b = self.poses(RNG(112), 10)[2:4]
        state = se3.MotionState([0.3, -0.2, 0.1], [1.0, 2.0, 3.0])
        assert read_only(se3.exp_map([0.3, -0.2, 0.1]).q)
        for pose in (se3.state_to_pose(state), se3.compose(a, b), se3.inverse(a)):
            assert isinstance(pose.rotation, se3.Rotation)
            assert read_only(pose.rotation.q, pose.translation)
        back = se3.pose_to_state(a)
        assert read_only(back.rho, back.trans)

    def test_overflowing_translation_is_rejected(self):
        big = se3.RelativePose(se3.Rotation.identity(), [1e308, 0.0, 0.0])
        with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
            se3.compose(big, big)  # 1e308 + 1e308 overflows in the add
        assert str(err.value) == "translation contains non-finite values: [inf  0.  0.]"
        # A quarter turn about z carries 1.7e308 past the float range.
        turned = se3.RelativePose(se3.exp_map([0.0, 0.0, math.pi / 2]), [1.7e308, 0.0, 0.0])
        for build in (lambda: se3.inverse(turned), lambda: se3.compose(turned, turned)):
            with pytest.raises(ValueError, match="^translation contains non-finite values"):
                build()


class TestStateChart:
    @given(rotvec_strategy(), st.tuples(*[st.floats(-10, 10)] * 3))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, rho, trans):
        state = se3.MotionState(np.array(rho), np.array(trans))
        back = se3.pose_to_state(se3.state_to_pose(state))
        assert np.linalg.norm(back.as_vector() - state.as_vector()) < 1e-9

    def test_vector_round_trip(self):
        vec = np.array([0.1, -0.2, 0.3, 1.0, 2.0, -3.0])
        assert np.array_equal(se3.MotionState.from_vector(vec).as_vector(), vec)

    def test_translation_is_passthrough(self):
        # The chart never couples translation to rotation.
        state = se3.MotionState([0.5, -0.4, 0.3], [7.0, -8.0, 9.0])
        pose = se3.state_to_pose(state)
        assert np.array_equal(pose.translation, state.trans)

    def test_geodesic_angle_symmetry_and_known_value(self):
        a = se3.exp_map([0, 0, 0.3])
        b = se3.exp_map([0, 0, -0.4])
        assert abs(se3.geodesic_angle(a, b) - 0.7) < 1e-12
        assert abs(se3.geodesic_angle(b, a) - 0.7) < 1e-12
        assert se3.geodesic_angle(a, a) == 0.0


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
        # The array path is Rotation and log_map in the same operation
        # order, so each row equals the per-row log bit for bit.
        batch = se3.sample_initial_batch(RNG(105), 2000)
        normals = RNG(105).standard_normal((2000, 7))
        assert np.array_equal(batch[:, 3:], normals[:, :3])
        rho = np.stack([se3.log_map(se3.Rotation(q)) for q in normals[:, 3:]])
        assert np.array_equal(batch[:, :3], rho)

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
            want = se3.log_map(se3.Rotation(q))
            assert np.array_equal(row[:3], want), q
            assert np.array_equal(np.signbit(row[:3]), np.signbit(want)), q
            assert np.array_equal(row[3:], t)
        assert np.allclose(batch[1, :3], [0.0, 0.6 * math.pi, -0.8 * math.pi])
        with pytest.raises(ValueError, match="norm is zero"):
            se3.sample_initial_batch(Stub([t + [0.0, 0.0, 0.0, 0.0]]), 1)

    def test_determinism(self):
        a = se3.sample_initial_batch(RNG(104), 64)
        b = se3.sample_initial_batch(RNG(104), 64)
        assert np.array_equal(a, b)
