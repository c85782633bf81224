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
        assert r.w > 0
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

    def test_matrix_round_trip(self):
        rng = RNG(4)
        for _ in range(50):
            r = se3.Rotation(rng.standard_normal(4))
            back = se3.rotation_from_matrix(r.matrix())
            assert np.allclose(back.q, r.q, atol=1e-12)


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
