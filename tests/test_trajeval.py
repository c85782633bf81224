"""Trajectory metric tests.

Alignment oracles: a coarse-to-fine brute-force search over rotations
with closed-form scale/translation per candidate, and a general-purpose
simplex optimizer over the full similarity parameterization.  The noisy
fixture values are frozen from the optimizer reference (agreement with
the closed form was 3e-17 when frozen).
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

import motionflow
from conftest import rotation_matrix
from motionflow import se3, synthworld, trajeval

RNG = np.random.default_rng

# Frozen reference values for the seeded noisy fixture below.
FIXTURE_ATE_SIM3 = 0.076093965625940924
FIXTURE_ATE_SE3 = 0.081491245904124959
FIXTURE_ATE_NONE = 0.091316808338153921


def rotvec_matrix(rho):
    """The rotation matrix of a rotation vector, from scipy."""
    return ScipyRotation.from_rotvec(rho).as_matrix()


def scipy_quat(rho):
    """The (w, x, y, z) quaternion of rotation vectors, from scipy."""
    return np.roll(ScipyRotation.from_rotvec(rho).as_quat(), 1, axis=-1)


def at_positions(points):
    """A trajectory through points, unrotated, at stamps 0..n-1."""
    points = np.asarray(points, dtype=np.float64)
    return trajeval.Trajectory(np.arange(float(len(points))),
                               np.tile([1.0, 0.0, 0.0, 0.0], (len(points), 1)), points)


def noisy_fixture():
    """Random-walk ground truth and a perturbed estimate, fixed seeds."""
    rng = RNG(2024)
    gt = synthworld.make_trajectory("random-walk", 12, rng)
    noise = RNG(77)
    drho, dt = np.empty((len(gt), 3)), np.empty((len(gt), 3))
    for i in range(len(gt)):
        drho[i] = noise.standard_normal(3) * 0.02
        dt[i] = noise.standard_normal(3) * 0.05
    turned, _ = se3.compose((gt.q, gt.t), (scipy_quat(drho), np.zeros((len(gt), 3))))
    return trajeval.Trajectory(gt.stamps, turned, gt.t + dt), gt


def transform_trajectory(traj, scale, rho, translation):
    """Apply a similarity transform, its rotation given as a rotation
    vector, to every pose of a trajectory."""
    q = np.tile(scipy_quat(rho), (len(traj), 1))
    turned, _ = se3.compose((q, np.zeros((len(traj), 3))), (traj.q, traj.t))
    return trajeval.Trajectory(traj.stamps, turned,
                               scale * (traj.t @ rotvec_matrix(rho).T) + translation)


def test_import_loads_only_se3_and_textio():
    """trajeval stands on se3 and textio alone: importing it in a fresh
    interpreter loads no synthesis, network or training module."""
    src = str(Path(motionflow.__file__).resolve().parent.parent)
    code = ("import sys, motionflow.trajeval; "
            "print(sorted(m for m in sys.modules if m.startswith('motionflow')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == str(["motionflow", "motionflow.se3", "motionflow.textio",
                               "motionflow.trajeval"])


IDENTITY_ROWS = ([[1.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])


class TestTrajectoryType:
    @pytest.mark.parametrize("stamps, q, t, message", [
        ([0.0, 1.0], *IDENTITY_ROWS, "2 stamps for 1 poses"),
        ([], np.zeros((0, 4)), np.zeros((0, 3)), "trajectory must contain at least one pose"),
        ([0.0, 1.0], [[1.0, 0.0, 0.0, 0.0]] * 2, [[0.0, 0.0, 0.0]], "2 rotations for 1 translations"),
        ([0.0], [[1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]],
         "quaternion rows must have 4 components, got shape (1, 3)"),
    ], ids=["count-mismatch", "empty", "stack-mismatch", "quaternion-shape"])
    def test_rejects(self, stamps, q, t, message):
        with pytest.raises(ValueError) as err:
            trajeval.Trajectory(stamps, q, t)
        assert str(err.value) == message

    @pytest.mark.parametrize("stamps, q, t, row, message", [
        ([0.0, 1.0, 1.0], [[1.0, 0, 0, 0]] * 3, [[0.0, 0, 0]] * 3, 2,
         "stamps must be finite and strictly increasing"),
        ([0.0, 1.0], [[1.0, 0, 0, 0], [0.0, 0, 0, 0]], [[0.0, 0, 0]] * 2, 1,
         "quaternion norm is zero or not finite: 0.0"),
        ([0.0, 1.0], [[1.0, 0, 0, 0]] * 2, [[0.0, 0, 0], [0, math.nan, 0]], 1,
         "translation contains non-finite values: [ 0. nan  0.]"),
    ], ids=["stamp", "quaternion", "translation"])
    def test_bad_pose_is_named(self, stamps, q, t, row, message):
        with pytest.raises(se3.RowError) as err:
            trajeval.Trajectory(stamps, q, t)
        assert (err.value.row, str(err.value)) == (row, message)

    FAULTS = {
        "stamp": "stamps must be finite and strictly increasing",
        "nan-quaternion": "quaternion contains non-finite values: [nan  0.  0.  0.]",
        "zero-quaternion": "quaternion norm is zero or not finite: 0.0",
        "translation": "translation contains non-finite values: [ 0. nan  0.]",
    }

    @staticmethod
    def spoil(stamps, q, t, fault, row):
        """Give pose row of the stacks one fault of the named kind."""
        if fault == "stamp":
            stamps[row] = stamps[row - 1]
        elif fault == "nan-quaternion":
            q[row, 0] = math.nan
        elif fault == "zero-quaternion":
            q[row] = 0.0
        else:
            t[row, 1] = math.nan

    @pytest.mark.parametrize("first, second", itertools.permutations(FAULTS, 2))
    def test_first_bad_pose_is_named_whatever_its_fault(self, first, second):
        stamps, q, t = np.arange(4.0), np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)), np.zeros((4, 3))
        self.spoil(stamps, q, t, second, 2)
        self.spoil(stamps, q, t, first, 1)
        with pytest.raises(se3.RowError) as err:
            trajeval.Trajectory(stamps, q, t)
        assert (err.value.row, str(err.value)) == (1, self.FAULTS[first])

    def test_holds_read_only_canonical_stacks(self):
        traj = trajeval.Trajectory([0.0, 1.0], [[-2.0, 0, 0, 0], [0.0, 0, -1.0, 0]],
                                   [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.array_equal(traj.q, [[1, 0, 0, 0], [0, 0, 1, 0]])
        assert all(not a.flags.writeable for a in (traj.stamps, traj.q, traj.t))
        assert traj.positions() is traj.t


class TestComposeTrajectory:
    def test_empty_rels(self):
        start = (scipy_quat([[0, 0, 0.5]]), np.array([[1.0, 2.0, 3.0]]))
        traj = trajeval.compose_trajectory(start, (np.zeros((0, 4)), np.zeros((0, 3))))
        assert len(traj) == 1
        assert np.array_equal(traj.positions(), [[1, 2, 3]])

    def test_unit_x_line(self):
        rels = (np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), np.tile([1.0, 0.0, 0.0], (3, 1)))
        traj = trajeval.compose_trajectory(se3.IDENTITY, rels)
        assert np.allclose(traj.positions(),
                           [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        assert np.array_equal(traj.stamps, [0, 1, 2, 3])

    def test_inverts_scenario_relative_motions(self):
        scenario = synthworld.make_scenario("c", "figure8", 25, 0.0, 0.0, RNG(1))
        gt = scenario.gt_trajectory
        rels = se3.state_to_pose(np.stack([p.target.as_vector() for p in scenario.pairs]))
        rebuilt = trajeval.compose_trajectory((gt.q[:1], gt.t[:1]), rels)
        assert np.all(se3.geodesic_angles(rebuilt.q, gt.q) < 1e-9)
        assert np.max(np.abs(rebuilt.positions() - gt.positions())) < 1e-9


class TestScaleAlign:
    def make_rels(self, rng, n):
        return rng.standard_normal((n, 3))

    def test_identity_when_equal(self):
        rng = RNG(2)
        rels = self.make_rels(rng, 6)
        for mode in ("per_pair", "global"):
            out = trajeval.scale_align(rels, rels, mode)
            assert np.allclose(out, rels, atol=1e-12)

    def test_per_pair_doubles_back_exactly(self):
        rng = RNG(3)
        gt = self.make_rels(rng, 5)
        out = trajeval.scale_align(2.0 * gt, gt, "per_pair")
        assert np.array_equal(out, gt)

    def test_per_pair_norms_match_gt(self):
        rng = RNG(4)
        gt = self.make_rels(rng, 8)
        est = self.make_rels(rng, 8)
        out = trajeval.scale_align(est, gt, "per_pair")
        for got, g, e in zip(out, gt, est):
            want_norm = np.linalg.norm(g)
            assert abs(np.linalg.norm(got) - want_norm) < 1e-12
            # direction preserved
            assert np.linalg.norm(np.cross(got, e)) < 1e-9

    def test_zero_norm_gt_passes_through(self):
        out = trajeval.scale_align([[0.5, 0.5, 0.0]], [[0.0, 0.0, 0.0]], "per_pair")
        assert np.array_equal(out, [[0.5, 0.5, 0.0]])

    def test_global_matches_line_search_oracle(self):
        rng = RNG(5)
        gt = self.make_rels(rng, 10)
        est = self.make_rels(rng, 10)
        out = trajeval.scale_align(est, gt, "global")
        applied = float(np.dot(out[0], est[0]) / np.dot(est[0], est[0]))  # signed

        def cost(s):
            return float(np.sum((s * est - gt) ** 2))

        # Coarse-to-fine scalar search.
        lo, hi = -4.0, 4.0
        for _ in range(40):
            grid = np.linspace(lo, hi, 41)
            best = grid[int(np.argmin([cost(s) for s in grid]))]
            span = (hi - lo) / 40
            lo, hi = best - span, best + span
        assert abs(applied - best) < 1e-6
        # All pairs share the same scale.
        assert np.allclose(out, applied * est, rtol=0, atol=1e-9)

    def test_rejects_length_mismatch(self):
        rng = RNG(6)
        with pytest.raises(ValueError):
            trajeval.scale_align(self.make_rels(rng, 3), self.make_rels(rng, 4))

    def test_rejects_unknown_mode(self):
        rng = RNG(7)
        rels = self.make_rels(rng, 2)
        with pytest.raises(ValueError):
            trajeval.scale_align(rels, rels, "per_frame")

    def test_returns_a_fresh_stack(self):
        est, gt = self.make_rels(RNG(9), 4), self.make_rels(RNG(10), 4)
        kept = est.copy()
        for mode in ("per_pair", "global"):
            out = trajeval.scale_align(est, gt, mode)
            assert out is not est and out.shape == (4, 3)
        assert np.array_equal(est, kept)

    @staticmethod
    def translations(est, gt, mode):
        return trajeval.scale_align(np.array(est, dtype=float), np.array(gt, dtype=float),
                                    mode).tolist()

    # Each case has a square (or product) that underflows to 0 or a subnormal;
    # only the zero vector is a zero motion, so every other one is rescaled.
    @pytest.mark.parametrize("mode, est, gt, want", [
        ("per_pair", [[1e-200, 0, 0]], [[1, 0, 0]], [[1, 0, 0]]),
        ("per_pair", [[1, 0, 0]], [[1e-200, 0, 0]], [[1e-200, 0, 0]]),
        ("per_pair", [[1e-300, 1e-300, 0]], [[1, 0, 0]], [[0.5 ** 0.5, 0.5 ** 0.5, 0]]),
        ("global", [[1e-170, 1e-170, 0]], [[1e-170, 0, 0]], [[5e-171, 5e-171, 0]]),
        ("global", [[1e-100, 0, 0]], [[1e-250, 0, 0]], [[1e-250, 0, 0]]),
        ("global", [[1e-170, 0, 0], [0, 2e-170, 0]], [[0, 0, 1]] * 2, [[0, 0, 0]] * 2),
        ("global", [[0, 0, 0]], [[1e-170, 0, 0]], [[0, 0, 0]]),
        # gt_norm / est_norm overflows; est's direction times gt's norm does not
        ("per_pair", [[1e-160, 1e-160, 1e-160]], [[1e150, 0, 0]], [[1e150 / 3 ** 0.5] * 3]),
        ("per_pair", [[1e-300, 1e-300, 0]], [[1e10, 0, 0]], [[1e10 * 0.5 ** 0.5] * 2 + [0]]),
    ], ids=["per-pair-est", "per-pair-gt", "per-pair-subnormal", "global-den",
            "global-num", "global-orthogonal", "global-zero-est", "per-pair-ratio",
            "per-pair-tiny-ratio"])
    def test_underflowing_squares_still_rescale(self, mode, est, gt, want):
        got = self.translations(est, gt, mode)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("size", [1.0, 1e-3, 1e-140, 1e100])
    def test_bits_kept_where_nothing_underflows(self, size):
        rng = RNG(8)
        est, gt = size * self.make_rels(rng, 12), size * self.make_rels(rng, 12)
        for e, g, got in zip(est, gt, trajeval.scale_align(est, gt, "per_pair")):
            ratio = float(np.linalg.norm(g)) / float(np.linalg.norm(e))
            assert got.tobytes() == (e * ratio).tobytes()
        num = sum(float(np.dot(e, g)) for e, g in zip(est, gt))
        den = sum(float(np.dot(e, e)) for e in est)
        for e, got in zip(est, trajeval.scale_align(est, gt, "global")):
            assert got.tobytes() == (e * (num / den)).tobytes()

    @pytest.mark.parametrize("mode, est, gt", [
        ("per_pair", [[1e200, 0, 0]], [[1, 0, 0]]),              # a norm overflows
        ("global", [[1e154, 0, 0]] * 2, [[1, 0, 0]] * 2),        # only the sum does
        ("global", [[5e-324, 0, 0]], [[1e10, 0, 0]]),            # the scale of tiny sums
    ], ids=["per-pair-norm", "global-sum", "global-tiny-scale"])
    def test_overflow_raises_without_a_warning(self, mode, est, gt, recwarn):
        with pytest.raises(FloatingPointError, match="overflow"):
            self.translations(est, gt, mode)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestUmeyama:
    def test_identity_when_equal(self):
        traj = synthworld.make_trajectory("random-walk", 10, RNG(8))
        result = trajeval.umeyama_align(traj, traj, with_scale=True)
        assert abs(result.scale - 1.0) < 1e-12
        assert np.max(np.abs(result.rotation - np.eye(3))) < 1e-9
        assert np.max(np.abs(result.translation)) < 1e-12
        assert result.ate_rmse < 1e-12

    def test_recovers_known_similarity(self):
        est = synthworld.make_trajectory("random-walk", 15, RNG(9))
        rho = [0.0, 0.0, math.pi / 2]
        gt = transform_trajectory(est, 2.0, rho, np.array([1.0, 2.0, 3.0]))
        result = trajeval.umeyama_align(est, gt, with_scale=True)
        assert abs(result.scale - 2.0) < 1e-9
        assert np.max(np.abs(result.rotation - rotvec_matrix(rho))) < 1e-9
        assert np.max(np.abs(result.translation - [1, 2, 3])) < 1e-9
        assert result.ate_rmse < 1e-9

    def test_reflection_guard(self):
        # A near-planar cloud plus noise tempts the SVD toward an improper
        # solution; det(R) must still come out +1.
        rng = RNG(10)
        pts = rng.standard_normal((12, 3))
        pts[:, 2] *= 1e-3
        mirrored = pts * np.array([1.0, 1.0, -1.0]) + rng.standard_normal((12, 3)) * 0.01
        a, b = at_positions(pts), at_positions(mirrored)
        result = trajeval.umeyama_align(a, b, with_scale=True)
        assert abs(np.linalg.det(result.rotation) - 1.0) < 1e-9

    def test_matches_brute_force_oracle(self):
        rng = RNG(11)
        pts_est = rng.standard_normal((10, 3))
        pts_gt = rng.standard_normal((10, 3))
        est, gt = at_positions(pts_est), at_positions(pts_gt)
        result = trajeval.umeyama_align(est, gt, with_scale=True)

        x, y = pts_est, pts_gt
        mu_x, mu_y = x.mean(0), y.mean(0)
        xc, yc = x - mu_x, y - mu_y

        def rmse_for_rotation(rho):
            rot = rotvec_matrix(rho)
            # closed-form optimal scale and translation for this rotation
            num = float(np.sum(yc * (xc @ rot.T)))
            den = float(np.sum(xc * xc))
            s = max(num / den, 1e-12)
            t = mu_y - s * (rot @ mu_x)
            resid = s * (x @ rot.T) + t - y
            return float(np.sqrt(np.mean(np.sum(resid * resid, axis=1))))

        # Coarse stage: random rotation sweep.
        search = RNG(12)
        best_rho, best_val = None, np.inf
        for _ in range(4000):
            rho = ScipyRotation.from_quat(search.standard_normal(4)).as_rotvec()
            val = rmse_for_rotation(rho)
            if val < best_val:
                best_rho, best_val = rho, val
        # Fine stage: shrinking local perturbations.
        radius = 0.3
        while radius > 1e-6:
            improved = False
            for _ in range(60):
                cand = best_rho + search.standard_normal(3) * radius
                val = rmse_for_rotation(cand)
                if val < best_val:
                    best_rho, best_val, improved = cand, val, True
            if not improved:
                radius *= 0.5
        assert abs(result.ate_rmse - best_val) < 1e-3

    def test_never_beaten_by_random_similarities(self):
        est, gt = noisy_fixture()
        result = trajeval.umeyama_align(est, gt, with_scale=True)
        x, y = est.positions(), gt.positions()
        rng = RNG(13)
        for _ in range(10_000):
            rot = rotation_matrix(rng.standard_normal(4))
            s = float(np.exp(rng.uniform(-1.5, 1.5)))
            t = rng.standard_normal(3) * 2.0
            resid = s * (x @ rot.T) + t - y
            rmse = float(np.sqrt(np.mean(np.sum(resid * resid, axis=1))))
            assert rmse >= result.ate_rmse - 1e-12

    def test_rejects_short_or_mismatched(self):
        traj3 = synthworld.make_trajectory("random-walk", 3, RNG(14))
        traj4 = synthworld.make_trajectory("random-walk", 4, RNG(15))
        with pytest.raises(ValueError):
            trajeval.umeyama_align(traj3, traj4)
        two = at_positions([[0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            trajeval.umeyama_align(two, two)

    def test_collinear_raises_degeneracy(self):
        line = synthworld.make_trajectory("line", 6, RNG(16))
        with pytest.raises(trajeval.DegenerateTrajectoryError):
            trajeval.umeyama_align(line, line, with_scale=True)


class TestAte:
    def test_identical_is_zero(self):
        traj = synthworld.make_trajectory("figure8", 20, RNG(17))
        assert trajeval.ate(traj, traj, "none") == 0.0
        assert trajeval.ate(traj, traj, "sim3") < 1e-12

    def test_shift_pythagoras(self):
        traj = synthworld.make_trajectory("random-walk", 9, RNG(18))
        shifted = trajeval.Trajectory(traj.stamps, traj.q, traj.t + np.array([3.0, 4.0, 0.0]))
        assert abs(trajeval.ate(shifted, traj, "none") - 5.0) < 1e-12

    def test_fixture_matches_frozen_reference(self):
        est, gt = noisy_fixture()
        assert abs(trajeval.ate(est, gt, "sim3") - FIXTURE_ATE_SIM3) < 1e-9
        assert abs(trajeval.ate(est, gt, "se3") - FIXTURE_ATE_SE3) < 1e-9
        assert abs(trajeval.ate(est, gt, "none") - FIXTURE_ATE_NONE) < 1e-9

    def test_fixture_matches_live_optimizer_reference(self):
        from scipy.optimize import minimize

        est, gt = noisy_fixture()
        x, y = est.positions(), gt.positions()

        def objective(params):
            rot = rotvec_matrix(params[:3])
            s = float(np.exp(params[6]))
            resid = s * (x @ rot.T) + params[3:6] - y
            return float(np.sqrt(np.mean(np.sum(resid * resid, axis=1))))

        opt_rng = RNG(19)
        best = np.inf
        for _ in range(10):
            p0 = np.concatenate([
                opt_rng.uniform(-1.8, 1.8, 3), opt_rng.standard_normal(3), [0.0]])
            res = minimize(objective, p0, method="Nelder-Mead",
                           options={"maxiter": 20000, "xatol": 1e-12, "fatol": 1e-14})
            best = min(best, float(res.fun))
        assert abs(trajeval.ate(est, gt, "sim3") - best) < 1e-6

    def test_rigid_transform_invariance(self):
        est, gt = noisy_fixture()
        base = trajeval.ate(est, gt, "sim3")
        rho = [0.3, -0.4, 0.5]
        shift = np.array([5.0, -2.0, 1.0])
        est_t = transform_trajectory(est, 1.0, rho, shift)
        gt_t = transform_trajectory(gt, 1.0, rho, shift)
        assert abs(trajeval.ate(est_t, gt_t, "sim3") - base) < 1e-9

    def test_sim3_invariant_to_estimate_rescaling(self):
        est, gt = noisy_fixture()
        base = trajeval.ate(est, gt, "sim3")
        for s in (0.1, 3.7, 42.0):
            scaled = transform_trajectory(est, s, np.zeros(3), np.zeros(3))
            assert abs(trajeval.ate(scaled, gt, "sim3") - base) < 1e-9

    @pytest.mark.parametrize("align", trajeval.ALIGN_MODES)
    def test_overflow_raises_without_a_warning(self, align, recwarn):
        # Finite positions whose differences and centroids overflow.
        def traj(x):
            return at_positions([[x, y, z] for y, z in ((0, 0), (1, 0), (0, 1), (1, 1))])

        with pytest.raises(FloatingPointError, match="overflow"):
            trajeval.ate(traj(1e308), traj(-1e308), align)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_rejects_bad_mode_and_lengths(self):
        traj = synthworld.make_trajectory("random-walk", 5, RNG(20))
        other = synthworld.make_trajectory("random-walk", 6, RNG(21))
        with pytest.raises(ValueError):
            trajeval.ate(traj, traj, "teleport")
        with pytest.raises(ValueError):
            trajeval.ate(traj, other, "none")


class TestFileFormats:
    def test_tum_round_trip_bytes(self, tmp_path):
        traj = synthworld.make_trajectory("random-walk", 8, RNG(27))
        p1, p2 = tmp_path / "a.tum", tmp_path / "b.tum"
        trajeval.write_tum(p1, traj)
        loaded = trajeval.read_tum(p1)
        trajeval.write_tum(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        for name in ("stamps", "q", "t"):
            assert np.array_equal(getattr(loaded, name), getattr(traj, name))

    def test_tum_ignores_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.tum"
        path.write_text("# header\n\n0 1 2 3 0 0 0 1\n1 2 3 4 0 0 0 1\n")
        traj = trajeval.read_tum(path)
        assert len(traj) == 2
        assert np.array_equal(traj.t[0], [1, 2, 3])

    def test_tum_field_count_error(self, tmp_path):
        path = tmp_path / "bad.tum"
        path.write_text("0 1 2 3 0 0 1\n")
        with pytest.raises(ValueError, match=":1"):
            trajeval.read_tum(path)

    @pytest.mark.parametrize("line", [
        "0 1 2 3 0 0 0 1e200",   # squared quaternion norm overflows
        "0 1 2 3 0 0 0 0",       # zero quaternion
        "0 nan 2 3 0 0 0 1",     # non-finite translation
    ])
    def test_tum_bad_pose_names_its_line(self, tmp_path, line):
        path = tmp_path / "bad.tum"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=r"bad\.tum:1: "):
            trajeval.read_tum(path)

    @pytest.mark.parametrize("stamps", ["0 nan 2", "0 2 1", "0 inf", "nan"])
    def test_tum_stamps_must_be_finite_and_increasing(self, tmp_path, stamps):
        path = tmp_path / "stamps.tum"
        path.write_text("".join(f"{s} 0 0 0 0 0 0 1\n" for s in stamps.split()))
        with pytest.raises(ValueError, match=r"stamps\.tum:\d+: stamps must be finite"):
            trajeval.read_tum(path)

    @pytest.mark.parametrize("lines, bad", [
        (["0", "1", "1"], 3),             # a repeated stamp
        (["# header", "0", "", "2", "1.5"], 5),  # comments and blanks count
        (["0", "inf", "2"], 2),
        (["nan", "1"], 1),
    ], ids=["repeated", "after-comment-and-blank", "infinite", "nan-first"])
    def test_tum_bad_stamp_names_its_line(self, tmp_path, lines, bad):
        path = tmp_path / "dup.tum"
        path.write_text("".join(line + ("" if not line or line.startswith("#")
                                        else " 0 0 0 0 0 0 1") + "\n" for line in lines))
        with pytest.raises(ValueError) as err:
            trajeval.read_tum(path)
        assert str(err.value) == f"{path}:{bad}: stamps must be finite and strictly increasing"

    def test_tum_bad_pose_after_good_lines_names_its_line(self, tmp_path):
        path = tmp_path / "bad.tum"
        path.write_text("0 0 0 0 0 0 0 1\n# note\n1 0 0 0 0 0 0 1\n2 0 0 0 0 0 0 0\n")
        with pytest.raises(ValueError) as err:
            trajeval.read_tum(path)
        assert str(err.value) == f"{path}:4: quaternion norm is zero or not finite: 0.0"

    @pytest.mark.parametrize("second, third, message", [
        ("1 0 nan 0 0 0 0 1", "2 0 0 0 0 0 0 0",
         "translation contains non-finite values: [ 0. nan  0.]"),
        ("1 0 0 0 0 0 0 0", "2 0 nan 0 0 0 0 1", "quaternion norm is zero or not finite: 0.0"),
        ("0 0 0 0 0 0 0 1", "2 0 nan 0 0 0 0 1", "stamps must be finite and strictly increasing"),
    ], ids=["translation-then-quaternion", "quaternion-then-translation", "stamp-then-translation"])
    def test_tum_faults_of_two_kinds_name_the_first_line(self, tmp_path, second, third, message):
        path = tmp_path / "two.tum"
        path.write_text(f"0 0 0 0 0 0 0 1\n{second}\n{third}\n")
        with pytest.raises(ValueError) as err:
            trajeval.read_tum(path)
        assert str(err.value) == f"{path}:2: {message}"

    def test_metrics_csv(self, tmp_path):
        path = tmp_path / "metrics.csv"
        trajeval.write_metrics_csv(path, [
            ("figure8", "sim3", "per_pair", 0.25, 0.01, 0.02),
        ])
        lines = path.read_text().splitlines()
        assert lines[0] == ("scenario,align_mode,scale_mode,ate_rmse,"
                            "mean_std_rot,mean_std_trans")
        cells = lines[1].split(",")
        assert cells[0] == "figure8" and float(cells[3]) == 0.25
