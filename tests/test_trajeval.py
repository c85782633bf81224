"""Trajectory metric tests.

Alignment oracles: a coarse-to-fine brute-force search over rotations
with closed-form scale/translation per candidate, and a general-purpose
simplex optimizer over the full similarity parameterization.  The noisy
fixture values are frozen from the optimizer reference (agreement with
the closed form was 3e-17 when frozen).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import motionflow
from motionflow import se3, synthworld, trajeval

RNG = np.random.default_rng

# Frozen reference values for the seeded noisy fixture below.
FIXTURE_ATE_SIM3 = 0.076093965625940924
FIXTURE_ATE_SE3 = 0.081491245904124959
FIXTURE_ATE_NONE = 0.091316808338153921


def noisy_fixture():
    """Random-walk ground truth and a perturbed estimate, fixed seeds."""
    rng = RNG(2024)
    gt = synthworld.make_trajectory("random-walk", 12, rng)
    noise = RNG(77)
    est_poses = []
    for p in gt.poses:
        drho = noise.standard_normal(3) * 0.02
        dt = noise.standard_normal(3) * 0.05
        est_poses.append(se3.RelativePose(
            se3.Rotation(se3._quat_multiply(p.rotation.q, se3.exp_map(drho).q)),
            p.translation + dt))
    return trajeval.Trajectory(gt.stamps, est_poses), gt


def transform_trajectory(traj, scale, rotation, translation):
    """Apply a similarity transform to every pose of a trajectory."""
    rot_m = rotation.matrix()
    poses = [
        se3.RelativePose(
            se3.Rotation(se3._quat_multiply(rotation.q, p.rotation.q)),
            scale * (rot_m @ p.translation) + translation)
        for p in traj.poses
    ]
    return trajeval.Trajectory(traj.stamps, poses)


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


class TestTrajectoryType:
    @pytest.mark.parametrize("stamps, poses, error, message", [
        ([0.0, 1.0], [se3.RelativePose.identity()], ValueError, "2 stamps for 1 poses"),
        ([], [], ValueError, "trajectory must contain at least one pose"),
        ([0.0, 1.0], [se3.RelativePose.identity(), se3.MotionState(np.zeros(3), np.zeros(3))],
         TypeError, "pose 1 is not a RelativePose"),
    ], ids=["count-mismatch", "empty", "pose-type"])
    def test_rejects(self, stamps, poses, error, message):
        with pytest.raises(error) as err:
            trajeval.Trajectory(stamps, poses)
        assert str(err.value) == message


class TestComposeTrajectory:
    def test_empty_rels(self):
        start = se3.RelativePose(se3.exp_map([0, 0, 0.5]), [1.0, 2.0, 3.0])
        traj = trajeval.compose_trajectory(start, [])
        assert len(traj) == 1
        assert np.array_equal(traj.poses[0].translation, [1, 2, 3])

    def test_unit_x_line(self):
        rel = se3.RelativePose(se3.Rotation.identity(), [1.0, 0.0, 0.0])
        traj = trajeval.compose_trajectory(se3.RelativePose.identity(), [rel] * 3)
        assert np.allclose(traj.positions(),
                           [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        assert np.array_equal(traj.stamps, [0, 1, 2, 3])

    def test_inverts_scenario_relative_motions(self):
        scenario = synthworld.make_scenario("c", "figure8", 25, 0.0, 0.0, RNG(1))
        rels = [se3.RelativePose(se3.exp_map(p.target.rho), p.target.trans)
                for p in scenario.pairs]
        rebuilt = trajeval.compose_trajectory(scenario.gt_trajectory.poses[0], rels)
        for got, want in zip(rebuilt.poses, scenario.gt_trajectory.poses):
            assert se3.geodesic_angle(got.rotation, want.rotation) < 1e-9
            assert np.linalg.norm(got.translation - want.translation) < 1e-9


class TestScaleAlign:
    def make_rels(self, rng, n):
        return [
            se3.RelativePose(se3.Rotation(rng.standard_normal(4)),
                             rng.standard_normal(3))
            for _ in range(n)
        ]

    def test_identity_when_equal(self):
        rng = RNG(2)
        rels = self.make_rels(rng, 6)
        for mode in ("per_pair", "global"):
            out = trajeval.scale_align(rels, rels, mode)
            for got, want in zip(out, rels):
                assert np.allclose(got.translation, want.translation, atol=1e-12)
                assert np.array_equal(got.rotation.q, want.rotation.q)

    def test_per_pair_doubles_back_exactly(self):
        rng = RNG(3)
        gt = self.make_rels(rng, 5)
        est = [se3.RelativePose(g.rotation, 2.0 * g.translation) for g in gt]
        out = trajeval.scale_align(est, gt, "per_pair")
        for got, want in zip(out, gt):
            assert np.array_equal(got.translation, want.translation)

    def test_per_pair_norms_match_gt(self):
        rng = RNG(4)
        gt = self.make_rels(rng, 8)
        est = self.make_rels(rng, 8)
        out = trajeval.scale_align(est, gt, "per_pair")
        for got, g, e in zip(out, gt, est):
            want_norm = np.linalg.norm(g.translation)
            assert abs(np.linalg.norm(got.translation) - want_norm) < 1e-12
            # direction preserved
            cross = np.cross(got.translation, e.translation)
            assert np.linalg.norm(cross) < 1e-9

    def test_zero_norm_gt_passes_through(self):
        est = [se3.RelativePose(se3.Rotation.identity(), [0.5, 0.5, 0.0])]
        gt = [se3.RelativePose(se3.Rotation.identity(), [0.0, 0.0, 0.0])]
        out = trajeval.scale_align(est, gt, "per_pair")
        assert np.array_equal(out[0].translation, [0.5, 0.5, 0.0])

    def test_global_matches_line_search_oracle(self):
        rng = RNG(5)
        gt = self.make_rels(rng, 10)
        est = self.make_rels(rng, 10)
        out = trajeval.scale_align(est, gt, "global")
        applied = float(np.linalg.norm(out[0].translation)
                        / np.linalg.norm(est[0].translation))

        def cost(s):
            return sum(
                float(np.sum((s * e.translation - g.translation) ** 2))
                for e, g in zip(est, gt))

        # Coarse-to-fine scalar search.
        lo, hi = -4.0, 4.0
        for _ in range(40):
            grid = np.linspace(lo, hi, 41)
            best = grid[int(np.argmin([cost(s) for s in grid]))]
            span = (hi - lo) / 40
            lo, hi = best - span, best + span
        assert abs(applied - best) < 1e-6
        # All pairs share the same scale.
        for o, e in zip(out, est):
            assert abs(np.linalg.norm(o.translation)
                       - applied * np.linalg.norm(e.translation)) < 1e-9

    def test_rejects_length_mismatch(self):
        rng = RNG(6)
        with pytest.raises(ValueError):
            trajeval.scale_align(self.make_rels(rng, 3), self.make_rels(rng, 4))

    def test_rejects_unknown_mode(self):
        rng = RNG(7)
        rels = self.make_rels(rng, 2)
        with pytest.raises(ValueError):
            trajeval.scale_align(rels, rels, "per_frame")

    @staticmethod
    def translations(est, gt, mode):
        def rels(translations):
            return [se3.RelativePose(se3.Rotation.identity(), t) for t in translations]

        return [o.translation.tolist() for o in trajeval.scale_align(rels(est), rels(gt), mode)]

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
        est, gt = ([se3.RelativePose(r.rotation, size * r.translation) for r in rels]
                   for rels in (self.make_rels(rng, 12), self.make_rels(rng, 12)))
        for e, g, got in zip(est, gt, trajeval.scale_align(est, gt, "per_pair")):
            ratio = float(np.linalg.norm(g.translation)) / float(np.linalg.norm(e.translation))
            assert got.translation.tobytes() == (e.translation * ratio).tobytes()
        num = sum(float(np.dot(e.translation, g.translation)) for e, g in zip(est, gt))
        den = sum(float(np.dot(e.translation, e.translation)) for e in est)
        for e, got in zip(est, trajeval.scale_align(est, gt, "global")):
            assert got.translation.tobytes() == (e.translation * (num / den)).tobytes()

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
        rotation = se3.exp_map([0.0, 0.0, math.pi / 2])
        gt = transform_trajectory(est, 2.0, rotation, np.array([1.0, 2.0, 3.0]))
        result = trajeval.umeyama_align(est, gt, with_scale=True)
        assert abs(result.scale - 2.0) < 1e-9
        assert np.max(np.abs(result.rotation - rotation.matrix())) < 1e-9
        assert np.max(np.abs(result.translation - [1, 2, 3])) < 1e-9
        assert result.ate_rmse < 1e-9

    def test_reflection_guard(self):
        # A near-planar cloud plus noise tempts the SVD toward an improper
        # solution; det(R) must still come out +1.
        rng = RNG(10)
        pts = rng.standard_normal((12, 3))
        pts[:, 2] *= 1e-3
        poses_a = [se3.RelativePose(se3.Rotation.identity(), p) for p in pts]
        mirrored = pts * np.array([1.0, 1.0, -1.0]) + rng.standard_normal((12, 3)) * 0.01
        poses_b = [se3.RelativePose(se3.Rotation.identity(), p) for p in mirrored]
        a = trajeval.Trajectory(np.arange(12.0), poses_a)
        b = trajeval.Trajectory(np.arange(12.0), poses_b)
        result = trajeval.umeyama_align(a, b, with_scale=True)
        assert abs(np.linalg.det(result.rotation) - 1.0) < 1e-9

    def test_matches_brute_force_oracle(self):
        rng = RNG(11)
        pts_est = rng.standard_normal((10, 3))
        pts_gt = rng.standard_normal((10, 3))
        est = trajeval.Trajectory(
            np.arange(10.0),
            [se3.RelativePose(se3.Rotation.identity(), p) for p in pts_est])
        gt = trajeval.Trajectory(
            np.arange(10.0),
            [se3.RelativePose(se3.Rotation.identity(), p) for p in pts_gt])
        result = trajeval.umeyama_align(est, gt, with_scale=True)

        x, y = pts_est, pts_gt
        mu_x, mu_y = x.mean(0), y.mean(0)
        xc, yc = x - mu_x, y - mu_y

        def rmse_for_rotation(rho):
            rot = se3.exp_map(rho).matrix()
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
            rho = se3.log_map(se3.Rotation(search.standard_normal(4)))
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
            rot = se3.Rotation(rng.standard_normal(4)).matrix()
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
        two = trajeval.Trajectory(
            np.arange(2.0),
            [se3.RelativePose(se3.Rotation.identity(), [0, 0, 0]),
             se3.RelativePose(se3.Rotation.identity(), [1, 0, 0])])
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
        shifted = trajeval.Trajectory(
            traj.stamps,
            [se3.RelativePose(p.rotation, p.translation + np.array([3.0, 4.0, 0.0]))
             for p in traj.poses])
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
            rot = se3.exp_map(params[:3]).matrix()
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
        rotation = se3.exp_map([0.3, -0.4, 0.5])
        shift = np.array([5.0, -2.0, 1.0])
        est_t = transform_trajectory(est, 1.0, rotation, shift)
        gt_t = transform_trajectory(gt, 1.0, rotation, shift)
        assert abs(trajeval.ate(est_t, gt_t, "sim3") - base) < 1e-9

    def test_sim3_invariant_to_estimate_rescaling(self):
        est, gt = noisy_fixture()
        base = trajeval.ate(est, gt, "sim3")
        for s in (0.1, 3.7, 42.0):
            scaled = transform_trajectory(est, s, se3.Rotation.identity(),
                                          np.zeros(3))
            assert abs(trajeval.ate(scaled, gt, "sim3") - base) < 1e-9

    @pytest.mark.parametrize("align", trajeval.ALIGN_MODES)
    def test_overflow_raises_without_a_warning(self, align, recwarn):
        # Finite positions whose differences and centroids overflow.
        def traj(x):
            return trajeval.Trajectory(np.arange(4.0), [
                se3.RelativePose(se3.Rotation.identity(), [x, y, z])
                for y, z in ((0, 0), (1, 0), (0, 1), (1, 1))])

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
        for got, want in zip(loaded.poses, traj.poses):
            assert np.array_equal(got.rotation.q, want.rotation.q)
            assert np.array_equal(got.translation, want.translation)

    def test_tum_ignores_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.tum"
        path.write_text("# header\n\n0 1 2 3 0 0 0 1\n1 2 3 4 0 0 0 1\n")
        traj = trajeval.read_tum(path)
        assert len(traj) == 2
        assert np.array_equal(traj.poses[0].translation, [1, 2, 3])

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
        with pytest.raises(ValueError, match=r"stamps\.tum: stamps must be finite"):
            trajeval.read_tum(path)

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
