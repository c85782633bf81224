"""Synthetic world tests: trajectories, condition encoding, datasets."""

import math

import numpy as np
import pytest

from motionflow import se3, synthworld, textio, trajeval

RNG = np.random.default_rng


class TestMakeTrajectory:
    def test_line_is_unit_x_steps(self):
        traj = synthworld.make_trajectory("line", 3, RNG(0))
        assert np.allclose(traj.positions(), [[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        q, t = synthworld.relative_motions(traj)
        assert np.allclose(t, [[1, 0, 0]] * 2, atol=1e-15)
        assert np.all(se3.geodesic_angles(q, se3.IDENTITY[0]) < 1e-15)

    def test_arc_has_constant_relative_motion(self):
        traj = synthworld.make_trajectory("arc", 20, RNG(1))
        q, t = synthworld.relative_motions(traj)
        assert np.all(se3.geodesic_angles(q[1:], q[:1]) < 1e-12)
        assert np.max(np.abs(t - t[0])) < 1e-12

    @pytest.mark.parametrize("kind", synthworld.TRAJECTORY_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 5, 50, 200])
    def test_step_bounds(self, kind, n):
        traj = synthworld.make_trajectory(kind, n, RNG(2))
        assert len(traj) == n
        assert np.all(np.diff(traj.stamps) > 0)
        q, t = synthworld.relative_motions(traj)
        assert q.shape == (n - 1, 4) and t.shape == (n - 1, 3)
        assert np.all(se3.geodesic_angles(q, se3.IDENTITY[0]) <= 0.9 * math.pi)
        steps = np.linalg.norm(t, axis=1)
        assert np.all((0.01 <= steps) & (steps <= 1.0))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 50, 3000, 20001])
    def test_figure8_steps_span_the_speed_ratio(self, n):
        # |v|^2 = cos^2 t + cos^2 2t lies in [7/16, 2], so no step of the
        # curve scaled to a 0.5 m largest step falls below 0.5 m * sqrt(7/32).
        _, t = synthworld.relative_motions(synthworld.make_trajectory("figure8", n, None))
        steps = np.linalg.norm(t, axis=1)
        assert 0.5 * math.sqrt(7 / 32) - 1e-12 < min(steps)
        assert max(steps) == pytest.approx(0.5, abs=1e-12)

    def test_random_walk_reproducible(self):
        a = synthworld.make_trajectory("random-walk", 30, RNG(3))
        b = synthworld.make_trajectory("random-walk", 30, RNG(3))
        assert np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)

    def test_underscore_alias(self):
        # Kinds are spelled only as in TRAJECTORY_KINDS; there is no alias.
        with pytest.raises(ValueError, match="random_walk"):
            synthworld.make_trajectory("random_walk", 5, RNG(4))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            synthworld.make_trajectory("spiral", 10, RNG(5))
        with pytest.raises(ValueError):
            synthworld.make_trajectory("line", 1, RNG(6))

    def test_figure8_extent_is_tens_of_steps(self):
        # Auto-scaling to a 0.5 m max step should give a path whose overall
        # extent is much larger than one step for a finely sampled curve.
        traj = synthworld.make_trajectory("figure8", 201, RNG(7))
        pts = traj.positions()
        diameter = np.max(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2))
        assert diameter > 10 * 0.5


class TestConditionEncoder:
    def test_deterministic_without_noise(self):
        enc = synthworld.ConditionEncoder(16, 99)
        rel = [0.1, 0.0, 0.2, 0.3, -0.1, 0.05]
        a = enc.encode(rel, 0.3, 0.0)
        b = enc.encode(rel, 0.3, 0.0)
        assert np.array_equal(a.values, b.values)
        # Rebuilt encoder from the same seed gives the same map.
        c = synthworld.ConditionEncoder(16, 99).encode(rel, 0.3, 0.0)
        assert np.array_equal(a.values, c.values)

    def test_full_ambiguity_hides_translation_scale(self):
        enc = synthworld.ConditionEncoder(16, 7)
        rho = np.array([0.05, -0.1, 0.2])
        direction = np.array([0.6, 0.8, 0.0])
        small = np.concatenate([rho, 0.1 * direction])
        large = np.concatenate([rho, 0.9 * direction])
        at_one = enc.encode(small, 1.0, 0.0).values - enc.encode(large, 1.0, 0.0).values
        assert np.max(np.abs(at_one)) < 1e-9
        at_zero = enc.encode(small, 0.0, 0.0).values - enc.encode(large, 0.0, 0.0).values
        assert np.max(np.abs(at_zero)) > 1e-3

    def test_injective_on_motion_grid(self):
        enc = synthworld.ConditionEncoder(16, 11)
        rng = RNG(12)
        conds = []
        for _ in range(1000):
            rel = np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.8, 0.8, 3)])
            conds.append(enc.encode(rel, 0.0, 0.0).values)
        conds = np.stack(conds)
        sq = np.sum(conds * conds, axis=1)
        dist_sq = sq[:, None] + sq[None, :] - 2.0 * (conds @ conds.T)
        np.fill_diagonal(dist_sq, np.inf)
        assert dist_sq.min() > 0.0

    def test_noise_requires_rng_and_perturbs(self):
        enc = synthworld.ConditionEncoder(8, 13)
        rel = [0.0, 0.0, 0.0, 0.2, 0.0, 0.0]
        with pytest.raises(ValueError):
            enc.encode(rel, 0.0, 0.1, None)
        clean = enc.encode(rel, 0.0, 0.0).values
        noisy = enc.encode(rel, 0.0, 0.1, RNG(14)).values
        assert not np.array_equal(clean, noisy)
        assert np.max(np.abs(noisy - clean)) < 1.0  # sigma 0.1, 8 dims

    @pytest.mark.parametrize("motion", [[0, 0, 0, math.inf, 0, 0], [0, math.nan, 0, 0, 0, 0],
                                        [0, 0, 0, 1e308, 1e308, 0]],
                             ids=["inf-translation", "nan-rho", "overflowing-norm"])
    def test_non_finite_motion_raises_at_noise_0(self, motion):
        enc = synthworld.ConditionEncoder(8, 15)
        with pytest.raises(ValueError, match="^motion is not finite, or its translation norm "
                                             "overflows"):
            enc.encode(motion, 0.0, 0.0)

    def test_rejects_bad_dial_values(self):
        enc = synthworld.ConditionEncoder(8, 15)
        rel = np.zeros(6)
        with pytest.raises(ValueError):
            enc.encode(rel, -0.1, 0.0)
        with pytest.raises(ValueError):
            enc.encode(rel, 1.1, 0.0)
        with pytest.raises(ValueError):
            enc.encode(rel, 0.0, -0.5)

    def test_module_level_default_encoder(self):
        rel = [0.0, 0.0, 0.1, 0.25, 0.0, 0.0]
        a = synthworld.ConditionEncoder(synthworld.DEFAULT_COND_DIM,
                                        synthworld.DEFAULT_LIFT_SEED).encode(rel, 0.0, 0.0)
        b = synthworld.ConditionEncoder(synthworld.DEFAULT_COND_DIM,
                                        synthworld.DEFAULT_LIFT_SEED).encode(rel, 0.0, 0.0)
        assert np.array_equal(a.values, b.values)
        assert a.dim == synthworld.DEFAULT_COND_DIM


class TestMakeScenario:
    def test_chaining_and_shapes(self):
        # make_scenario does not recompose its pairs; this does, for every kind.
        for kind in synthworld.TRAJECTORY_KINDS:
            scenario = synthworld.make_scenario(kind, kind, 40, 0.2, 0.05, RNG(16))
            assert len(scenario.pairs) == 39
            gt = scenario.gt_trajectory
            targets = np.stack([pair.target.as_vector() for pair in scenario.pairs])
            got = trajeval.compose_trajectory((gt.q[:1], gt.t[:1]), se3.state_to_pose(targets))
            assert np.all(se3.geodesic_angles(got.q, gt.q) < 1e-9), kind
            assert np.max(np.linalg.norm(got.t - gt.t, axis=1)) < 1e-9, kind

    def test_reproducible_given_seed(self):
        a = synthworld.make_scenario("s", "figure8", 30, 0.5, 0.1, RNG(17))
        b = synthworld.make_scenario("s", "figure8", 30, 0.5, 0.1, RNG(17))
        assert a.lift_seed == b.lift_seed
        for pa, pb in zip(a.pairs, b.pairs):
            assert np.array_equal(pa.target.as_vector(), pb.target.as_vector())
            assert np.array_equal(pa.cond.values, pb.cond.values)

    def test_lift_seed_recorded(self):
        scenario = synthworld.make_scenario("s", "line", 5, 0.0, 0.0, RNG(18),
                                            lift_seed=4242)
        assert scenario.lift_seed == 4242
        enc = synthworld.ConditionEncoder(scenario.cond_dim, 4242)
        rows = se3.pose_to_state(*synthworld.relative_motions(scenario.gt_trajectory))
        want = enc.encode(rows[0], 0.0, 0.0)
        assert np.array_equal(scenario.pairs[0].cond.values, want.values)

    @pytest.mark.parametrize("ambiguity, noise, message", [
        (1.1, 0.0, r"ambiguity must lie in \[0, 1\], got 1.1"),
        (0.0, -0.5, "noise_sigma must be >= 0"),
    ], ids=["ambiguity", "noise"])
    def test_rejects_bad_dial_values(self, ambiguity, noise, message):
        with pytest.raises(ValueError, match=message):
            synthworld.make_scenario("s", "line", 5, ambiguity, noise, RNG(19))


SIZED = {
    "encoder-dim": (lambda v: synthworld.ConditionEncoder(v, 1), "dim", 1),
    "encoder-lift_seed": (lambda v: synthworld.ConditionEncoder(4, v), "lift_seed", 0),
    "trajectory-n": (lambda v: synthworld.make_trajectory("line", v, RNG(0)), "n", 2),
    "bimodal-n": (lambda v: synthworld.make_bimodal_dataset(v, RNG(0)), "n", 2),
}


class TestSizeRule:
    """Every size in synthworld goes through textio.whole: a non-integer or
    a value below the least raises ValueError naming the field."""

    @pytest.mark.parametrize("value", [4.5, 4.0, "4"], ids=["fraction", "whole-float", "str"])
    @pytest.mark.parametrize("case", SIZED)
    def test_non_integers_raise_naming_the_field(self, case, value):
        build, field, _ = SIZED[case]
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            build(value)

    @pytest.mark.parametrize("case", SIZED)
    def test_below_the_least_raises_naming_the_field(self, case):
        build, field, least = SIZED[case]
        with pytest.raises(ValueError, match=f"^{field} must be >= {least}, got {least - 1}$"):
            build(least - 1)

    def test_numpy_integers_are_accepted(self):
        enc = synthworld.ConditionEncoder(np.int32(4), np.uint64(2 ** 63))
        assert (enc.dim, enc.lift_seed) == (4, 2 ** 63)
        assert type(enc.dim) is int and type(enc.lift_seed) is int
        assert len(synthworld.make_trajectory("figure8", np.int64(5), None)) == 5
        assert len(synthworld.make_bimodal_dataset(np.int16(6), RNG(0))) == 6


class TestBimodalDataset:
    def test_shared_condition_and_balance(self):
        pairs = synthworld.make_bimodal_dataset(1000, RNG(19))
        first = pairs[0].cond.values
        for pair in pairs:
            assert np.array_equal(pair.cond.values, first)
        mode_a = np.concatenate(synthworld.BIMODAL_MODE_A)
        frac_a = np.mean([
            float(np.allclose(p.target.as_vector(), mode_a)) for p in pairs
        ])
        assert abs(frac_a - 0.5) < 0.05

    def test_mode_separation(self):
        a = np.concatenate(synthworld.BIMODAL_MODE_A)
        b = np.concatenate(synthworld.BIMODAL_MODE_B)
        assert np.linalg.norm(a - b) >= 0.5

    def test_two_means_recovers_modes_exactly(self):
        pairs = synthworld.make_bimodal_dataset(400, RNG(20))
        states = np.stack([p.target.as_vector() for p in pairs])
        # Lloyd's algorithm from deliberately poor starting centers.
        centers = states[:2].copy() + 0.01
        for _ in range(50):
            d = np.linalg.norm(states[:, None, :] - centers[None, :, :], axis=2)
            assign = d.argmin(axis=1)
            for j in (0, 1):
                if np.any(assign == j):
                    centers[j] = states[assign == j].mean(axis=0)
        mode_a = np.concatenate(synthworld.BIMODAL_MODE_A)
        mode_b = np.concatenate(synthworld.BIMODAL_MODE_B)
        order = [0, 1] if np.linalg.norm(centers[0] - mode_a) < np.linalg.norm(
            centers[1] - mode_a) else [1, 0]
        assert np.linalg.norm(centers[order[0]] - mode_a) < 1e-9
        assert np.linalg.norm(centers[order[1]] - mode_b) < 1e-9
        true_assign = np.array([
            0 if np.allclose(s, mode_a) else 1 for s in states
        ])
        mapped = np.where(np.array(order)[assign] == 0, 0, 1) if order == [0, 1] \
            else 1 - assign
        assert np.array_equal(mapped, true_assign)

    def test_rejects_odd_or_tiny_n(self):
        with pytest.raises(ValueError, match="^n must be even, got 7$"):
            synthworld.make_bimodal_dataset(7, RNG(21))
        with pytest.raises(ValueError, match="^n must be >= 2, got 0$"):
            synthworld.make_bimodal_dataset(0, RNG(22))


class TestDatasetFiles:
    def test_scenario_round_trip(self, tmp_path):
        scenario = synthworld.make_scenario("rt", "random-walk", 12, 0.25, 0.1, RNG(23))
        path = tmp_path / "dataset.csv"
        synthworld.write_scenario_dataset(path, scenario)
        header = synthworld.read_dataset_header(path)
        assert header.cond_dim == scenario.cond_dim
        assert header.lift_seed == scenario.lift_seed
        assert header.ambiguity == scenario.ambiguity
        assert header.noise_sigma == scenario.noise_sigma
        rows = synthworld.ingest_features(path)
        assert len(rows) == len(scenario.pairs)
        for (cond, pair), orig in zip(rows, scenario.pairs):
            assert pair is not None
            assert np.array_equal(cond.values, orig.cond.values)
            assert np.array_equal(pair.target.as_vector(), orig.target.as_vector())

    def test_condition_only_round_trip(self, tmp_path):
        rng = RNG(24)
        conds = [synthworld.ConditionVector(rng.standard_normal(6)) for _ in range(4)]
        path = tmp_path / "conds.csv"
        textio.write_lines(path, ["#k=6", "#lift_seed=1", "#ambiguity=0", "#noise=0"]
                           + [textio.fmt(cond.values) for cond in conds])
        rows = synthworld.ingest_features(path)
        assert len(rows) == 4
        for (cond, pair), orig in zip(rows, conds):
            assert pair is None
            assert np.array_equal(cond.values, orig.values)

    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "fixture.csv"
        path.write_text(
            "#k=2\n#lift_seed=5\n#ambiguity=0.25\n#noise=0\n"
            "0.1,0.2,0.3,1,2,3,9,8\n"
            "7,6\n"
            "0,0,0,0.5,0,0,1.5,-2.5\n"
        )
        rows = synthworld.ingest_features(path)
        assert len(rows) == 3
        cond0, pair0 = rows[0]
        assert np.array_equal(cond0.values, [9, 8])
        assert np.array_equal(pair0.target.rho, [0.1, 0.2, 0.3])
        assert np.array_equal(pair0.target.trans, [1, 2, 3])
        cond1, pair1 = rows[1]
        assert pair1 is None
        assert np.array_equal(cond1.values, [7, 6])
        assert np.array_equal(rows[2][0].values, [1.5, -2.5])

    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("#k=4\n#lift_seed=0\n#ambiguity=0\n#noise=0\n")
        assert synthworld.ingest_features(path) == []

    def test_malformed_rows_report_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#k=2\n#lift_seed=0\n#ambiguity=0\n#noise=0\n1,2\n1,2,3\n")
        with pytest.raises(ValueError, match=":6"):
            synthworld.ingest_features(path)
        path.write_text("#k=2\n#lift_seed=0\n#ambiguity=0\n#noise=0\nx,2\n")
        with pytest.raises(ValueError, match=":5"):
            synthworld.ingest_features(path)
        path.write_text("#k=2\n#lift_seed=0\n#ambiguity=0\n#noise=0\n1,2\n1,nan\n")
        with pytest.raises(ValueError, match=r"bad\.csv:6: cell 2 is not finite$"):
            synthworld.ingest_features(path)
        path.write_text("#k=abc\n#lift_seed=0\n#ambiguity=0\n#noise=0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1: .*'abc'"):
            synthworld.ingest_features(path)
        for k in (0, -3):
            path.write_text(f"#k={k}\n#lift_seed=0\n#ambiguity=0\n#noise=0\n")
            with pytest.raises(ValueError, match=rf"bad\.csv:1: k must be >= 1, got {k}$"):
                synthworld.ingest_features(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_names_its_line(self, tmp_path, bad):
        # A row's rho, then its translation, holds [0.5, bad, -0.5].
        path = tmp_path / "bad.csv"
        for row, cell in (("0.5,{},-0.5,0,0,0,1,2", 2), ("0,0,0,0.5,{},-0.5,1,2", 5)):
            path.write_text("#k=2\n#lift_seed=0\n#ambiguity=0\n#noise=0\n"
                            "0,0,0,0,0,0,1,2\n" + row.format(bad) + "\n")
            with pytest.raises(ValueError) as err:
                synthworld.ingest_features(path)
            assert str(err.value) == f"{path}:6: cell {cell} is not finite"

    def test_rho_outside_principal_ball_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#k=2\n#lift_seed=0\n#ambiguity=0\n#noise=0\n"
                        f"0,0,0,0,0,0,1,2\n{math.pi + 0.01},0,0,0,0,0,1,2\n")
        with pytest.raises(ValueError) as err:
            synthworld.ingest_features(path)
        assert str(err.value) == f"{path}:6: target rotation vector leaves the principal ball"

    def test_repeated_header_key_names_its_second_line(self, tmp_path):
        scenario = synthworld.make_scenario("rep", "random-walk", 6, 0.0, 0.0, RNG(25))
        path = tmp_path / "dataset.csv"
        synthworld.write_scenario_dataset(path, scenario)
        path.write_text("#lift_seed=7\n" + path.read_text())
        with pytest.raises(ValueError, match=r"dataset\.csv:3: key 'lift_seed' repeated"):
            synthworld.read_dataset_header(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            synthworld.ingest_features(path)


class TestAmbiguityInformationProxy:
    def test_bucket_scale_variance_increases_with_ambiguity(self):
        """Nearest-neighbor conditional variance of translation scale must
        rise monotonically with the ambiguity dial (information removal)."""
        from scipy import stats

        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        rng = RNG(25)
        # One shared motion population across levels.
        rels = []
        for _ in range(400):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            rho = axis * rng.uniform(0, 0.2)
            rels.append(np.concatenate([rho, direction * rng.uniform(0.05, 0.5)]))
        scales = np.array([np.linalg.norm(r[3:]) for r in rels])
        enc = synthworld.ConditionEncoder(16, 31)
        noise_rng = RNG(26)
        variances = []
        for level in levels:
            conds = np.stack([
                enc.encode(rel, level, 0.05, noise_rng).values for rel in rels
            ])
            sq = np.sum(conds * conds, axis=1)
            d2 = sq[:, None] + sq[None, :] - 2.0 * (conds @ conds.T)
            np.fill_diagonal(d2, np.inf)
            neighbor_var = []
            k = 20
            for i in range(len(rels)):
                nearest = np.argpartition(d2[i], k)[:k]
                neighbor_var.append(np.var(scales[nearest]))
            variances.append(float(np.mean(neighbor_var)))
        corr = stats.spearmanr(levels, variances).statistic
        assert corr > 0.9, (levels, variances)
