"""Command-line interface tests.

Commands run in-process through cli.main so exit codes and outputs are
checked directly.  Configurations are kept tiny; the CLI plumbing is the
subject here, not model quality.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from motionflow import cli, sampler, se3, synthworld, trajeval, vfnet

RNG = np.random.default_rng
KEPT_CHECKPOINT = (Path(__file__).resolve().parents[1]
                   / "perfbench" / "data" / "figure8_checkpoint.txt")


def run_cli(*argv):
    """Invoke the CLI, normalizing argparse SystemExit into a return code."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def gen_small(tmp_path, name="data", seed=7, n=9, kind="figure8", **extra):
    out = tmp_path / name
    args = ["gen", "--kind", kind, "--n", n, "--seed", seed, "--out", out]
    for key, value in extra.items():
        args += [f"--{key}", value]
    assert run_cli(*args) == 0
    return out


def untrained_checkpoint(tmp_path):
    path = tmp_path / "untrained.txt"
    vfnet.save_checkpoint(path, vfnet.init_params(RNG(0), vfnet.NetConfig()))
    return path


def read_manifest(directory):
    return json.loads((Path(directory) / "manifest.json").read_text())


def train_small(tmp_path, dataset, name="run", epochs=30, seed=3):
    out = tmp_path / name
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"epochs = {epochs}\nbatch_size = 8\nlr = 0.002\n"
                   f"lr_decay_epoch = {epochs // 2}\nseed = {seed}\n")
    assert run_cli("train", "--dataset", dataset / "dataset.csv",
                   "--config", cfg, "--out", out) == 0
    return out


class TestGen:
    def test_writes_artifacts_and_manifest(self, tmp_path):
        out = gen_small(tmp_path)
        assert (out / "dataset.csv").is_file()
        assert (out / "gt.tum").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 7
        assert manifest["config"]["kind"] == "figure8"
        for path in manifest["outputs"].values():
            assert Path(path).is_file()

    def test_dataset_chains_to_gt(self, tmp_path):
        out = gen_small(tmp_path)
        gt = trajeval.read_tum(out / "gt.tum")
        rows = synthworld.ingest_features(out / "dataset.csv")
        rels = se3.state_to_pose(np.stack([pair.target.as_vector() for _, pair in rows]))
        rebuilt = trajeval.compose_trajectory((gt.q[:1], gt.t[:1]), rels)
        assert np.max(np.linalg.norm(rebuilt.t - gt.t, axis=1)) < 1e-9

    def test_same_seed_is_byte_identical(self, tmp_path):
        a = gen_small(tmp_path, "a", seed=5)
        b = gen_small(tmp_path, "b", seed=5)
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "gt.tum").read_bytes() == (b / "gt.tum").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = gen_small(tmp_path, "a", seed=5, kind="random-walk")
        b = gen_small(tmp_path, "b", seed=6, kind="random-walk")
        assert (a / "dataset.csv").read_bytes() != (b / "dataset.csv").read_bytes()

    def test_ambiguity_out_of_range_exits_2(self, tmp_path):
        code = run_cli("gen", "--kind", "figure8", "--n", 9,
                       "--ambiguity", "1.2", "--out", tmp_path / "x")
        assert code == 2

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_exits_2(self, tmp_path, noise):
        code = run_cli("gen", "--kind", "figure8", "--n", 9,
                       "--noise", noise, "--out", tmp_path / "x")
        assert code == 2

    def test_overflowing_noise_exits_2_and_names_it(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("gen", "--noise", "1e308", "--out", out) == 2
        assert "error: bad --noise 1e+308: " in capsys.readouterr().err
        assert not (out / "dataset.csv").exists()

    def test_long_arc_writes_its_artifacts(self, tmp_path):
        # Recomposing this arc's pairs from pose 0 drifts past 1e-9; gen
        # does not recompose them, so it writes every artifact.
        out = gen_small(tmp_path, n=9640, kind="arc")
        lines = (out / "dataset.csv").read_text().splitlines()
        assert len(lines) == 4 + 9639
        assert len(trajeval.read_tum(out / "gt.tum")) == 9640
        assert read_manifest(out)["config"]["n"] == 9640

    def test_bad_kind_and_n_exit_2(self, tmp_path):
        assert run_cli("gen", "--kind", "spiral", "--out", tmp_path / "x") == 2
        assert run_cli("gen", "--kind", "line", "--n", 1,
                       "--out", tmp_path / "x") == 2


class TestTrain:
    def test_writes_checkpoint_and_loss(self, tmp_path):
        data = gen_small(tmp_path)
        run = train_small(tmp_path, data)
        assert (run / "checkpoint.txt").is_file()
        assert (run / "loss.csv").is_file()
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["config"]["train"]["epochs"] == 30
        net = vfnet.load_checkpoint(run / "checkpoint.txt")
        assert net.config.cond_dim == synthworld.DEFAULT_COND_DIM

    def test_missing_dataset_exits_2(self, tmp_path):
        code = run_cli("train", "--dataset", tmp_path / "nope.csv",
                       "--out", tmp_path / "run")
        assert code == 2

    def test_bad_config_exits_2(self, tmp_path):
        data = gen_small(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochz = 5\n")
        code = run_cli("train", "--dataset", data / "dataset.csv",
                       "--config", cfg, "--out", tmp_path / "run")
        assert code == 2

    @pytest.mark.parametrize("line, error", [
        ("rot_weight = nan", ":2: unknown key 'rot_weight'"),
        ("trans_weight = inf", ":2: unknown key 'trans_weight'"),
        ("adam_eps = inf", ":2: unknown key 'adam_eps'"),
        ("seed = -3", ": seed must be"),
        ("epochs = 2", ":2: key 'epochs' repeated"),
    ], ids=["rot_weight", "trans_weight", "adam_eps", "seed", "repeated-epochs"])
    def test_unusable_config_value_exits_2(self, tmp_path, capsys, line, error):
        data = gen_small(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"epochs = 1\n{line}\n")
        code = run_cli("train", "--dataset", data / "dataset.csv",
                       "--config", cfg, "--out", tmp_path / "run")
        assert code == 2
        assert f"{cfg}{error}" in capsys.readouterr().err

    def test_divergence_exits_1(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        cfg = tmp_path / "wild.cfg"
        cfg.write_text("epochs = 3\nbatch_size = 8\nlr = 1e200\n")
        with np.errstate(all="ignore"):
            code = run_cli("train", "--dataset", data / "dataset.csv",
                           "--config", cfg, "--out", tmp_path / "run")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        data = gen_small(tmp_path)
        want = train_small(tmp_path, data, "want", epochs=4, seed=9)
        cfg = tmp_path / "one.cfg"
        cfg.write_text((tmp_path / "want.cfg").read_text().replace("seed = 9", "seed = 1"))
        out = tmp_path / "got"
        assert run_cli("train", "--dataset", data / "dataset.csv", "--config", cfg,
                       "--seed", 9, "--out", out) == 0
        assert (out / "checkpoint.txt").read_bytes() == (want / "checkpoint.txt").read_bytes()
        manifest = read_manifest(out)
        assert manifest["seed"] == manifest["config"]["train"]["seed"] == 9

    def test_dataset_without_ground_truth_exits_2(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        conditions = tmp_path / "conditions.csv"
        conditions.write_text("".join(
            line if line.startswith("#") else line.split(",", 6)[6]
            for line in (data / "dataset.csv").read_text().splitlines(keepends=True)))
        assert run_cli("train", "--dataset", conditions, "--out", tmp_path / "run") == 2
        assert f"dataset has no ground-truth rows: {conditions}" in capsys.readouterr().err

    def test_same_seed_is_byte_identical(self, tmp_path):
        data = gen_small(tmp_path)
        a = train_small(tmp_path, data, "a", seed=9)
        b = train_small(tmp_path, data, "b", seed=9)
        assert (a / "checkpoint.txt").read_bytes() == (b / "checkpoint.txt").read_bytes()
        assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()

    def test_resume_from_checkpoint(self, tmp_path):
        data = gen_small(tmp_path)
        first = train_small(tmp_path, data, "first")
        out = tmp_path / "second"
        cfg = tmp_path / "resume.cfg"
        cfg.write_text("epochs = 10\nbatch_size = 8\nseed = 4\n")
        assert run_cli("train", "--dataset", data / "dataset.csv",
                       "--config", cfg, "--checkpoint", first / "checkpoint.txt",
                       "--out", out) == 0
        assert (out / "checkpoint.txt").read_bytes() != \
            (first / "checkpoint.txt").read_bytes()
        manifest = read_manifest(out)
        assert manifest["config"]["resumed"] is True
        assert manifest["inputs"]["checkpoint"] == str(first / "checkpoint.txt")
        assert manifest["inputs"]["config"] == str(cfg)


class TestInfer:
    def test_outputs_and_line_counts(self, tmp_path):
        data = gen_small(tmp_path, n=9)
        run = train_small(tmp_path, data)
        out = tmp_path / "inf"
        assert run_cli("infer", "--checkpoint", run / "checkpoint.txt",
                       "--dataset", data / "dataset.csv", "--seed", 11,
                       "--out", out) == 0
        est_lines = (out / "est.tum").read_text().splitlines()
        assert len(est_lines) == 9  # 8 motions + the start pose
        means, stds = sampler.read_estimates_csv(out / "estimates.csv")
        assert means.shape == stds.shape == (8, 6)

    def test_same_seed_is_byte_identical(self, tmp_path):
        data = gen_small(tmp_path)
        run = train_small(tmp_path, data)
        outs = []
        for name in ("i1", "i2"):
            out = tmp_path / name
            assert run_cli("infer", "--checkpoint", run / "checkpoint.txt",
                           "--dataset", data / "dataset.csv", "--seed", 17,
                           "--out", out) == 0
            outs.append(out)
        assert (outs[0] / "estimates.csv").read_bytes() == \
            (outs[1] / "estimates.csv").read_bytes()
        assert (outs[0] / "est.tum").read_bytes() == \
            (outs[1] / "est.tum").read_bytes()

    def test_manifest_records_nfe_per_sample(self, tmp_path):
        data = gen_small(tmp_path)
        ckpt = untrained_checkpoint(tmp_path)
        for method, steps, nfe in (("midpoint", 5, 10), ("rk4", 3, 12), ("euler", 4, 4)):
            out = tmp_path / f"inf_{method}"
            assert run_cli("infer", "--checkpoint", ckpt, "--dataset", data / "dataset.csv",
                           "--method", method, "--steps", steps, "--samples", 2,
                           "--out", out) == 0
            assert read_manifest(out)["counts"] == {"nfe_per_sample": nfe}

    def test_missing_checkpoint_exits_2(self, tmp_path):
        data = gen_small(tmp_path)
        code = run_cli("infer", "--checkpoint", tmp_path / "nope.txt",
                       "--dataset", data / "dataset.csv", "--out", tmp_path / "x")
        assert code == 2

    def test_condition_dim_mismatch_exits_2(self, tmp_path):
        data = gen_small(tmp_path)
        run = train_small(tmp_path, data)
        other = gen_small(tmp_path, "other", **{"cond-dim": 8})
        code = run_cli("infer", "--checkpoint", run / "checkpoint.txt",
                       "--dataset", other / "dataset.csv", "--out", tmp_path / "x")
        assert code == 2

    def test_overflowing_samples_exit_1(self, tmp_path, capsys):
        # Translations near 1e161 stay finite, but their squared
        # deviations overflow: the elements diverge, with no warning.
        data = gen_small(tmp_path)
        net = vfnet.init_params(RNG(0), vfnet.NetConfig())
        net.head_trans[-1][0][...] = 1e160
        ckpt = tmp_path / "huge.txt"
        vfnet.save_checkpoint(ckpt, net)
        code = run_cli("infer", "--checkpoint", ckpt, "--dataset", data / "dataset.csv",
                       "--out", tmp_path / "x")
        assert code == 1
        assert "integration diverged for sequence elements [0, " in capsys.readouterr().err

    def test_diverged_positions_exit_1_and_write_nothing(self, tmp_path, capsys):
        # Saturated stages collapse each estimate's spread, so sampling
        # raises nothing, but the chained positions, near 1e159, overflow
        # once squared, as every ATE squares them: eval would blame the files.
        data = gen_small(tmp_path)
        net = vfnet.load_checkpoint(KEPT_CHECKPOINT)
        net.head_trans[-1][0][...] = 1e160
        ckpt = tmp_path / "huge.txt"
        vfnet.save_checkpoint(ckpt, net)
        out = tmp_path / "x"
        code = run_cli("infer", "--checkpoint", ckpt, "--dataset", data / "dataset.csv",
                       "--out", out)
        assert code == 1
        assert ("error: integration diverged: estimated position 1 overflows the float "
                "range once squared") in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_bad_method_exits_2(self, tmp_path):
        data = gen_small(tmp_path)
        run = train_small(tmp_path, data)
        code = run_cli("infer", "--checkpoint", run / "checkpoint.txt",
                       "--dataset", data / "dataset.csv", "--method", "leapfrog",
                       "--out", tmp_path / "x")
        assert code == 2


class TestEval:
    def test_identical_trajectories_zero(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        out = tmp_path / "ev"
        assert run_cli("eval", data / "gt.tum", data / "gt.tum",
                       "--align", "sim3", "--out", out) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == trajeval.METRICS_HEADER
        cells = lines[1].split(",")
        assert float(cells[3]) < 1e-12

    def test_manifest_times_write_phase(self, tmp_path):
        data = gen_small(tmp_path)
        out = tmp_path / "ev"
        assert run_cli("eval", data / "gt.tum", data / "gt.tum", "--out", out) == 0
        timings = read_manifest(out)["timings"]
        assert set(timings) == {"evaluate", "write", "total"}
        assert timings["total"] == timings["evaluate"] + timings["write"]

    def test_length_mismatch_exits_2(self, tmp_path):
        a = gen_small(tmp_path, "a", n=9)
        b = gen_small(tmp_path, "b", n=8)
        code = run_cli("eval", a / "gt.tum", b / "gt.tum", "--out", tmp_path / "x")
        assert code == 2

    def test_stamp_mismatch_exits_2(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        gt = trajeval.read_tum(data / "gt.tum")
        est = tmp_path / "est.tum"
        trajeval.write_tum(est, trajeval.Trajectory(gt.stamps + 100.0, gt.q, gt.t))
        assert run_cli("eval", est, data / "gt.tum", "--out", tmp_path / "ev") == 2
        assert "stamp mismatch at pose 0" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "metrics.csv").exists()

    def test_estimates_fill_spread_columns(self, tmp_path):
        data = gen_small(tmp_path)
        run = train_small(tmp_path, data)
        inf = tmp_path / "inf"
        assert run_cli("infer", "--checkpoint", run / "checkpoint.txt",
                       "--dataset", data / "dataset.csv", "--out", inf) == 0
        out = tmp_path / "ev"
        assert run_cli("eval", inf / "est.tum", data / "gt.tum",
                       "--estimates", inf / "estimates.csv", "--out", out) == 0
        cells = (out / "metrics.csv").read_text().splitlines()[1].split(",")
        assert np.isfinite(float(cells[4])) and float(cells[4]) > 0
        assert np.isfinite(float(cells[5])) and float(cells[5]) > 0

    def test_without_estimates_spread_is_nan(self, tmp_path):
        data = gen_small(tmp_path)
        out = tmp_path / "ev"
        assert run_cli("eval", data / "gt.tum", data / "gt.tum", "--out", out) == 0
        cells = (out / "metrics.csv").read_text().splitlines()[1].split(",")
        assert np.isnan(float(cells[4])) and np.isnan(float(cells[5]))

    def test_one_pose_with_header_only_estimates_has_nan_spread(self, tmp_path):
        # One pose has no motions: the header-only estimates file matches
        # it, and there is no spread to average.
        one = tmp_path / "one.tum"
        trajeval.write_tum(one, trajeval.Trajectory(np.zeros(1), *se3.IDENTITY))
        estimates = tmp_path / "hdr.csv"
        estimates.write_text(sampler.ESTIMATES_HEADER + "\n")
        out = tmp_path / "ev"
        assert run_cli("eval", one, one, "--align", "none", "--estimates", estimates,
                       "--out", out) == 0
        cells = (out / "metrics.csv").read_text().splitlines()[1].split(",")
        assert np.isnan(float(cells[4])) and np.isnan(float(cells[5]))

    def test_scale_modes_accepted(self, tmp_path):
        data = gen_small(tmp_path)
        for scale in ("none", "per_pair", "global"):
            out = tmp_path / f"ev_{scale}"
            assert run_cli("eval", data / "gt.tum", data / "gt.tum",
                           "--scale", scale, "--out", out) == 0

    def test_per_pair_rescales_steps_whose_squares_underflow(self, tmp_path):
        # Steps of about 1e-300 have squared norms that underflow to 0, but
        # they are motions: per_pair rescales them to the ground truth's.
        gt, est = tmp_path / "gt.tum", tmp_path / "est.tum"
        positions = [(i, 0.1 * i * i, 0.0) for i in range(6)]
        for path, factor in ((gt, 1.0), (est, 1e-300)):
            path.write_text("".join(f"{i} {x * factor} {y * factor} {z} 0 0 0 1\n"
                                    for i, (x, y, z) in enumerate(positions)))
        ate = {}
        for scale in ("none", "per_pair"):
            out = tmp_path / scale
            assert run_cli("eval", est, gt, "--align", "none", "--scale", scale,
                           "--out", out) == 0
            ate[scale] = float((out / "metrics.csv").read_text().splitlines()[1].split(",")[3])
        assert ate["none"] > 1.0 and ate["per_pair"] < 1e-12

    def test_per_pair_rescales_steps_whose_scale_overflows(self, tmp_path):
        # Steps of about 1e-300 against 1e10: gt_norm / est_norm overflows,
        # but est's direction times gt's norm does not.
        gt, est = tmp_path / "gt.tum", tmp_path / "est.tum"
        positions = [(i, 0.1 * i * i, 0.0) for i in range(6)]
        for path, factor in ((gt, 1e10), (est, 1e-300)):
            path.write_text("".join(f"{i} {x * factor} {y * factor} {z} 0 0 0 1\n"
                                    for i, (x, y, z) in enumerate(positions)))
        out = tmp_path / "per_pair"
        assert run_cli("eval", est, gt, "--align", "none", "--scale", "per_pair",
                       "--out", out) == 0
        assert float((out / "metrics.csv").read_text().splitlines()[1].split(",")[3]) < 1e-5

    @pytest.mark.parametrize("stem, name", [
        ("est", "a,b"), ("est", "a\nb"), ("est,1", None),
    ], ids=["comma-name", "line-break-name", "comma-stem"])
    def test_name_that_breaks_the_csv_row_exits_2(self, tmp_path, capsys, stem, name):
        data = gen_small(tmp_path)
        est = tmp_path / f"{stem}.tum"
        est.write_text((data / "gt.tum").read_text())
        flags = [] if name is None else ["--name", name]
        out = tmp_path / "ev"
        assert run_cli("eval", est, data / "gt.tum", *flags, "--out", out) == 2
        assert repr(name or stem) in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()


class TestAblateSteps:
    def constant_field_checkpoint(self, tmp_path, velocity):
        """A checkpoint whose field is identically `velocity`.

        Final head layers initialize to zero, so setting only the final
        biases makes the network output constant in (state, tau, cond).
        """
        net = vfnet.init_params(RNG(0), vfnet.NetConfig())
        net.head_rot[-1][1][:] = velocity[:3]
        net.head_trans[-1][1][:] = velocity[3:]
        path = tmp_path / "constant.txt"
        vfnet.save_checkpoint(path, net)
        return path

    def test_constant_field_identical_across_steps(self, tmp_path):
        data = gen_small(tmp_path)
        ckpt = self.constant_field_checkpoint(
            tmp_path, np.array([0.0, 0.0, 0.1, 0.2, 0.0, 0.0]))
        out = tmp_path / "abl"
        assert run_cli("ablate-steps", "--checkpoint", ckpt,
                       "--dataset", data / "dataset.csv", "--gt", data / "gt.tum",
                       "--steps", "2,5,10", "--seed", 11, "--out", out) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "steps,ate_rmse"
        ates = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(ates) == 3
        assert max(ates) - min(ates) < 1e-9

    def test_row_count_matches_step_list(self, tmp_path):
        data = gen_small(tmp_path)
        out = tmp_path / "abl"
        assert run_cli("ablate-steps", "--checkpoint", untrained_checkpoint(tmp_path),
                       "--dataset", data / "dataset.csv", "--gt", data / "gt.tum",
                       "--steps", "1,3,7,9", "--out", out) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert [int(l.split(",")[0]) for l in lines[1:]] == [1, 3, 7, 9]

    def test_manifest_records_nfe_per_sample(self, tmp_path):
        data = gen_small(tmp_path)
        out = tmp_path / "abl"
        assert run_cli("ablate-steps", "--checkpoint", untrained_checkpoint(tmp_path),
                       "--dataset", data / "dataset.csv", "--gt", data / "gt.tum",
                       "--method", "rk4", "--steps", "2,5", "--samples", 1,
                       "--out", out) == 0
        assert read_manifest(out)["counts"] == {"nfe_per_sample": [8, 20]}

    def test_bad_step_list_exits_2(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        for steps in ("2,five", "2,5,2"):
            code = run_cli("ablate-steps", "--checkpoint", untrained_checkpoint(tmp_path),
                           "--dataset", data / "dataset.csv", "--gt", data / "gt.tum",
                           "--steps", steps, "--out", tmp_path / "x")
            assert code == 2
        assert "step count 2 repeated in 2,5,2" in capsys.readouterr().err

    def test_rows_match_eval_of_infer(self, tmp_path):
        """The row for k steps is, as text, the ATE eval reports on
        infer --steps k with the same seed, under every align and scale."""
        data = gen_small(tmp_path)
        gt = data / "gt.tum"
        model = ["--checkpoint", untrained_checkpoint(tmp_path),
                 "--dataset", data / "dataset.csv", "--samples", 2, "--seed", 4]
        steps = [1, 3]
        for k in steps:
            assert run_cli("infer", *model, "--steps", k, "--out", tmp_path / f"inf{k}") == 0
        for align in trajeval.ALIGN_MODES:
            for scale in trajeval.SCALE_MODES:
                modes = ["--align", align, "--scale", scale]
                abl = tmp_path / f"abl_{align}_{scale}"
                assert run_cli("ablate-steps", *model, "--gt", gt, "--steps", "1,3",
                               *modes, "--out", abl) == 0
                rows = (abl / "ablation.csv").read_text().splitlines()[1:]
                for k, row in zip(steps, rows, strict=True):
                    ev = tmp_path / f"ev_{align}_{scale}_{k}"
                    assert run_cli("eval", tmp_path / f"inf{k}" / "est.tum", gt, *modes,
                                   "--out", ev) == 0
                    cells = (ev / "metrics.csv").read_text().splitlines()[1].split(",")
                    assert row == f"{k},{cells[3]}"

    @pytest.mark.parametrize("scale", ["none", "per_pair"])
    def test_diverged_estimates_exit_1(self, tmp_path, scale, capsys):
        # Saturated stages collapse each estimate's spread, so nothing
        # overflows in sampling; the ATE of the estimates, near 1e160, does.
        data = gen_small(tmp_path)
        net = vfnet.load_checkpoint(KEPT_CHECKPOINT)
        net.head_trans[-1][0][...] = 1e160
        ckpt = tmp_path / "huge.txt"
        vfnet.save_checkpoint(ckpt, net)
        gt = data / "gt.tum"
        code = run_cli("ablate-steps", "--checkpoint", ckpt, "--dataset",
                       data / "dataset.csv", "--gt", gt, "--scale", scale,
                       "--out", tmp_path / "x")
        assert code == 1
        assert (f"error: integration diverged: the ATE of the estimates against {gt} "
                "overflows the float range") in capsys.readouterr().err

    @pytest.mark.parametrize("align", ["none", "sim3"])
    def test_far_gt_exits_2_and_names_it(self, tmp_path, align, capsys):
        data = gen_small(tmp_path, n=4)
        gt = tmp_path / "far.tum"
        gt.write_text("".join(f"{i} {x} {y} {z} 0 0 0 1\n" for i, (x, y, z)
                              in enumerate(TestMalformedInputs.FAR)))
        code = run_cli("ablate-steps", "--checkpoint", KEPT_CHECKPOINT, "--dataset",
                       data / "dataset.csv", "--gt", gt, "--align", align,
                       "--out", tmp_path / "x")
        assert code == 2
        assert (f"error: bad trajectories: the ATE of the estimates against {gt} "
                "overflows the float range") in capsys.readouterr().err

    def test_gt_length_mismatch_exits_2(self, tmp_path):
        data = gen_small(tmp_path, "a", n=9)
        other = gen_small(tmp_path, "b", n=8)
        run = train_small(tmp_path, data)
        code = run_cli("ablate-steps", "--checkpoint", run / "checkpoint.txt",
                       "--dataset", data / "dataset.csv", "--gt", other / "gt.tum",
                       "--out", tmp_path / "x")
        assert code == 2


class TestTopLevel:
    def test_no_arguments_exits_2(self):
        assert run_cli() == 2

    def test_unknown_command_exits_2(self):
        assert run_cli("transmogrify") == 2

    def test_manifest_references_existing_files(self, tmp_path):
        data = gen_small(tmp_path)
        run = train_small(tmp_path, data)
        for directory in (data, run):
            manifest = json.loads((directory / "manifest.json").read_text())
            for path in list(manifest["inputs"].values()) + \
                    list(manifest["outputs"].values()):
                assert Path(path).is_file()


    @pytest.mark.parametrize("argv", [
        ["gen"],
        ["train", "--dataset", "d.csv"],
        ["infer", "--checkpoint", "c.txt", "--dataset", "d.csv"],
        ["eval", "est.tum", "gt.tum"],
        ["ablate-steps", "--checkpoint", "c.txt", "--dataset", "d.csv", "--gt", "gt.tum"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_that_is_not_a_directory_exits_2(self, tmp_path, capsys, argv, under):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if under else taken
        assert run_cli(*argv, "--out", out) == 2
        assert f"--out {out} is not a directory" in capsys.readouterr().err

    def test_unwritable_manifest_exits_1_after_the_summary(self, tmp_path, capsys):
        """main writes the manifest once the command has written its artifacts
        and printed its summary line, so a manifest.json that cannot be
        written exits 1 and leaves that line and the artifacts in place."""
        out = tmp_path / "data"
        (out / "manifest.json").mkdir(parents=True)
        assert run_cli("gen", "--n", 9, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.out == f"wrote 8 pairs to {out / 'dataset.csv'}\n"
        assert captured.err.startswith("error: ") and "manifest.json" in captured.err
        assert (out / "dataset.csv").is_file() and (out / "gt.tum").is_file()

    def test_every_manifest_records_environment(self, tmp_path):
        data = gen_small(tmp_path)
        ckpt = untrained_checkpoint(tmp_path)
        run = train_small(tmp_path, data, epochs=2)
        dataset, gt = data / "dataset.csv", data / "gt.tum"
        argvs = {
            "inf": ["infer", "--checkpoint", ckpt, "--dataset", dataset, "--samples", 2],
            "ev": ["eval", gt, gt],
            "abl": ["ablate-steps", "--checkpoint", ckpt, "--dataset", dataset, "--gt", gt,
                    "--steps", "1", "--samples", 1],
        }
        for name, argv in argvs.items():
            assert run_cli(*argv, "--out", tmp_path / name) == 0
        want = {"python": platform.python_version(), "numpy": np.__version__,
                "platform": platform.platform()}
        for directory in [data, run] + [tmp_path / name for name in argvs]:
            assert read_manifest(directory)["environment"] == want

    def test_manifest_records_every_input(self, tmp_path):
        """inputs holds exactly the input files given, by flag name, each
        spelled as Path spells it; the other keys are unchanged."""
        def given(path):  # a spelling Path normalizes
            return f"{path.parent}/./{path.name}"

        data = gen_small(tmp_path)
        first = train_small(tmp_path, data, "first", epochs=2)
        cfg = tmp_path / "first.cfg"
        dataset, gt, ckpt = data / "dataset.csv", data / "gt.tum", first / "checkpoint.txt"
        inf = tmp_path / "inf"
        runs = {
            "train": (["--dataset", given(dataset), "--config", given(cfg),
                       "--checkpoint", given(ckpt)],
                      {"dataset": dataset, "config": cfg, "checkpoint": ckpt}),
            "infer": (["--checkpoint", given(ckpt), "--dataset", given(dataset), "--samples", 2],
                      {"checkpoint": ckpt, "dataset": dataset}),
            "eval": ([given(inf / "est.tum"), given(gt),
                      "--estimates", given(inf / "estimates.csv")],
                     {"est": inf / "est.tum", "gt": gt, "estimates": inf / "estimates.csv"}),
            "ablate-steps": (["--checkpoint", given(ckpt), "--dataset", given(dataset),
                              "--gt", given(gt), "--steps", "1", "--samples", 1],
                             {"checkpoint": ckpt, "dataset": dataset, "gt": gt}),
        }
        config_keys = {
            "gen": {"kind", "n", "ambiguity", "noise_sigma", "cond_dim", "name", "lift_seed"},
            "train": {"train", "resumed", "net"},
            "infer": {"solver", "samples"},
            "eval": {"align", "scale", "name"},
            "ablate-steps": {"method", "steps", "samples", "align", "scale"},
        }
        counts_keys = {"infer": {"nfe_per_sample"}, "ablate-steps": {"nfe_per_sample"}}
        outs = {"gen": data}
        for command, (argv, inputs) in runs.items():
            outs[command] = inf if command == "infer" else tmp_path / command
            assert run_cli(command, *argv, "--out", outs[command]) == 0
            assert read_manifest(outs[command])["inputs"] == \
                {flag: str(path) for flag, path in inputs.items()}
        assert read_manifest(data)["inputs"] == {}
        for command, out in outs.items():
            manifest = read_manifest(out)
            assert set(manifest) == {"command", "seed", "config", "inputs", "outputs",
                                     "counts", "timings", "environment", "version"}
            assert manifest["command"] == command
            assert set(manifest["config"]) == config_keys[command]
            assert set(manifest["counts"]) == counts_keys.get(command, set())


# Each command's shortest valid argv and what it parses to, without func.
PARSED = {
    "gen": (["gen", "--out", "o"],
            {"command": "gen", "kind": "figure8", "n": 200, "ambiguity": 0.0, "noise": 0.0,
             "cond_dim": 16, "name": None, "seed": 0, "out": "o"}),
    "train": (["train", "--dataset", "d", "--out", "o"],
              {"command": "train", "dataset": "d", "config": None, "checkpoint": None,
               "seed": None, "out": "o"}),
    "infer": (["infer", "--checkpoint", "c", "--dataset", "d", "--out", "o"],
              {"command": "infer", "checkpoint": "c", "dataset": "d", "method": "midpoint",
               "steps": 5, "samples": 10, "seed": 0, "out": "o"}),
    "eval": (["eval", "e", "g", "--out", "o"],
             {"command": "eval", "est": "e", "gt": "g", "align": "sim3", "scale": "none",
              "estimates": None, "name": None, "out": "o"}),
    "ablate-steps": (["ablate-steps", "--checkpoint", "c", "--dataset", "d", "--gt", "g",
                      "--out", "o"],
                     {"command": "ablate-steps", "checkpoint": "c", "dataset": "d", "gt": "g",
                      "steps": [2, 5, 10], "method": "midpoint", "samples": 10, "align": "sim3",
                      "scale": "none", "seed": 0, "out": "o"}),
}


def without_one_required(argv):
    """argv minus each of its flag-value pairs and positionals in turn."""
    i = 1
    while i < len(argv):
        width = 2 if argv[i].startswith("--") else 1
        yield argv[:i] + argv[i + width:]
        i += width


class TestParser:
    @pytest.mark.parametrize("command", PARSED)
    def test_shortest_argv_parses_to_the_same_values(self, command):
        argv, want = PARSED[command]
        args = vars(cli.build_parser().parse_args(argv))
        args.pop("func")
        assert args == want

    @pytest.mark.parametrize("argv", [
        argv for shortest, _ in PARSED.values() for argv in without_one_required(shortest)
    ] + [
        PARSED["gen"][0] + ["--seed", "-1"],
        PARSED["gen"][0] + ["--checkpoint", "c"],
        PARSED["train"][0] + ["--seed", "x"],
        PARSED["train"][0] + ["--samples", "3"],
        PARSED["infer"][0] + ["--steps", "1,2"],
        PARSED["infer"][0] + ["--samples", "0"],
        PARSED["infer"][0] + ["--align", "se3"],
        PARSED["eval"][0] + ["--scale", "x"],
        PARSED["eval"][0] + ["--seed", "1"],
        PARSED["ablate-steps"][0] + ["--steps", "0"],
        PARSED["ablate-steps"][0] + ["--method", "x"],
    ], ids=" ".join)
    def test_missing_or_invalid_flag_exits_2(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        assert not Path("o").exists()


class TestMalformedInputs:
    """A malformed input file is a usage error (exit 2), whichever reader
    finds the fault."""

    @pytest.fixture
    def files(self, tmp_path):
        data = gen_small(tmp_path)
        good = tmp_path / "good.txt"
        net = vfnet.init_params(RNG(0), vfnet.NetConfig(cond_dim=synthworld.DEFAULT_COND_DIM))
        vfnet.save_checkpoint(good, net)
        text = good.read_text()
        truncated = tmp_path / "truncated.txt"
        truncated.write_text(text[:len(text) // 2])
        bad_shape = tmp_path / "bad_shape.txt"
        bad_shape.write_text("\n".join(
            "tensor state_embed.w x 6" if line.startswith("tensor state_embed.w ") else line
            for line in text.splitlines()) + "\n")
        headerless = tmp_path / "headerless.csv"
        headerless.write_text("".join(
            line for line in (data / "dataset.csv").read_text().splitlines(keepends=True)
            if not line.startswith("#")))
        estimates_header = ("pair_index,rho_x,rho_y,rho_z,t_x,t_y,t_z,"
                            "std_1,std_2,std_3,std_4,std_5,std_6\n")
        bad_estimates = tmp_path / "estimates.csv"
        bad_estimates.write_text(estimates_header + "0" + ",x" * 12 + "\n")
        header_only_estimates = tmp_path / "header_only.csv"
        header_only_estimates.write_text(estimates_header)
        short_estimates = tmp_path / "short.csv"
        short_estimates.write_text(estimates_header + "0" + ",0.5" * 12 + "\n")
        # One row per pair of the 9-pose dataset, well-formed but for one cell.
        rows = [f"{i}" + ",0.1" * 6 + ",0.5" * 6 for i in range(8)]
        negative_std = tmp_path / "negative_std.csv"
        negative_std.write_text(estimates_header + "\n".join(rows[:7] + [
            "7" + ",0.1" * 6 + ",0.5" * 5 + ",-5"]) + "\n")
        misnumbered = tmp_path / "misnumbered.csv"
        misnumbered.write_text(estimates_header + "\n".join(rows[:7] + [
            "3" + rows[7][1:]]) + "\n")
        nan_mean = tmp_path / "nan_mean.csv"
        nan_mean.write_text(estimates_header + "\n".join(rows[:7] + [
            "7,nan" + ",0.1" * 5 + ",0.5" * 6]) + "\n")
        nan_checkpoint = tmp_path / "nan.txt"
        lines = text.splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith("tensor state_embed.b ")) + 1
        lines[row] = " ".join(["nan"] + lines[row].split()[1:])
        nan_checkpoint.write_text("\n".join(lines) + "\n")
        header_only = tmp_path / "header_only_dataset.csv"
        header_only.write_text("".join(
            line for line in (data / "dataset.csv").read_text().splitlines(keepends=True)
            if line.startswith("#")))
        one_pose_gt = tmp_path / "one_pose.tum"
        one_pose_gt.write_text((data / "gt.tum").read_text().splitlines(keepends=True)[0])
        repeated_key = tmp_path / "repeated_key.csv"
        repeated_key.write_text("#lift_seed=7\n" + (data / "dataset.csv").read_text())
        repeated_size = tmp_path / "repeated_size.txt"
        repeated_size.write_text(text.replace(f"cond_dim={net.config.cond_dim}\n",
                                              f"cond_dim={net.config.cond_dim}\n" * 2, 1))
        huge_cond_dim = tmp_path / "huge_cond_dim.txt"
        huge_cond_dim.write_text(text.replace(f"cond_dim={net.config.cond_dim}\n",
                                              "cond_dim=1000000000000000\n", 1))
        return {"dataset": data / "dataset.csv", "gt": data / "gt.tum", "good": good,
                "truncated": truncated, "bad_shape": bad_shape,
                "headerless": headerless, "bad_estimates": bad_estimates,
                "header_only_estimates": header_only_estimates,
                "short_estimates": short_estimates, "nan_checkpoint": nan_checkpoint,
                "huge_cond_dim": huge_cond_dim, "header_only": header_only,
                "one_pose_gt": one_pose_gt, "repeated_key": repeated_key,
                "repeated_size": repeated_size,
                "negative_std": negative_std, "misnumbered": misnumbered,
                "nan_mean": nan_mean}

    @pytest.mark.parametrize("argv", [
        ["train", "--dataset", "{headerless}"],
        ["infer", "--checkpoint", "{good}", "--dataset", "{headerless}"],
        ["train", "--dataset", "{dataset}", "--checkpoint", "{truncated}"],
        ["infer", "--checkpoint", "{truncated}", "--dataset", "{dataset}"],
        ["ablate-steps", "--checkpoint", "{truncated}", "--dataset", "{dataset}",
         "--gt", "{gt}"],
        ["infer", "--checkpoint", "{bad_shape}", "--dataset", "{dataset}"],
        ["eval", "{gt}", "{gt}", "--estimates", "{bad_estimates}"],
        ["eval", "{gt}", "{gt}", "--estimates", "{header_only_estimates}"],
        ["eval", "{gt}", "{gt}", "--estimates", "{short_estimates}"],
        ["infer", "--checkpoint", "{nan_checkpoint}", "--dataset", "{dataset}"],
        ["infer", "--checkpoint", "{huge_cond_dim}", "--dataset", "{dataset}"],
        ["eval", "{gt}", "{gt}", "--estimates", "{negative_std}"],
        ["eval", "{gt}", "{gt}", "--estimates", "{misnumbered}"],
        ["infer", "--checkpoint", "{good}", "--dataset", "{repeated_key}"],
        ["infer", "--checkpoint", "{repeated_size}", "--dataset", "{dataset}"],
    ], ids=["train-headerless-dataset", "infer-headerless-dataset",
            "train-truncated-checkpoint", "infer-truncated-checkpoint",
            "ablate-truncated-checkpoint", "infer-bad-tensor-shape",
            "eval-non-numeric-estimates", "eval-header-only-estimates",
            "eval-estimates-row-count", "infer-nan-checkpoint", "infer-huge-cond-dim",
            "eval-negative-std-estimates", "eval-misnumbered-estimates",
            "infer-repeated-dataset-key", "infer-repeated-checkpoint-key"])
    def test_exits_2(self, files, argv, tmp_path, capsys):
        args = [arg.format(**files) for arg in argv]
        assert run_cli(*args, "--out", tmp_path / "out") == 2
        assert "error: bad " in capsys.readouterr().err

    def test_estimates_row_count_names_file_and_counts(self, files, tmp_path, capsys):
        poses = len(trajeval.read_tum(files["gt"]))
        assert run_cli("eval", files["gt"], files["gt"], "--estimates",
                       files["short_estimates"], "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"{files['short_estimates']} has 1 rows" in err
        assert f"{poses} poses; expected {poses - 1}" in err

    def test_non_finite_mean_names_its_line(self, files, tmp_path, capsys):
        # The header is line 1, so the eighth row is line 9.
        assert run_cli("eval", files["gt"], files["gt"], "--estimates",
                       files["nan_mean"], "--out", tmp_path / "out") == 2
        assert (f"error: bad estimates file: {files['nan_mean']}:9: mean_state must be finite"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["infer"],
        ["ablate-steps", "--gt", "{one_pose_gt}", "--align", "none"],
        ["ablate-steps", "--gt", "{one_pose_gt}"],
    ], ids=["infer", "ablate-align-none", "ablate-sim3"])
    def test_header_only_dataset_exits_2(self, files, argv, tmp_path, capsys):
        args = [arg.format(**files) for arg in argv]
        assert run_cli(*args, "--checkpoint", files["good"], "--dataset",
                       files["header_only"], "--out", tmp_path / "out") == 2
        assert "dataset has no rows" in capsys.readouterr().err

    @pytest.fixture
    def overflowing(self, files, tmp_path):
        """The ground truth with poses 1 and 2 moved to (1e308, 0, 0) and
        (-1e308, 1, 0): the motion between them overflows."""
        lines = files["gt"].read_text().splitlines()
        for i, position in ((1, "1e308 0 0"), (2, "-1e308 1 0")):
            lines[i] = f"{lines[i].split()[0]} {position} 0 0 0 1"
        path = tmp_path / "overflowing.tum"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("argv", [
        ["eval", "{bad}", "{bad}", "--align", "none", "--scale", "per_pair"],
        ["eval", "{bad}", "{gt}", "--scale", "global"],
        ["eval", "{gt}", "{bad}", "--scale", "per_pair"],
        ["ablate-steps", "--checkpoint", "{good}", "--dataset", "{dataset}", "--gt", "{bad}",
         "--steps", "1", "--samples", "1", "--scale", "per_pair"],
    ], ids=["eval-both", "eval-est", "eval-gt", "ablate-gt"])
    def test_overflowing_motion_names_its_file(self, files, overflowing, argv, tmp_path,
                                               capsys):
        args = [arg.format(bad=overflowing, **files) for arg in argv]
        assert run_cli(*args, "--out", tmp_path / "out") == 2
        assert f"error: bad trajectory: {overflowing}: a relative motion overflows" \
            in capsys.readouterr().err

    # Positions of b; c mirrors them in x.  Every relative motion is finite,
    # but est - gt, the centroids or the scale sums overflow.
    FAR = [(1e308, 0, 0), (1e308, 1, 0), (1e308, 0, 1), (1e308, 1, 1)]
    JUMPING = [(0, 0, 0), (1e308, 1, 0), (0, 2, 0), (1e308, 3, 0)]

    @pytest.mark.parametrize("positions, flags", [
        (FAR, ["--align", "none"]), (FAR, ["--align", "se3"]), (FAR, ["--align", "sim3"]),
        (FAR, ["--align", "none", "--scale", "per_pair"]),
        (JUMPING, ["--align", "none", "--scale", "global"]),
    ], ids=["none", "se3", "sim3", "none-per-pair", "jumping-global"])
    def test_positions_near_float_range_name_both_files(self, positions, flags, tmp_path,
                                                        capsys, recwarn):
        paths = []
        for name, sign in (("b", 1), ("c", -1)):
            path = tmp_path / f"{name}.tum"
            path.write_text("".join(f"{i} {sign * x} {y} {z} 0 0 0 1\n"
                                    for i, (x, y, z) in enumerate(positions)))
            paths.append(path)
        out = tmp_path / "out"
        assert run_cli("eval", *paths, *flags, "--out", out) == 2
        assert (f"error: bad trajectories: the ATE of {paths[0]} against {paths[1]} "
                "overflows the float range") in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (out / "metrics.csv").exists()


# sha256 of every artifact (all but the manifests) of one tiny pipeline:
# gen a noisy random walk, train, infer, eval with per-pair scale and
# spread columns, and ablate-steps with global scale.  It pins what the
# training and sampling digests do not: the ground truth, the dataset,
# composition, scale alignment and the TUM reader and writer.
PIPELINE_DIGESTS = {
    "ablate/ablation.csv": "c0a05905589d7e1e38a0c336a3e664131026f1673e03e3eafe49cd555378d3bc",
    "eval/metrics.csv": "8b5071f3c38d3131449b016cddeceda511630cca1cdb569dad4fee54aac006ce",
    "gen/dataset.csv": "8e3d41486aa89d767482c33de7550c715eb22ebd99f7b78a35f521c13540d4ff",
    "gen/gt.tum": "8ee6aad26fd7fe991cd014351fc8a43cec14773d0e873cc0b8d1c4104179b17e",
    "infer/est.tum": "ada458847ccc4d4f70cbd7ee10a7e9728dcc5ecac8939aa774f48b12c7b2a73d",
    "infer/estimates.csv": "a5a75643743169aa2df673a7afde81d1a794f4b6cd6d04f107ae50b2568972c1",
    "train/checkpoint.txt": "04f856eb195ec39011c0feb618397986bd8108ccc1b3ec1017f357b7da638b44",
    "train/loss.csv": "7f0c5d25d264e1d1fa73a0d743e13d4f12b1595011a3ca50c9d85291fcb1b16f",
}


def test_pipeline_artifacts_keep_their_bytes(tmp_path):
    gen, train, infer = tmp_path / "gen", tmp_path / "train", tmp_path / "infer"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 4\nbatch_size = 8\nseed = 5\n")
    for argv in (
        ["gen", "--kind", "random-walk", "--n", 31, "--noise", 0.05, "--seed", 11,
         "--out", gen],
        ["train", "--dataset", gen / "dataset.csv", "--config", cfg, "--out", train],
        ["infer", "--checkpoint", train / "checkpoint.txt", "--dataset", gen / "dataset.csv",
         "--samples", 3, "--steps", 2, "--seed", 13, "--out", infer],
        ["eval", infer / "est.tum", gen / "gt.tum", "--estimates", infer / "estimates.csv",
         "--scale", "per_pair", "--out", tmp_path / "eval"],
        ["ablate-steps", "--checkpoint", train / "checkpoint.txt",
         "--dataset", gen / "dataset.csv", "--gt", gen / "gt.tum", "--steps", "1,3",
         "--samples", 2, "--seed", 13, "--scale", "global", "--out", tmp_path / "ablate"],
    ):
        assert run_cli(*argv) == 0, argv
    digests = {str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.rglob("*"))
               if path.is_file() and path.suffix != ".cfg" and path.name != "manifest.json"}
    assert digests == PIPELINE_DIGESTS
