"""Train a model on a synthetic scenario and evaluate it at several step counts.

Runs the whole library pipeline in-process: scenario synthesis, vector
field training, sampling-based motion estimation, trajectory composition,
and aligned ATE.  Every step count samples from the same seed, so rows
differ only through the ODE discretization.  Defaults are sized for a
coffee-break run; acceptance criteria 5 and 7 call run(n=201, epochs=4000).

Usage:
    python3 scripts/demo_pipeline.py
    python3 scripts/demo_pipeline.py --kind random-walk --n 101 --epochs 4000
    python3 scripts/demo_pipeline.py --steps 1,2,3,5,10,20 --method euler
"""

import argparse
import time

import numpy as np

from motionflow import cli, flowmatch, sampler, se3, synthworld, trajeval


def train_config(epochs: int, seed: int) -> flowmatch.TrainConfig:
    """The scenario schedule.  Its small final learning rate (factor 0.05)
    freezes the per-pair rotation bias that otherwise wanders between
    nearby minima late in training and compounds over a long composition."""
    return flowmatch.TrainConfig(batch_size=64, epochs=epochs, lr=2e-3, lr_decay_factor=0.05,
                                 lr_decay_epoch=max(1, epochs // 2), seed=seed)


def run(kind="figure8", n=61, epochs=1500, steps=(2, 5, 10), method="midpoint",
        samples=10, seed=7):
    """(scenario, seconds spent in flowmatch.train, {step count: (sample
    sets, the trajectory their estimates compose to)})."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    scenario = synthworld.make_scenario(kind, kind, n, 0.0, 0.0, rng)
    t0 = time.perf_counter()
    net, _ = flowmatch.train(scenario.pairs, train_config(epochs, seed=10))
    seconds = time.perf_counter() - t0
    rows = {}
    for k in steps:
        results = sampler.estimate_sequence(
            net, [pair.cond for pair in scenario.pairs], sampler.SolverConfig(method, k),
            samples, np.random.default_rng(np.random.SeedSequence(17)))
        rows[k] = results, trajeval.compose_trajectory(
            se3.RelativePose.identity(), [r.estimate for r in results])
    return scenario, seconds, rows


def diameter(trajectory) -> float:
    positions = trajectory.positions()
    return float(np.max(np.linalg.norm(
        positions[:, None, :] - positions[None, :, :], axis=2)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=synthworld.TRAJECTORY_KINDS,
                        default="figure8")
    parser.add_argument("--n", type=cli._number(int, 2), default=61,
                        help="trajectory poses (pairs = n - 1)")
    parser.add_argument("--epochs", type=cli._number(int, 1), default=1500)
    parser.add_argument("--steps", type=cli._step_list, default=[2, 5, 10],
                        help="comma-separated step counts")
    parser.add_argument("--method", choices=sampler.SOLVER_METHODS,
                        default="midpoint")
    parser.add_argument("--samples", type=cli._number(int, 1), default=10,
                        help="flow samples per motion")
    parser.add_argument("--seed", type=cli._number(int, 0), default=7)
    args = parser.parse_args(argv)

    print(f"training on {args.n - 1} {args.kind} pairs "
          f"for {args.epochs} epochs ...")
    scenario, seconds, rows = run(args.kind, args.n, args.epochs, args.steps,
                                  args.method, args.samples, args.seed)
    gt = scenario.gt_trajectory
    print(f"trained in {seconds:.1f} s; trajectory diameter {diameter(gt):.3f}")
    print("steps  " + "  ".join(f"{'ate_' + a:>9}" for a in trajeval.ALIGN_MODES)
          + "     spread")
    for k, (results, est) in rows.items():
        ates = [trajeval.ate(est, gt, align=a) for a in trajeval.ALIGN_MODES]
        spread = np.mean([r.std_state for r in results])
        print(f"{k:5d}" + "".join(f"  {v:9.4f}" for v in [*ates, spread]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
