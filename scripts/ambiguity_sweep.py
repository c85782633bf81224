"""Sampling spread versus scale ambiguity of the conditioning signal.

Trains one model per ambiguity level on a dataset built so that scale
becomes genuinely unrecoverable as the level rises: pure translations
along a single axis with varied lengths, whose condition vectors collide
once the scale features are suppressed.  As the condition stops
determining length, the sampler should answer with wider spread, not
with a confidently wrong point estimate.  Reported per level: the mean
per-component standard deviation across flow samples.  Acceptance
criterion 6 calls spreads() with its defaults.

Trajectory-style scenarios cannot drive this experiment.  Their per-pair
motion directions are distinct enough that a network memorizes length
from direction features alone, and the spread stays flat.

Usage:
    python3 scripts/ambiguity_sweep.py
    python3 scripts/ambiguity_sweep.py --epochs 1500 --samples 16
"""

import argparse

import numpy as np

from motionflow import cli, flowmatch, sampler, se3, synthworld

LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


def spreads(epochs=4000, reps=6, noise=0.05, samples=32, seed=41) -> list:
    """Mean sampling spread of the model trained at each level of LEVELS."""
    encoder = synthworld.ConditionEncoder(
        synthworld.DEFAULT_COND_DIM, synthworld.DEFAULT_LIFT_SEED)
    motions = np.zeros((8, 6))  # chart rows (rho, trans): lengths along x, no rotation
    motions[:, 3] = np.linspace(0.1, 1.2, 8)
    config = flowmatch.TrainConfig(
        batch_size=48, epochs=epochs, lr=2e-3,
        lr_decay_factor=0.05, lr_decay_epoch=max(1, epochs // 2), seed=5)
    out = []
    for level in LEVELS:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        pairs = [flowmatch.TrainingPair(se3.MotionState(row[:3], row[3:]),
                                        encoder.encode(row, level, noise, rng))
                 for _ in range(reps) for row in motions]
        net, _ = flowmatch.train(pairs, config)
        results = sampler.estimate_sequence(
            net, [p.cond for p in pairs[:2 * len(motions)]],
            sampler.SolverConfig("midpoint", 5), samples,
            np.random.default_rng(np.random.SeedSequence(51)))
        out.append(float(np.mean([r.std_state for r in results])))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=cli._number(int, 1), default=4000)
    parser.add_argument("--reps", type=cli._number(int, 1), default=6,
                        help="noisy repetitions of each length")
    parser.add_argument("--noise", type=cli._number(float, 0.0), default=0.05,
                        help="condition noise sigma (0 makes levels collapse)")
    parser.add_argument("--samples", type=cli._number(int, 1), default=32,
                        help="flow samples per evaluated condition")
    parser.add_argument("--seed", type=cli._number(int, 0), default=41)
    args = parser.parse_args(argv)

    print(f"training one model per ambiguity level {LEVELS} ...")
    per_level = spreads(args.epochs, args.reps, args.noise, args.samples, args.seed)
    print(f"\n{'ambiguity':>10}  {'mean spread':>12}")
    for level, spread in zip(LEVELS, per_level):
        print(f"{level:10.2f}  {spread:12.4f}")
    # LEVELS are evenly spaced: Pearson against the spreads' ranks is Spearman.
    rho = np.corrcoef(LEVELS, np.argsort(np.argsort(per_level)))[0, 1]
    print(f"rank correlation with ambiguity = {rho:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
