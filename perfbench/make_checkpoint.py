"""Remake the trained checkpoint that the infer-batch and infer-stream workloads read.

    python3 perfbench/make_checkpoint.py

It writes data/figure8_checkpoint.txt next to this script.  Every input
comes from the seeds below, so the file is byte-identical on a given numpy
build: remake it and run ``git diff`` to check.  The infer-* workloads read
it instead of training, so a change to training speed does not move their
set-up time.
"""

import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from motionflow import flowmatch, synthworld, vfnet  # noqa: E402

# The scenario every workload with a fixed network is built on: a 201-pose
# figure8 whose condition encoder is the library default.
FIGURE8_POSES = 201
LIFT_SEED = synthworld.DEFAULT_LIFT_SEED
TRAIN_CONFIG = flowmatch.TrainConfig(batch_size=64, epochs=4000, lr=2e-3,
                                     lr_decay_factor=0.05, lr_decay_epoch=2000,
                                     seed=10)
CHECKPOINT = Path(__file__).resolve().parent / "data" / "figure8_checkpoint.txt"


def figure8_scenario(noise_sigma=0.0, rng=None, poses=FIGURE8_POSES):
    """The fixed figure8 scenario, with optional seeded condition noise."""
    if rng is None:
        rng = np.random.default_rng(0)
    return synthworld.make_scenario("figure8", "figure8", poses, 0.0,
                                    noise_sigma, rng, lift_seed=LIFT_SEED)


def main() -> int:
    t0 = time.perf_counter()
    net, history = flowmatch.train(figure8_scenario().pairs, TRAIN_CONFIG)
    vfnet.save_checkpoint(CHECKPOINT, net)
    print(f"trained {len(history)} steps in {time.perf_counter() - t0:.1f} s, "
          f"final loss {history[-1][2]:.6g}, wrote {CHECKPOINT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
