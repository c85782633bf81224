"""Shared trained-model fixtures, and the rotation-matrix oracle.

Training runs are the slow part of the suite, so anything needed by more
than one test module lives here as a session-scoped fixture.  Fixtures
are lazy: a pytest invocation that selects none of their consumers pays
nothing.
"""

import time

import numpy as np
import pytest

from motionflow import flowmatch, se3, synthworld

# Fixed relative motion used by the single-target training fixture.
DIRAC_RHO = np.array([0.10, -0.20, 0.15])
DIRAC_TRANS = np.array([0.30, 0.10, -0.20])


def rotation_matrix(q) -> np.ndarray:
    """The 3x3 rotation matrix of one quaternion, normalized and signed
    by se3.stack first: the matrix oracle of the pose tests."""
    (w, x, y, z), = se3.stack([q], np.zeros((1, 3)))[0]
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def dirac_pair():
    """One training pair repeated across the whole dataset."""
    target = se3.MotionState(DIRAC_RHO, DIRAC_TRANS)
    encoder = synthworld.ConditionEncoder(synthworld.DEFAULT_COND_DIM,
                                          synthworld.DEFAULT_LIFT_SEED)
    # The encoder sees the motion's chart row taken to its pose and back.
    row = se3.pose_to_state(*se3.state_to_pose(target.as_vector()))
    cond = encoder.encode(row, 0.0, 0.0)
    return flowmatch.TrainingPair(target=target, cond=cond)


@pytest.fixture(scope="session")
def dirac_run():
    """Network trained to mastery on a single repeated motion.

    Schedule chosen so the loss settles onto its floor well before the
    end; the same run backs both the convergence-ratio test and the
    sampling-accuracy test.
    """
    pair = dirac_pair()
    config = flowmatch.TrainConfig(
        batch_size=64,
        epochs=4000,
        lr=2e-3,
        lr_decay_factor=0.5,
        lr_decay_epoch=2000,
        seed=7,
    )
    t0 = time.perf_counter()
    net, history = flowmatch.train([pair] * config.batch_size, config)
    seconds = time.perf_counter() - t0
    return {"net": net, "history": history, "pair": pair, "config": config,
            "train_seconds": seconds}
