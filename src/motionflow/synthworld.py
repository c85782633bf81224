"""Synthetic ground truth: trajectories, motions, and condition vectors.

The condition vector stands in for an encoded image pair.  It is a fixed,
seeded random linear lift of hand-picked motion features, split into a
scale-free block (rotation, translation direction, sinusoids of both)
and a translation-scale block.  An ambiguity dial a in [0, 1] attenuates
the scale block by (1 - a): at a=0 the condition determines the motion,
at a=1 motions differing only in translation scale become
indistinguishable, which is the monocular scale ambiguity in miniature.
Gaussian noise of scale noise_sigma is added on top when requested.

Trajectories are world-from-camera pose sequences at 1 Hz with per-step
motion kept in the small-motion regime (rotation well below pi,
translation between 1 cm and 1 m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import se3, textio, trajeval
from .flowmatch import TrainingPair
from .vfnet import ConditionVector

TRAJECTORY_KINDS = ("line", "arc", "figure8", "random-walk")

# Feature layout for the condition lift.
_BASE_FEATURES = 15   # rho, t_hat, sin(rho), cos(rho), sin(pi t_hat)
_SCALE_FEATURES = 3   # |t|, sin|t|, cos|t|

DEFAULT_COND_DIM = 16
DEFAULT_LIFT_SEED = 24036


@dataclass(frozen=True, eq=False)
class Scenario:
    """A named world: ground truth trajectory plus training pairs."""

    name: str
    gt_trajectory: trajeval.Trajectory
    pairs: list
    ambiguity: float
    noise_sigma: float
    cond_dim: int
    lift_seed: int


def relative_motions(traj: trajeval.Trajectory):
    """Frame-to-frame motions: rel_i = pose_i^-1 o pose_{i+1}."""
    return [
        se3.compose(se3.inverse(traj.poses[i]), traj.poses[i + 1])
        for i in range(len(traj) - 1)
    ]


def make_trajectory(kind: str, n: int, rng: np.random.Generator) -> trajeval.Trajectory:
    """Generate a smooth n-pose trajectory of the requested kind.

    line: unit steps along +x, identity rotation.
    arc: constant relative motion (0.1 rad yaw, 0.3 m forward).
    figure8: a Gerono lemniscate scaled so the largest step is 0.5 m,
      with a gentle oscillating yaw; the sample phase avoids the curve's
      self-intersection landing on two parameter values.
    random-walk: independent small random steps (needs rng).
    """
    if kind not in TRAJECTORY_KINDS:
        raise ValueError(f"unknown trajectory kind {kind!r}; expected one of "
                         f"{TRAJECTORY_KINDS}")
    if n < 2:
        raise ValueError(f"trajectory needs n >= 2 poses, got {n}")
    stamps = np.arange(n, dtype=np.float64)

    if kind == "line":
        poses = [
            se3.RelativePose(se3.Rotation.identity(), [float(i), 0.0, 0.0])
            for i in range(n)
        ]
        return trajeval.Trajectory(stamps, poses)

    if kind == "arc":
        step = se3.RelativePose(se3.exp_map([0.0, 0.0, 0.1]), [0.3, 0.0, 0.0])
        return trajeval.compose_trajectory(se3.RelativePose.identity(), [step] * (n - 1))

    if kind == "figure8":
        # Parameter grid offset by a quarter step so no sample hits t = 0 or
        # t = pi, the two parameters that map to the self-intersection point.
        t = 2.0 * math.pi * (np.arange(n) + 0.25) / n
        unit = np.stack([np.sin(t), np.sin(t) * np.cos(t), np.zeros(n)], axis=1)
        steps = np.linalg.norm(np.diff(unit, axis=0), axis=1)
        scale = 0.5 / steps.max()
        if steps.min() * scale < 0.01:
            raise ValueError(f"figure8 with n={n} produces steps below 1 cm")
        points = unit * scale
        yaw = 0.5 * np.sin(t)
        poses = [
            se3.RelativePose(se3.exp_map([0.0, 0.0, float(y)]), p)
            for y, p in zip(yaw, points)
        ]
        return trajeval.Trajectory(stamps, poses)

    # random-walk
    rels = []
    for _ in range(n - 1):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, 0.2)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        length = rng.uniform(0.05, 0.5)
        rels.append(se3.RelativePose(se3.exp_map(axis * angle), direction * length))
    return trajeval.compose_trajectory(se3.RelativePose.identity(), rels)


@dataclass(frozen=True, eq=False)
class ConditionEncoder:
    """The frozen feature lift: motion -> condition vector.

    Weights are regenerated from lift_seed on construction, so an encoder
    is fully described by (dim, lift_seed) and can be rebuilt from a
    dataset header.
    """

    dim: int
    lift_seed: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("condition dim must be >= 1")
        rng = np.random.default_rng(self.lift_seed)
        w_base = rng.standard_normal((self.dim, _BASE_FEATURES)) / math.sqrt(_BASE_FEATURES)
        w_scale = rng.standard_normal((self.dim, _SCALE_FEATURES)) / math.sqrt(_SCALE_FEATURES)
        w_base.flags.writeable = False
        w_scale.flags.writeable = False
        object.__setattr__(self, "_w_base", w_base)
        object.__setattr__(self, "_w_scale", w_scale)

    def encode(self, rel: se3.RelativePose, ambiguity: float, noise_sigma: float,
               rng: np.random.Generator = None) -> ConditionVector:
        if not (0.0 <= ambiguity <= 1.0):
            raise ValueError(f"ambiguity must lie in [0, 1], got {ambiguity}")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        state = se3.pose_to_state(rel)
        rho, trans = state.rho, state.trans
        scale = float(np.linalg.norm(trans))
        t_hat = trans / scale if scale > 1e-12 else np.zeros(3)
        base = np.concatenate([
            rho, t_hat, np.sin(rho), np.cos(rho), np.sin(math.pi * t_hat)
        ])
        scale_feats = np.array([scale, math.sin(scale), math.cos(scale)])
        values = self._w_base @ base + (1.0 - ambiguity) * (self._w_scale @ scale_feats)
        if noise_sigma > 0.0:
            if rng is None:
                raise ValueError("noise_sigma > 0 requires an rng")
            values = values + noise_sigma * rng.standard_normal(self.dim)
        return ConditionVector(values)


def make_scenario(name: str, kind: str, n: int, ambiguity: float,
                  noise_sigma: float, rng: np.random.Generator,
                  cond_dim: int = DEFAULT_COND_DIM,
                  lift_seed: int = None) -> Scenario:
    """Trajectory plus encoded training pairs, chained and checked.

    The lift seed is drawn from rng when not given, and is recorded in the
    Scenario (and in exported dataset headers) so conditions can be
    regenerated by the same frozen encoder.
    """
    if lift_seed is None:
        lift_seed = int(rng.integers(0, 2 ** 63))
    traj = make_trajectory(kind, n, rng)
    encoder = ConditionEncoder(cond_dim, lift_seed)
    rels = relative_motions(traj)
    pairs = [
        TrainingPair(se3.pose_to_state(rel),
                     encoder.encode(rel, ambiguity, noise_sigma, rng))
        for rel in rels
    ]
    scenario = Scenario(name, traj, pairs, ambiguity, noise_sigma, cond_dim, lift_seed)
    _check_chaining(scenario)
    return scenario


def _check_chaining(scenario: Scenario) -> None:
    """Recompose pairs from pose 0 and compare against the stored poses."""
    poses = trajeval.compose_trajectory(
        scenario.gt_trajectory.poses[0],
        [se3.state_to_pose(p.target) for p in scenario.pairs],
    ).poses
    for i, (got, want) in enumerate(zip(poses, scenario.gt_trajectory.poses)):
        angle = se3.geodesic_angle(got.rotation, want.rotation)
        offset = float(np.linalg.norm(got.translation - want.translation))
        if angle > 1e-9 or offset > 1e-9:
            raise AssertionError(
                f"scenario {scenario.name}: chained pose {i} drifts "
                f"(angle {angle:.2e}, offset {offset:.2e})"
            )


# Bimodal dataset: two fixed motions sharing one condition.  Their state
# distance is ~1.17, comfortably past the required 0.5 separation.
BIMODAL_MODE_A = ([0.0, 0.0, 0.3], [0.5, 0.0, 0.0])
BIMODAL_MODE_B = ([0.0, 0.0, -0.3], [-0.5, 0.0, 0.0])


def make_bimodal_dataset(n: int, rng: np.random.Generator):
    """n pairs whose targets split ~50/50 between two motions, one condition.

    The shared condition is the default encoder's encoding of the identity
    motion, so it carries no information about which mode produced a
    sample: the textbook multimodal regression setup.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"bimodal dataset size must be even and >= 2, got {n}")
    encoder = ConditionEncoder(DEFAULT_COND_DIM, DEFAULT_LIFT_SEED)
    shared = encoder.encode(se3.RelativePose.identity(), 0.0, 0.0)
    mode_a = se3.MotionState(*BIMODAL_MODE_A)
    mode_b = se3.MotionState(*BIMODAL_MODE_B)
    picks = rng.random(n) < 0.5
    return [
        TrainingPair(mode_a if pick else mode_b, shared)
        for pick in picks
    ]


# --- dataset files -----------------------------------------------------------
#
# Text format: four header lines
#     #k=<dim>  #lift_seed=<u64>  #ambiguity=<f>  #noise=<f>
# then CSV rows.  Full rows are rho_x,rho_y,rho_z,t_x,t_y,t_z,c_1..c_k;
# condition-only rows carry just the k condition cells.


def write_scenario_dataset(path, scenario: Scenario) -> None:
    textio.write_lines(path, [
        f"#k={scenario.cond_dim}",
        f"#lift_seed={scenario.lift_seed}",
        "#ambiguity=" + textio.fmt([scenario.ambiguity]),
        "#noise=" + textio.fmt([scenario.noise_sigma]),
    ] + [textio.fmt(pair.target.as_vector().tolist() + pair.cond.values.tolist())
         for pair in scenario.pairs])


@dataclass(frozen=True)
class DatasetHeader:
    cond_dim: int
    lift_seed: int
    ambiguity: float
    noise_sigma: float


# Header key -> parser, in DatasetHeader field order.
_HEADER_FIELDS = {"k": int, "lift_seed": int, "ambiguity": float, "noise": float}


def read_dataset_header(path) -> DatasetHeader:
    values = {}
    for where, line in textio.numbered(path, skip_comments=False):
        if not line.startswith("#"):
            break
        if "=" in line:
            with textio.at(where):
                key, value = textio.key_value(line[1:], values)
                if key in _HEADER_FIELDS:
                    values[key] = _HEADER_FIELDS[key](value)
    missing = [key for key in _HEADER_FIELDS if key not in values]
    if missing:
        raise ValueError(f"{path}: missing dataset header field {missing[0]!r}")
    return DatasetHeader(*(values[key] for key in _HEADER_FIELDS))


def ingest_features(path):
    """Parse a dataset file into (ConditionVector, TrainingPair or None) rows.

    Rows with 6+k cells carry ground truth and yield TrainingPairs; rows
    with exactly k cells are condition-only.  Any other width, a
    non-numeric cell or a value the row's objects reject is an error
    reported with its line number.
    """
    k = read_dataset_header(path).cond_dim
    out = []
    for where, line in textio.numbered(path):
        with textio.at(where):
            values = np.array([float(cell) for cell in line.split(",")])
            if values.size == 6 + k:
                cond = ConditionVector(values[6:])
                out.append((cond, TrainingPair(se3.MotionState(values[:3], values[3:6]), cond)))
            elif values.size == k:
                out.append((ConditionVector(values), None))
            else:
                raise ValueError(f"row has {values.size} cells, expected {6 + k} "
                                 f"(with ground truth) or {k} (condition only)")
    return out
