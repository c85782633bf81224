"""Trajectories: composition, alignment, and absolute error.

ATE here is the root-mean-square of per-pose position errors after an
optional alignment:

- none: positions compared as-is
- se3: rigid (rotation + translation) least-squares alignment
- sim3: similarity (scale + rotation + translation), the 7-DoF protocol
  used when monocular scale is unobservable

The similarity alignment is the closed-form SVD solution of the
orthogonal Procrustes problem with Umeyama's determinant-sign correction
and variance-ratio scale.  Translation scale alignment (rescaling
estimated per-pair translations against ground truth) is a separate,
deliberately simpler tool applied to relative motions before composing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import se3, textio

ALIGN_MODES = ("none", "se3", "sim3")
SCALE_MODES = ("none", "per_pair", "global")

# Two points whose centered cloud has second singular value below this
# (relative to the first) span no plane; rotation is then unrecoverable.
COLLINEAR_TOL = 1e-9


class DegenerateTrajectoryError(ValueError):
    """Alignment is underdetermined: the positions are collinear (or one
    point), or they admit no positive finite scale."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped absolute poses (world-from-camera)."""

    stamps: np.ndarray
    poses: list

    def __post_init__(self):
        stamps = np.array(self.stamps, dtype=np.float64).reshape(-1)
        if stamps.size != len(self.poses):
            raise ValueError(
                f"{stamps.size} stamps for {len(self.poses)} poses"
            )
        if stamps.size == 0:
            raise ValueError("trajectory must contain at least one pose")
        if not (np.isfinite(stamps).all() and (np.diff(stamps) > 0).all()):
            raise ValueError("stamps must be finite and strictly increasing")
        for i, pose in enumerate(self.poses):
            if not isinstance(pose, se3.RelativePose):
                raise TypeError(f"pose {i} is not a RelativePose")
        stamps.flags.writeable = False
        object.__setattr__(self, "stamps", stamps)
        object.__setattr__(self, "poses", list(self.poses))

    def __len__(self) -> int:
        return len(self.poses)

    def positions(self) -> np.ndarray:
        return np.stack([p.translation for p in self.poses])


class Alignment(NamedTuple):
    """Similarity transform mapping estimate onto ground truth, plus its RMSE."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray
    ate_rmse: float


def compose_trajectory(start: se3.RelativePose, rels) -> Trajectory:
    """Chain relative motions onto a start pose; stamps are 0..n seconds."""
    poses = [start]
    for rel in rels:
        poses.append(se3.compose(poses[-1], rel))
    return Trajectory(np.arange(len(poses), dtype=np.float64), poses)


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v), sqrt(<v, v>), unless <v, v> underflows; then
    math.hypot, which scales v before it squares."""
    sq = float(np.dot(v, v))
    return math.sqrt(sq) if sq >= sys.float_info.min else math.hypot(*v.tolist())


@np.errstate(over="raise", invalid="raise")
def scale_align(est_rels, gt_rels, mode: str = "per_pair"):
    """Rescale estimated translations against ground truth; rotations untouched.

    per_pair: each estimate takes its ground-truth pair's translation norm
    (pairs whose ground truth or estimate is the zero vector pass through
    unchanged); where the scale gt_norm / est_norm overflows, est's unit
    direction is scaled instead.  global: one least-squares scale
    s* = sum<est, gt> / sum<est, est> applied to every pair.  Raises
    FloatingPointError, and warns nothing, when a norm, a sum, global's
    scale or a rescaled translation overflows.
    """
    est_rels, gt_rels = list(est_rels), list(gt_rels)
    if len(est_rels) != len(gt_rels):
        raise ValueError(
            f"scale_align needs equal lengths, got {len(est_rels)} vs {len(gt_rels)}"
        )
    if mode not in ("per_pair", "global"):
        raise ValueError(f"unknown scale mode {mode!r}")
    if mode == "per_pair":
        out = []
        for est, gt in zip(est_rels, gt_rels):
            gt_norm = _norm(gt.translation)
            est_norm = _norm(est.translation)
            if gt_norm == 0.0 or est_norm == 0.0:
                out.append(est)
                continue
            ratio = gt_norm / est_norm
            if math.isfinite(ratio):
                out.append(se3.RelativePose(est.rotation, est.translation * ratio))
            else:  # the scale overflows; est's direction times gt's norm need not
                out.append(se3.RelativePose(est.rotation, est.translation / est_norm * gt_norm))
        return out
    est = [e.translation for e in est_rels]
    # Both sides times one power of two, which leaves s* as it is: the largest
    # estimated entry is then at least 0.5, so sum<est, est> cannot underflow.
    k = max(0, -math.frexp(float(np.max(np.abs(est), initial=0.0)))[1])
    est, gt = np.ldexp(est, k), np.ldexp([g.translation for g in gt_rels], k)
    num = sum(float(np.dot(e, g)) for e, g in zip(est, gt))
    den = sum(float(np.dot(e, e)) for e in est)
    s = num / den if den > 0.0 else 1.0
    if not (math.isfinite(den) and math.isfinite(s)):
        raise FloatingPointError(f"overflow encountered in the scale {num} / {den}")
    return [se3.RelativePose(e.rotation, e.translation * s) for e in est_rels]


def _centered(points: np.ndarray):
    mean = points.mean(axis=0)
    centered = points - mean
    return mean, centered


def _check_rank(centered: np.ndarray, label: str) -> None:
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[0] < 1e-12 or sv[1] < COLLINEAR_TOL * sv[0]:
        raise DegenerateTrajectoryError(
            f"{label} trajectory positions are collinear; similarity "
            "alignment is underdetermined"
        )


def umeyama_align(est: Trajectory, gt: Trajectory, with_scale: bool = True) -> Alignment:
    """Least-squares similarity (or rigid) alignment of est onto gt.

    Minimizes sum ||s R p_est + t - p_gt||^2 in closed form: SVD of the
    cross-covariance with the sign of the smallest singular direction
    flipped when needed to keep det(R) = +1, scale from the variance
    ratio (1 when with_scale is false).  rotation is the 3x3 matrix R.
    """
    if len(est) != len(gt):
        raise ValueError(f"trajectory lengths differ: {len(est)} vs {len(gt)}")
    if len(est) < 3:
        raise ValueError("alignment needs at least 3 poses")
    x = est.positions()
    y = gt.positions()
    mu_x, xc = _centered(x)
    mu_y, yc = _centered(y)
    _check_rank(xc, "estimated")
    _check_rank(yc, "ground-truth")

    cov = yc.T @ xc / len(est)
    u, d, vt = np.linalg.svd(cov)
    sign = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign[2, 2] = -1.0
    rot_matrix = u @ sign @ vt
    if with_scale:
        var_x = float((xc * xc).sum()) / len(est)
        scale = float(np.trace(np.diag(d) @ sign)) / var_x
        if not (scale > 0 and math.isfinite(scale)):
            raise DegenerateTrajectoryError(f"scale must be positive, got {scale}")
    else:
        scale = 1.0
    trans = mu_y - scale * (rot_matrix @ mu_x)
    resid = (scale * (x @ rot_matrix.T) + trans) - y
    rmse = float(np.sqrt(np.mean(np.sum(resid * resid, axis=1))))
    return Alignment(scale, rot_matrix, trans, rmse)


@np.errstate(over="raise", invalid="raise")
def ate(est: Trajectory, gt: Trajectory, align: str = "sim3") -> float:
    """Absolute trajectory error (RMSE, meters) after the requested alignment.

    Raises FloatingPointError, and warns nothing, when positions lie so
    near the float range that a step of the computation overflows.
    """
    if align not in ALIGN_MODES:
        raise ValueError(f"unknown align mode {align!r}; expected one of {ALIGN_MODES}")
    if len(est) != len(gt):
        raise ValueError(f"trajectory lengths differ: {len(est)} vs {len(gt)}")
    if align == "none":
        diff = est.positions() - gt.positions()
        return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))
    return umeyama_align(est, gt, with_scale=(align == "sim3")).ate_rmse


# --- file formats -------------------------------------------------------------


def write_tum(path, traj: Trajectory) -> None:
    """TUM format: `timestamp tx ty tz qx qy qz qw` per line."""
    lines = []
    for stamp, pose in zip(traj.stamps.tolist(), traj.poses):
        w, x, y, z = pose.rotation.q.tolist()
        lines.append(textio.fmt([stamp, *pose.translation.tolist(), x, y, z, w], " "))
    textio.write_lines(path, lines)


def read_tum(path) -> Trajectory:
    stamps = []
    poses = []
    for where, line in textio.numbered(path):
        with textio.at(where):
            stamp, tx, ty, tz, qx, qy, qz, qw = textio.floats(line.split(), 8)
            poses.append(se3.RelativePose(se3.Rotation([qw, qx, qy, qz]), [tx, ty, tz]))
            stamps.append(stamp)
    if not poses:
        raise ValueError(f"{path}: no poses found")
    with textio.at(path):
        return Trajectory(stamps, poses)


METRICS_HEADER = "scenario,align_mode,scale_mode,ate_rmse,mean_std_rot,mean_std_trans"


def write_metrics_csv(path, rows) -> None:
    """Metric report rows: (scenario, align_mode, scale_mode, ate_rmse,
    mean_std_rot, mean_std_trans); the std columns may be NaN when no
    sampling spread is available."""
    textio.write_lines(path, [METRICS_HEADER] + [
        f"{scenario},{align_mode},{scale_mode}," + textio.fmt(numbers)
        for scenario, align_mode, scale_mode, *numbers in rows])
