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
    """Alignment is underdetermined: fewer than 3 poses, positions that are
    collinear (or one point), or no positive finite scale."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped absolute poses (world-from-camera) as read-only arrays:
    stamps (n,) and a pose stack, canonical q (n, 4) and t (n, 3).  Checked
    once, here: at least one pose, stamps finite and strictly increasing,
    and the pose rows as se3.stack checks them; a fault raises se3.RowError
    naming the first pose with one."""

    stamps: np.ndarray
    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        stamps = np.array(self.stamps, dtype=np.float64).reshape(-1)

        def rising():
            ok = np.isfinite(stamps)
            ok[1:] &= stamps[1:] > stamps[:-1]
            if not ok.all():
                raise se3.RowError(int(np.argmin(ok)),
                                   "stamps must be finite and strictly increasing")

        (q, t), _ = se3.first_fault(lambda: se3.stack(self.q, self.t), rising)
        if stamps.size != len(q):
            raise ValueError(f"{stamps.size} stamps for {len(q)} poses")
        if stamps.size == 0:
            raise ValueError("trajectory must contain at least one pose")
        stamps.flags.writeable = False
        object.__setattr__(self, "stamps", stamps)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    def __len__(self) -> int:
        return len(self.stamps)

    def positions(self) -> np.ndarray:
        return self.t


class Alignment(NamedTuple):
    """Similarity transform mapping estimate onto ground truth, plus its RMSE."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray
    ate_rmse: float


def compose_trajectory(start, rels) -> Trajectory:
    """Chain a stack of relative motions onto start, a one-pose stack, as
    se3.chain does; stamps are 0..n seconds."""
    q, t = se3.chain(start, rels)
    return Trajectory(np.arange(len(q), dtype=np.float64), q, t)


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, sqrt(<v, v>), except where <v, v>
    underflows: there math.hypot, which scales v before it squares."""
    squares = se3.row_dots(v, v)
    norms = np.sqrt(squares)
    for i in np.flatnonzero(squares < sys.float_info.min).tolist():
        norms[i] = math.hypot(*v[i].tolist())
    return norms


@np.errstate(over="raise", invalid="raise")
def scale_align(est_t, gt_t, mode: str = "per_pair") -> np.ndarray:
    """Rescale estimated relative translations, an (n, 3) stack, against
    the ground truth's; returns a fresh stack (rotations are untouched).

    per_pair: each estimate takes its ground-truth pair's translation norm
    (pairs whose ground truth or estimate is the zero vector pass through
    unchanged); where the scale gt_norm / est_norm overflows, est's unit
    direction is scaled instead.  global: one least-squares scale
    s* = sum<est, gt> / sum<est, est> applied to every pair.  Raises
    FloatingPointError, and warns nothing, when a norm, a sum, global's
    scale or a rescaled translation overflows.
    """
    est = np.array(est_t, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt_t, dtype=np.float64).reshape(-1, 3)
    if len(est) != len(gt):
        raise ValueError(f"scale_align needs equal lengths, got {len(est)} vs {len(gt)}")
    if mode not in ("per_pair", "global"):
        raise ValueError(f"unknown scale mode {mode!r}")
    if mode == "per_pair":
        gt_norms, est_norms = _norms(gt), _norms(est)
        pairs = np.flatnonzero((gt_norms != 0.0) & (est_norms != 0.0))
        with np.errstate(over="ignore"):  # an overflowing scale is inf, handled below
            ratios = gt_norms[pairs] / est_norms[pairs]
        finite = np.isfinite(ratios)
        est[pairs[finite]] *= ratios[finite, None]
        # The scale overflows; est's direction times gt's norm need not.
        big = pairs[~finite]
        est[big] = est[big] / est_norms[big, None] * gt_norms[big, None]
        return est
    # Both sides times one power of two, which leaves s* as it is: the largest
    # estimated entry is then at least 0.5, so sum<est, est> cannot underflow.
    k = max(0, -math.frexp(float(np.max(np.abs(est), initial=0.0)))[1])
    scaled = np.ldexp(est, k)
    num = sum(se3.row_dots(scaled, np.ldexp(gt, k)).tolist())
    den = sum(se3.row_dots(scaled, scaled).tolist())
    s = num / den if den > 0.0 else 1.0
    if not (math.isfinite(den) and math.isfinite(s)):
        raise FloatingPointError(f"overflow encountered in the scale {num} / {den}")
    return est * s


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
        raise DegenerateTrajectoryError("alignment needs at least 3 poses")
    x = est.positions()
    y = gt.positions()
    mu_x, mu_y = x.mean(axis=0), y.mean(axis=0)
    xc, yc = x - mu_x, y - mu_y
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
    rows = np.concatenate([traj.stamps[:, None], traj.t, traj.q[:, 1:], traj.q[:, :1]], axis=1)
    textio.write_lines(path, [textio.fmt(row, " ") for row in rows.tolist()])


def read_tum(path) -> Trajectory:
    """The trajectory a TUM file holds.  A malformed line, or one whose
    stamp or pose the Trajectory rejects, raises ValueError naming it."""
    wheres, rows = [], []
    for where, line in textio.numbered(path):
        with textio.at(where):
            rows.append(textio.floats(line.split(), 8))
        wheres.append(where)
    if not rows:
        raise ValueError(f"{path}: no poses found")
    rows = np.array(rows)
    try:
        return Trajectory(rows[:, 0], rows[:, [7, 4, 5, 6]], rows[:, 1:4])
    except se3.RowError as err:
        raise ValueError(f"{wheres[err.row]}: {err}") from err


METRICS_HEADER = "scenario,align_mode,scale_mode,ate_rmse,mean_std_rot,mean_std_trans"


def write_metrics_csv(path, rows) -> None:
    """Metric report rows: (scenario, align_mode, scale_mode, ate_rmse,
    mean_std_rot, mean_std_trans); the std columns may be NaN when no
    sampling spread is available."""
    textio.write_lines(path, [METRICS_HEADER] + [
        f"{scenario},{align_mode},{scale_mode}," + textio.fmt(numbers)
        for scenario, align_mode, scale_mode, *numbers in rows])
