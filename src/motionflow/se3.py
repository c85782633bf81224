"""Rigid-body rotations and relative poses on SO(3)/SE(3).

Rotations are unit quaternions in (w, x, y, z) order with the sign fixed so
that w >= 0; when w == 0 the first nonzero vector component is made positive.
This makes every rotation have exactly one representation and pins the
branch of the logarithm at rotation angle pi.

Motion between two camera frames is kept as a 6-vector chart
(rho, trans) with rho = log(R) the rotation vector and trans the raw
translation in meters.  The chart deliberately leaves translation
uncoupled from rotation (no SE(3) left-Jacobian mixing): it is the
coordinate system the generative model operates in, not a group
parameterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this rotation angle (radians) the closed-form sin/cos ratios in
# exp/log are replaced by their second-order series to avoid 0/0.
SMALL_ANGLE = 1e-6

# Unit-norm tolerance accepted on already-normalized quaternion input.
UNIT_NORM_TOL = 1e-9


def _finite_vector(values, n: int, name: str) -> np.ndarray:
    """Copy input to a read-only float64 vector of length n, or raise."""
    arr = np.array(values, dtype=np.float64).reshape(-1)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have {n} components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values: {arr}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Rotation:
    """Unit quaternion (w, x, y, z), canonical sign, immutable."""

    q: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=np.float64).reshape(-1)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have 4 components, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError(f"quaternion contains non-finite values: {q}")
        norm = float(np.linalg.norm(q))
        if norm < 1e-12:
            raise ValueError("quaternion norm is zero; direction is undefined")
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            q = q / norm
        if q[0] < 0.0:
            q = -q
        elif q[0] == 0.0:
            # Angle-pi quaternion: resolve the q/-q ambiguity by making the
            # first nonzero vector component positive.
            for component in q[1:]:
                if component != 0.0:
                    if component < 0.0:
                        q = -q
                    break
        q = q + 0.0  # drop any negative zeros introduced by the sign flip
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]))

    @property
    def w(self) -> float:
        return float(self.q[0])

    @property
    def vec(self) -> np.ndarray:
        return self.q[1:4]

    def matrix(self) -> np.ndarray:
        """Equivalent 3x3 rotation matrix."""
        w, x, y, z = self.q
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )


@dataclass(frozen=True, eq=False)
class RelativePose:
    """Rigid transform: rotation plus translation in meters.

    Used both for frame-to-frame motion and, in trajectory containers, for
    absolute world-from-camera poses (same algebra either way).
    """

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        if not isinstance(self.rotation, Rotation):
            raise TypeError("rotation must be a Rotation")
        object.__setattr__(
            self, "translation", _finite_vector(self.translation, 3, "translation")
        )

    @classmethod
    def identity(cls) -> "RelativePose":
        return cls(Rotation.identity(), np.zeros(3))

    def matrix(self) -> np.ndarray:
        """Equivalent 4x4 homogeneous transform."""
        m = np.eye(4)
        m[:3, :3] = self.rotation.matrix()
        m[:3, 3] = self.translation
        return m


@dataclass(frozen=True, eq=False)
class MotionState:
    """Point in the 6-dim state chart: rotation vector and translation."""

    rho: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _finite_vector(self.rho, 3, "rho"))
        object.__setattr__(self, "trans", _finite_vector(self.trans, 3, "trans"))

    def as_vector(self) -> np.ndarray:
        """Stacked (rho, trans) as a fresh writable 6-vector."""
        return np.concatenate([self.rho, self.trans])

    @classmethod
    def from_vector(cls, vec) -> "MotionState":
        arr = np.asarray(vec, dtype=np.float64).reshape(-1)
        if arr.shape != (6,):
            raise ValueError(f"state vector must have 6 components, got {arr.shape}")
        return cls(arr[:3], arr[3:])


def _quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of two (w, x, y, z) quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def _quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector v by unit quaternion q (Rodrigues via two cross products).

    t = 2 u x v and the result is v + w t + u x t, with u the vector part of
    q.  The cross products are written out per component on Python floats:
    the same products and differences np.cross forms, at a fraction of its
    call overhead on 3-vectors.
    """
    w, ux, uy, uz = q.tolist()
    vx, vy, vz = v.tolist()
    tx = 2.0 * (uy * vz - uz * vy)
    ty = 2.0 * (uz * vx - ux * vz)
    tz = 2.0 * (ux * vy - uy * vx)
    return np.array([
        vx + w * tx + (uy * tz - uz * ty),
        vy + w * ty + (uz * tx - ux * tz),
        vz + w * tz + (ux * ty - uy * tx),
    ])


def exp_map(rho) -> Rotation:
    """Rotation-vector exponential: axis * angle -> unit quaternion.

    q = (cos(theta/2), sin(theta/2) * rho / theta) with theta = |rho|.
    Below SMALL_ANGLE the sin/cos terms use their second-order Taylor
    series, which keeps the map exact to double precision there.
    """
    rho = _finite_vector(rho, 3, "rho")
    theta = float(np.linalg.norm(rho))
    if theta < SMALL_ANGLE:
        # cos(t/2) ~ 1 - t^2/8,  sin(t/2)/t ~ 1/2 - t^2/48
        w = 1.0 - theta * theta / 8.0
        xyz = rho * (0.5 - theta * theta / 48.0)
    else:
        half = 0.5 * theta
        w = math.cos(half)
        xyz = rho * (math.sin(half) / theta)
    return Rotation(np.array([w, xyz[0], xyz[1], xyz[2]]))


def log_map(rotation: Rotation) -> np.ndarray:
    """Principal rotation vector of a unit quaternion, |result| <= pi.

    theta = 2 * atan2(|v|, w) and the axis is v / |v|.  The canonical
    quaternion sign (w >= 0) keeps theta in [0, pi]; at exactly pi the
    constructor's sign rule decides between the two antipodal axes.
    Below SMALL_ANGLE the ratio theta/|v| uses its series in |v|.
    """
    if not isinstance(rotation, Rotation):
        raise TypeError("log_map expects a Rotation")
    w = float(rotation.q[0])
    v = rotation.q[1:4]
    s = float(np.linalg.norm(v))
    if s < SMALL_ANGLE:
        # w = sqrt(1 - s^2) ~ 1 here, so the quotient is well conditioned:
        # theta/s = 2/w * (1 - s^2 / (3 w^2)) + O(s^4)
        return v * (2.0 / w * (1.0 - s * s / (3.0 * w * w)))
    theta = 2.0 * math.atan2(s, w)
    return v * (theta / s)


def compose(a: RelativePose, b: RelativePose) -> RelativePose:
    """Transform composition a then b in a's frame: (R_a R_b, R_a t_b + t_a)."""
    q = _quat_multiply(a.rotation.q, b.rotation.q)
    t = _quat_rotate(a.rotation.q, b.translation) + a.translation
    return RelativePose(Rotation(q), t)


def inverse(pose: RelativePose) -> RelativePose:
    """Inverse transform: (R^T, -R^T t)."""
    q_inv = _quat_conjugate(pose.rotation.q)
    t = -_quat_rotate(q_inv, pose.translation)
    return RelativePose(Rotation(q_inv), t)


def pose_to_state(pose: RelativePose) -> MotionState:
    """Chart coordinates of a pose: (log(R), t)."""
    return MotionState(log_map(pose.rotation), pose.translation)


def state_to_pose(state: MotionState) -> RelativePose:
    """Inverse chart: (exp(rho), trans)."""
    return RelativePose(exp_map(state.rho), state.trans)


def geodesic_angle(a: Rotation, b: Rotation) -> float:
    """Rotation angle of a^-1 b in radians, in [0, pi]."""
    q = _quat_multiply(_quat_conjugate(a.q), b.q)
    s = float(np.linalg.norm(q[1:4]))
    return 2.0 * math.atan2(s, abs(float(q[0])))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d array.

    Each row goes through the same dot kernel np.linalg.norm uses on a
    single vector (a stacked 1 x k by k x 1 product), so a row's norm equals
    the one Rotation and log_map take of it, bit for bit; a sum of squares
    along axis 1 rounds differently in about a fifth of rows.
    """
    return np.sqrt((x[:, None, :] @ x[:, :, None]).reshape(-1))


def sample_initial_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """n reference draws as an (n, 6) array of (rho, trans) rows.

    trans ~ N(0, I_3) and the rotation is uniform on SO(3): a normalized
    4-dim standard Gaussian is the uniform (Haar) measure on the
    quaternion sphere, and each row stores its principal log, so
    |rho| <= pi.  One standard_normal((n, 7)) supplies, per row, 3 normals
    for the translation, then 4 for the quaternion, so a batch of n equals
    n batches of 1 drawn from the same stream.

    The normalization, sign rule and log are Rotation and log_map written
    as array operations in the same order, so every row equals
    log_map(Rotation(q)) exactly.  The angle takes math.atan2 per row, as
    log_map does: np.arctan2 may use its own vector kernel, which differs
    from the C library's in the last bit for about one row in twenty.
    Rows with w == 0 (the angle-pi tie rule) or a vanishing norm have
    probability zero and go through Rotation itself.
    """
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    normals = rng.standard_normal((n, 7))
    raw = normals[:, 3:]
    norm = _row_norms(raw)
    # Both branches of each np.where are evaluated on every row; the
    # discarded ones, and the rows redone below, may divide by zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(np.abs(norm - 1.0)[:, None] > UNIT_NORM_TOL, raw / norm[:, None], raw)
        q = np.where(q[:, :1] < 0.0, -q, q) + 0.0
        w, v = q[:, 0], q[:, 1:]
        s = _row_norms(v)
        theta = 2.0 * np.array([math.atan2(a, b) for a, b in zip(s.tolist(), w.tolist())])
        ratio = np.where(s < SMALL_ANGLE,
                         2.0 / w * (1.0 - s * s / (3.0 * w * w)), theta / s)
    out = np.empty((n, 6))
    out[:, :3] = v * ratio[:, None]
    out[:, 3:] = normals[:, :3]
    for i in np.flatnonzero((w == 0.0) | (norm < 1e-12)):
        out[i, :3] = log_map(Rotation(raw[i]))
    return out


def rotation_from_matrix(m) -> Rotation:
    """Unit quaternion of a 3x3 rotation matrix (Shepperd's branch rule)."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got {m.shape}")
    trace = float(np.trace(m))
    if trace > 0.0:
        s = math.sqrt(trace + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    return Rotation(q)
