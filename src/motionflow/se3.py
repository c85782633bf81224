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

Values are checked once, where they enter: the constructors, exp_map and
MotionState.from_vector.  The chart maps, compose and inverse build with
_frozen from checked read-only arrays; compose renormalizes its product as
Rotation does, and compose and inverse check their translation for overflow.
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
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"{name} contains non-finite values: {arr}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Rotation:
    """Unit quaternion (w, x, y, z), canonical sign, immutable."""

    q: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=np.float64).reshape(-1)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have 4 components, got shape {q.shape}")
        values = q.tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError(f"quaternion contains non-finite values: {q}")
        # np.linalg.norm of a 1-d float vector is this same sqrt of a dot; np.vdot
        # is ndarray.dot without its status check, so overflow is inf, no warning.
        norm = math.sqrt(np.vdot(q, q))
        if not 1e-12 <= norm < math.inf:
            raise ValueError(f"quaternion norm is zero or not finite: {norm}")
        object.__setattr__(self, "q", _canonical(values, norm))

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]))

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


def _canonical(values: list, norm: float) -> np.ndarray:
    """Rotation's read-only q from finite components and their norm."""
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        values = [c / norm for c in values]
    # Canonical sign: the first nonzero component is positive, which is
    # w > 0, or at w == 0 (angle pi) the first nonzero vector component.
    if next((c for c in values if c != 0.0), 0.0) < 0.0:
        values = [-c for c in values]
    q = np.array([c + 0.0 for c in values])  # + 0.0 drops negative zeros
    q.setflags(write=False)
    return q


def _frozen(cls, **fields):
    """A cls holding fields as given, skipping __post_init__: only for checked,
    read-only arrays of the field's shape (for Rotation, a _canonical q)."""
    obj = object.__new__(cls)
    for name, value in fields.items():  # stored as __init__ does: no per-object dict
        object.__setattr__(obj, name, value)
    return obj


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
    """Hamilton product of two (w, x, y, z) quaternions, on Python floats."""
    aw, ax, ay, az = a.tolist()
    bw, bx, by, bz = b.tolist()
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
    return _exp(_finite_vector(rho, 3, "rho"))


def _exp(rho: np.ndarray) -> Rotation:
    """exp_map of a checked rotation vector."""
    theta = math.sqrt(np.vdot(rho, rho))  # inf, with no warning, on overflow
    if theta < SMALL_ANGLE:
        # cos(t/2) ~ 1 - t^2/8,  sin(t/2)/t ~ 1/2 - t^2/48
        w = 1.0 - theta * theta / 8.0
        ratio = 0.5 - theta * theta / 48.0
    elif theta < math.inf:
        half = 0.5 * theta
        w = math.cos(half)
        ratio = math.sin(half) / theta
    else:
        raise ValueError(f"rho norm overflows: {rho}")
    x, y, z = rho.tolist()
    # |q| stays within 1e-15 of 1, so Rotation would not renormalize it.
    return _frozen(Rotation, q=_canonical([w, x * ratio, y * ratio, z * ratio], 1.0))


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
    s = math.sqrt(v.dot(v))
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
    rot = _frozen(Rotation, q=_canonical(q.tolist(), math.sqrt(q.dot(q))))
    return _frozen(RelativePose, rotation=rot, translation=_finite_vector(t, 3, "translation"))


def inverse(pose: RelativePose) -> RelativePose:
    """Inverse transform: (R^T, -R^T t)."""
    q_inv = _quat_conjugate(pose.rotation.q)
    t = -_quat_rotate(q_inv, pose.translation)
    # q_inv has the norm of an accepted q: only the sign rule can apply.
    rot = _frozen(Rotation, q=_canonical(q_inv.tolist(), 1.0))
    return _frozen(RelativePose, rotation=rot, translation=_finite_vector(t, 3, "translation"))


def pose_to_state(pose: RelativePose) -> MotionState:
    """Chart coordinates of a pose: (log(R), t)."""
    rho = log_map(pose.rotation)
    rho.setflags(write=False)
    return _frozen(MotionState, rho=rho, trans=pose.translation)


def state_to_pose(state: MotionState) -> RelativePose:
    """Inverse chart: (exp(rho), trans)."""
    return _frozen(RelativePose, rotation=_exp(state.rho), translation=state.trans)


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
    as array operations and per-row float arithmetic in the same order, so
    every row equals log_map(Rotation(q)) exactly.  The normalizing
    division and the sign flip are one division by a signed divisor per
    row (raw / -d is -(raw / d) bit for bit, and raw / 1.0 is raw), and
    the angle takes math.atan2 per row, as log_map does: np.arctan2 may
    use its own vector kernel, which differs from the C library's in the
    last bit for about one row in twenty.  Rows with w == 0 (the angle-pi
    tie rule) or a vanishing norm have probability zero and go through
    Rotation itself; they divide by nan, which keeps the row arithmetic
    free of zero divisions until they are redone.
    """
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    normals = rng.standard_normal((n, 7))
    raw = normals[:, 3:]
    divisors, redo = [], []
    for i, (norm, w) in enumerate(zip(_row_norms(raw).tolist(), raw[:, 0].tolist())):
        d = norm if abs(norm - 1.0) > UNIT_NORM_TOL else 1.0
        if norm < 1e-12 or w / d == 0.0:
            redo.append(i)
            d = math.nan
        divisors.append(-d if w < 0.0 else d)
    q = raw / np.array(divisors)[:, None] + 0.0
    v = q[:, 1:]
    ratios = [2.0 / w * (1.0 - s * s / (3.0 * w * w)) if s < SMALL_ANGLE
              else 2.0 * math.atan2(s, w) / s
              for s, w in zip(_row_norms(v).tolist(), q[:, 0].tolist())]
    out = np.empty((n, 6))
    out[:, :3] = v * np.array(ratios)[:, None]
    out[:, 3:] = normals[:, :3]
    for i in redo:
        out[i, :3] = log_map(Rotation(raw[i]))
    return out

