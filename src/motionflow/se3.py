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

The chart maps work on stacks of rows, so a whole block of samples
converts in one call of each: state_to_pose takes (..., 6) rows to
canonical quaternions and translations, and pose_to_state takes those
back to principal (..., 6) rows.  Each row equals exp_map or log_map of
that one row bit for bit; those two stay the maps of a single pose.

Values are checked once, where they enter: the constructors, exp_map,
state_to_pose and MotionState.from_vector.  compose and inverse build with
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
        q = _finite_vector(self.q, 4, "quaternion")
        # np.linalg.norm of a 1-d float vector is this same sqrt of a dot; np.vdot
        # is ndarray.dot without its status check, so overflow is inf, no warning.
        norm = math.sqrt(np.vdot(q, q))
        if not 1e-12 <= norm < math.inf:
            raise ValueError(f"quaternion norm is zero or not finite: {norm}")
        object.__setattr__(self, "q", _canonical(q.tolist(), norm))

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


def _quat_rotate(q: np.ndarray, v: np.ndarray) -> tuple:
    """Rotate vector v by unit quaternion q (Rodrigues via two cross products).

    t = 2 u x v and the result is v + w t + u x t, with u the vector part of
    q.  The cross products are written out per component on Python floats:
    the same products and differences np.cross forms, at a fraction of its
    call overhead on 3-vectors.  The result stays three Python floats, so
    callers finish their sums on them: an overflow is inf, with no warning.
    """
    w, ux, uy, uz = q.tolist()
    vx, vy, vz = v.tolist()
    tx = 2.0 * (uy * vz - uz * vy)
    ty = 2.0 * (uz * vx - ux * vz)
    tz = 2.0 * (ux * vy - uy * vx)
    return (
        vx + w * tx + (uy * tz - uz * ty),
        vy + w * ty + (uz * tx - ux * tz),
        vz + w * tz + (ux * ty - uy * tx),
    )


def exp_map(rho) -> Rotation:
    """Rotation-vector exponential: axis * angle -> unit quaternion.

    q = (cos(theta/2), sin(theta/2) * rho / theta) with theta = |rho|.
    Below SMALL_ANGLE the sin/cos terms use their second-order Taylor
    series, which keeps the map exact to double precision there.
    """
    rho = _finite_vector(rho, 3, "rho")
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
    rx, ry, rz = _quat_rotate(a.rotation.q, b.translation)
    ax, ay, az = a.translation.tolist()
    t = [rx + ax, ry + ay, rz + az]
    rot = _frozen(Rotation, q=_canonical(q.tolist(), math.sqrt(q.dot(q))))
    return _frozen(RelativePose, rotation=rot, translation=_finite_vector(t, 3, "translation"))


def inverse(pose: RelativePose) -> RelativePose:
    """Inverse transform: (R^T, -R^T t)."""
    q_inv = _quat_conjugate(pose.rotation.q)
    t = [-r for r in _quat_rotate(q_inv, pose.translation)]
    # q_inv has the norm of an accepted q: only the sign rule can apply.
    rot = _frozen(Rotation, q=_canonical(q_inv.tolist(), 1.0))
    return _frozen(RelativePose, rotation=rot, translation=_finite_vector(t, 3, "translation"))


def state_to_pose(states) -> tuple:
    """Inverse chart on a stack of rows: (..., 6) rows (rho, trans) ->
    (q, t), the (..., 4) canonical unit quaternions exp(rho) and the
    (..., 3) translations, a view of the rows.

    Each q row equals exp_map(rho).q bit for bit: the same norm kernel
    (_row_norms), the same series below SMALL_ANGLE, math.cos and math.sin
    per row (numpy's vector kernels may round differently), the same
    products and _canonical's sign rule.  A row with a non-finite value,
    or whose rho norm overflows, raises ValueError naming the row.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.shape[-1:] != (6,):
        raise ValueError(f"state rows must have 6 components, got shape {states.shape}")
    rows = states.reshape(-1, 6)
    rho = rows[:, :3]
    with np.errstate(over="ignore"):  # an overflowing norm is inf, raised below
        theta = _row_norms(rho)
    bad = ~(np.isfinite(rows).all(axis=1) & (theta < math.inf))
    if bad.any():
        k = int(np.argmax(bad))
        where = ", ".join(str(int(i)) for i in np.unravel_index(k, states.shape[:-1]))
        if np.isfinite(rows[k]).all():
            raise ValueError(f"rho norm overflows in row [{where}]: {rho[k]}")
        raise ValueError(f"state row [{where}] contains non-finite values: {rows[k]}")
    halves = (0.5 * theta).tolist()
    w = np.array([math.cos(h) for h in halves])
    ratio = np.array([math.sin(h) for h in halves])
    small = theta < SMALL_ANGLE
    ratio[~small] /= theta[~small]
    square = theta[small] * theta[small]
    w[small] = 1.0 - square / 8.0  # the series, as exp_map takes it
    ratio[small] = 0.5 - square / 48.0
    q = np.empty((len(rows), 4))
    q[:, 0] = w
    q[:, 1:] = rho * ratio[:, None]
    # cos is never 0 at a double, so _canonical's sign rule (the first
    # nonzero component made positive) flips the rows with w < 0; + 0.0
    # drops negative zeros, as there.
    q = np.where((w < 0.0)[:, None], -q, q) + 0.0
    return q.reshape(states.shape[:-1] + (4,)), states[..., 3:]


def pose_to_state(q, t) -> np.ndarray:
    """Chart coordinates of a stack of poses: canonical unit quaternions q
    (..., 4), as state_to_pose or Rotation hold them, and translations t
    (..., 3) -> fresh (..., 6) rows (log(q), t).

    Each rotation vector equals log_map of its quaternion bit for bit:
    the same norm kernel (_row_norms), the same series below SMALL_ANGLE
    and math.atan2 per row (np.arctan2 may use its own vector kernel,
    which differs from the C library's in the last bit for about one row
    in twenty), in log_map's order of operations.
    """
    q = np.asarray(q, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if q.shape[-1:] != (4,) or t.shape != q.shape[:-1] + (3,):
        raise ValueError(f"quaternions {q.shape} and translations {t.shape} do not pair up")
    quats = q.reshape(-1, 4)
    v = quats[:, 1:]
    ratios = [2.0 / w * (1.0 - s * s / (3.0 * w * w)) if s < SMALL_ANGLE
              else 2.0 * math.atan2(s, w) / s
              for s, w in zip(_row_norms(v).tolist(), quats[:, 0].tolist())]
    out = np.empty(q.shape[:-1] + (6,))
    rows = out.reshape(-1, 6)
    rows[:, :3] = v * np.array(ratios)[:, None]
    rows[:, 3:] = t.reshape(-1, 3)
    return out


def geodesic_angle(a: Rotation, b: Rotation) -> float:
    """Rotation angle of a^-1 b in radians, in [0, pi]."""
    q = _quat_multiply(_quat_conjugate(a.q), b.q)
    s = float(np.linalg.norm(q[1:4]))
    return 2.0 * math.atan2(s, abs(float(q[0])))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d array.

    Each row goes through the same dot kernel np.vdot and ndarray.dot use
    on a single vector (a stacked 1 x k by k x 1 product), so a row's norm
    equals the one Rotation, exp_map and log_map take of it, bit for bit; a
    sum of squares along axis 1 rounds differently in about a fifth of rows.
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

    The normalization and sign rule are Rotation written as array
    operations and per-row float arithmetic in the same order, and
    pose_to_state takes each row's log as log_map does, so every row
    equals log_map(Rotation(q)) exactly.  The normalizing division and
    the sign flip are one division by a signed divisor per row (raw / -d
    is -(raw / d) bit for bit, and raw / 1.0 is raw).  Rows with w == 0
    (the angle-pi tie rule) or a vanishing norm have probability zero and
    go through Rotation itself; they divide by nan, which keeps the row
    arithmetic free of zero divisions until they are redone.
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
    out = pose_to_state(raw / np.array(divisors)[:, None] + 0.0, normals[:, :3])
    for i in redo:
        out[i, :3] = log_map(Rotation(raw[i]))
    return out
