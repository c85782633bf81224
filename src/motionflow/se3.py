"""Rigid-body rotations and poses on SO(3)/SE(3).

Rotations are unit quaternions in (w, x, y, z) order with the sign fixed so
that w >= 0; when w == 0 the first nonzero vector component is made positive.
This makes every rotation have exactly one representation and pins the
branch of the logarithm at rotation angle pi.  One rule, _canonical,
normalizes and signs every quaternion.

Poses come as stacks: pairs (q, t) of (n, 4) canonical unit quaternions
and (n, 3) translations in meters, which compose, inverse, chain and
geodesic_angles take.  Rotation, RelativePose and MotionState are plain
records of read-only arrays, which the library builds from checked rows.

Motion between two camera frames is kept as a 6-vector chart
(rho, trans) with rho = log(R) the rotation vector and trans the raw
translation in meters.  The chart deliberately leaves translation
uncoupled from rotation (no SE(3) left-Jacobian mixing): it is the
coordinate system the generative model operates in, not a group
parameterization.  Its maps work on stacks of rows: state_to_pose takes
(..., 6) rows to canonical quaternions and translations, and
pose_to_state takes those back to principal (..., 6) rows.

Values are checked once, where they enter: stack and state_to_pose.  A
fault in a stack is a RowError naming the first bad row.
compose, inverse and chain build from checked values, renormalizing
products by the rule and rejecting translations that overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this rotation angle (radians) the closed-form sin/cos ratios of the
# chart maps are replaced by their second-order series to avoid 0/0.
SMALL_ANGLE = 1e-6

# Unit-norm tolerance accepted on already-normalized quaternion input.
UNIT_NORM_TOL = 1e-9


class RowError(ValueError):
    """A fault in one row of a stack: row is its index, and the message
    says what is wrong with it."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _finite_rows(values, width: int, name: str) -> np.ndarray:
    """values as a fresh (n, width) float64 array, or RowError naming the
    first row with a non-finite value."""
    rows = np.array(values, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"{name} rows must have {width} components, got shape {rows.shape}")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise RowError(k, f"{name} contains non-finite values: {rows[k]}")
    return rows


@dataclass(frozen=True, eq=False)
class Rotation:
    """Record of one canonical unit quaternion (w, x, y, z), a read-only
    row of a checked stack."""

    q: np.ndarray


@dataclass(frozen=True, eq=False)
class RelativePose:
    """Record of one rigid transform: a Rotation and a read-only
    translation row in meters."""

    rotation: Rotation
    translation: np.ndarray


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i, b_i> for each pair of rows of two 2-d arrays, through the dot
    kernel np.dot uses on two vectors (a stacked 1 x k by k x 1 product),
    bit for bit; a sum of products along axis 1 rounds differently in
    about a fifth of rows."""
    return (a[:, None, :] @ b[:, :, None]).reshape(-1)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a 2-d array, bit for bit."""
    return np.sqrt(row_dots(x, x))


def _canonical(q: np.ndarray, norms=None) -> np.ndarray:
    """The rule on (n, 4) rows of finite quaternions, as fresh rows.

    norms are the rows' norms as _row_norms takes them, or None for rows of
    unit norm, which only the sign rule changes.  A row is divided by its
    norm unless that lies within UNIT_NORM_TOL of 1, and its sign is fixed
    so that the first nonzero component is positive: w > 0, or at w == 0
    (angle pi) the first nonzero vector component.  One pass over each
    row's (norm, w) as floats gives its signed divisor (row / -d is
    -(row / d) bit for bit, and row / 1.0 is row); only rows whose w is 0
    after the division are looked at again.  + 0.0 drops negative zeros.
    A norm that is zero or not finite raises RowError naming its row.
    """
    ws = q[:, 0].tolist()
    norms = [1.0] * len(ws) if norms is None else norms.tolist()
    divisors, ties = [], []  # len(divisors) is the index of the row at hand
    for norm, w in zip(norms, ws):
        d = 1.0
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            if not 1e-12 <= norm < math.inf:
                raise RowError(len(divisors), f"quaternion norm is zero or not finite: {norm}")
            d = norm
        if w / d == 0.0:
            ties.append(len(divisors))
        divisors.append(-d if w < 0.0 else d)
    out = q / np.array(divisors)[:, None] + 0.0
    for i in ties:  # angle pi: the first nonzero vector component decides
        if next((c for c in out[i].tolist() if c != 0.0), 0.0) < 0.0:
            out[i] = -out[i] + 0.0
    return out


def first_fault(*checks) -> list:
    """The results of checks, callables of no argument run in turn; of the
    RowErrors they raise, the one naming the smallest row (the earlier
    check's on a tie), so the first bad row is named whatever its fault."""
    results, faults = [], []
    for check in checks:
        try:
            results.append(check())
        except RowError as err:
            faults.append(err)
    if faults:
        raise min(faults, key=lambda err: err.row)
    return results


@dataclass(frozen=True, eq=False)
class MotionState:
    """Record of one chart row: read-only rotation vector rho and translation."""

    rho: np.ndarray
    trans: np.ndarray

    def as_vector(self) -> np.ndarray:
        """Stacked (rho, trans) as a fresh writable 6-vector."""
        return np.concatenate([self.rho, self.trans])


def stack(q, t) -> tuple:
    """A checked pose stack from n quaternion rows q and n translation
    rows t: fresh read-only (q, t), each q row normalized and signed by
    the rule.  A row that is not finite, or a quaternion whose norm is
    zero or overflows, raises RowError naming it."""
    rows = np.asarray(q, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected by the rule
        _, q, t = first_fault(lambda: _finite_rows(rows, 4, "quaternion"),
                              lambda: _canonical(rows, _row_norms(rows)),
                              lambda: _finite_rows(t, 3, "translation"))
    if len(q) != len(t):
        raise ValueError(f"{len(q)} rotations for {len(t)} translations")
    q.setflags(write=False)
    t.setflags(write=False)
    return q, t


# The identity as a one-pose stack: where chained trajectories start.
IDENTITY = (np.array([[1.0, 0.0, 0.0, 0.0]]), np.zeros((1, 3)))
IDENTITY[0].setflags(write=False)
IDENTITY[1].setflags(write=False)


def _product(a, b) -> tuple:
    """Hamilton product of (w, x, y, z) quaternions a and b, each given as
    its four components: floats, or arrays of one component of every row."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def _rotate(q, v) -> tuple:
    """v rotated by the unit quaternion q, both given as components as
    _product takes them (Rodrigues via two cross products): t = 2 u x v
    and the result is v + w t + u x t, with u the vector part of q."""
    w, ux, uy, uz = q
    vx, vy, vz = v
    tx = 2.0 * (uy * vz - uz * vy)
    ty = 2.0 * (uz * vx - ux * vz)
    tz = 2.0 * (ux * vy - uy * vx)
    return (vx + w * tx + (uy * tz - uz * ty),
            vy + w * ty + (uz * tx - ux * tz),
            vz + w * tz + (ux * ty - uy * tx))


def compose(a, b) -> tuple:
    """Row-wise composition of pose stacks a then b, in a's frame:
    (R_a R_b, R_a t_b + t_a) as a fresh stack.  Each product is
    renormalized and signed by the rule; a translation that
    overflows raises RowError naming its row, with no warning."""
    (qa, ta), (qb, tb) = a, b
    q = np.stack(_product(qa.T, qb.T), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        t = np.stack(_rotate(qa.T, tb.T), axis=-1) + ta
    return _canonical(q, _row_norms(q)), _finite_rows(t, 3, "translation")


def inverse(pose) -> tuple:
    """Row-wise inverse of a pose stack: (R^T, -R^T t) as a fresh stack.
    A translation that overflows raises RowError naming its row."""
    q, t = pose
    conjugate = q * np.array([1.0, -1.0, -1.0, -1.0])
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        t = -np.stack(_rotate(conjugate.T, t.T), axis=-1)
    # The conjugate has its quaternion's norm: only the sign rule applies.
    return _canonical(conjugate), _finite_rows(t, 3, "translation")


def chain(start, motions) -> tuple:
    """The n + 1 poses a stack of n motions leads to from start, a one-pose
    stack: pose i + 1 is compose of pose i and motion i as one-row stacks,
    bit for bit.  The scan runs compose's product and rotation on Python
    floats and _canonical on each product.  A translation that overflows
    raises RowError naming its pose."""
    qs, ts = start[0][:1].tolist(), start[1][:1].tolist()
    for dq, dt in zip(motions[0].tolist(), motions[1].tolist()):
        qa, ta = qs[-1], ts[-1]
        q = np.array([_product(qa, dq)])
        qs.append(_canonical(q, _row_norms(q))[0].tolist())
        ts.append([r + a for r, a in zip(_rotate(qa, dt), ta)])
    return np.array(qs), _finite_rows(ts, 3, "translation")


def state_to_pose(states) -> tuple:
    """Inverse chart on a stack of rows: (..., 6) rows (rho, trans) ->
    (q, t), the (..., 4) canonical unit quaternions exp(rho) and the
    (..., 3) translations, a view of the rows.

    q = (cos(theta/2), sin(theta/2) * rho / theta) with theta = |rho|
    (_row_norms), math.cos and math.sin per row (numpy's vector kernels
    may round differently), signed by _canonical.  Below SMALL_ANGLE the
    sin/cos terms use their second-order Taylor series, which keeps the
    map exact to double precision there.  A row with a non-finite value,
    or whose rho norm overflows, raises ValueError naming the row (unless
    states is that one row).
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
        row = f" row [{where}]" if states.ndim > 1 else ""  # a single row goes unnamed
        if np.isfinite(rows[k]).all():
            raise ValueError(f"rho norm overflows{' in' + row if row else ''}: {rho[k]}")
        raise ValueError(f"state{row} contains non-finite values: {rows[k]}")
    halves = (0.5 * theta).tolist()
    w = np.array([math.cos(h) for h in halves])
    ratio = np.array([math.sin(h) for h in halves])
    small = theta < SMALL_ANGLE
    ratio[~small] /= theta[~small]
    square = theta[small] * theta[small]
    w[small] = 1.0 - square / 8.0  # cos(t/2) ~ 1 - t^2/8
    ratio[small] = 0.5 - square / 48.0  # sin(t/2)/t ~ 1/2 - t^2/48
    q = np.empty((len(rows), 4))
    q[:, 0] = w
    q[:, 1:] = rho * ratio[:, None]
    # |q| stays within 1e-15 of 1, so the rule would not renormalize it.
    return _canonical(q).reshape(states.shape[:-1] + (4,)), states[..., 3:]


def pose_to_state(q, t) -> np.ndarray:
    """Chart coordinates of a stack of poses: canonical unit quaternions q
    (..., 4), as stack and state_to_pose give them, and translations t
    (..., 3) -> fresh (..., 6) rows (log(q), t).

    theta = 2 * atan2(|v|, w) and the axis is v / |v|, with |v| from
    _row_norms and math.atan2 per row (np.arctan2 may use its own vector
    kernel, which differs from the C library's in the last bit for about
    one row in twenty).  The canonical sign (w >= 0) keeps theta in
    [0, pi]; at exactly pi the sign rule decides between the two antipodal
    axes.  Below SMALL_ANGLE the ratio theta/|v| uses its series in |v|:
    w = sqrt(1 - s^2) ~ 1 there, and theta/s = 2/w * (1 - s^2 / (3 w^2)).
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


def geodesic_angles(qa, qb) -> np.ndarray:
    """Rotation angle of a_i^-1 b_i in radians, in [0, pi], for each pair
    of rows of two (n, 4) stacks of unit quaternions; a one-row stack
    pairs with every row of the other.  q and -q are one rotation, so the
    angle reads |w| of the product."""
    qa, qb = np.broadcast_arrays(np.asarray(qa, dtype=np.float64),
                                 np.asarray(qb, dtype=np.float64))
    w, x, y, z = _product((qa * [1.0, -1.0, -1.0, -1.0]).T, qb.T)
    return 2.0 * np.arctan2(np.sqrt(x * x + y * y + z * z), np.abs(w))


def sample_initial_batch(rngs, n: int) -> np.ndarray:
    """n reference draws from each generator of the sequence rngs, in
    order, as one (len(rngs) * n, 6) array of (rho, trans) rows.

    trans ~ N(0, I_3) and the rotation is uniform on SO(3): a normalized
    4-dim standard Gaussian is the uniform (Haar) measure on the
    quaternion sphere, and each row stores its principal log, so
    |rho| <= pi.  One standard_normal((n, 7)) call per generator supplies,
    per row, 3 normals for the translation, then 4 for the quaternion, so
    a batch of n equals n batches of 1 drawn from the same stream, and k
    generators give their k one-generator draws, concatenated.

    The rows are normalized and signed by the rule (_canonical) and
    stored as their principal logs (pose_to_state), one call over all of
    them.  A row whose quaternion has norm zero, which has probability
    zero, raises RowError.
    """
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    if not len(rngs):
        raise ValueError("no generators to draw from")
    normals = np.concatenate([rng.standard_normal((n, 7)) for rng in rngs])
    raw = normals[:, 3:]
    return pose_to_state(_canonical(raw, _row_norms(raw)), normals[:, :3])
