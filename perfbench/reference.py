"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the definitions with plain numpy, apart
from the library: quaternion algebra in (w, x, y, z) order, the chart log,
trajectory composition, the closed-form Umeyama similarity alignment, the
text formats the CLI writes, and the flow-matching loss.  Only
``vfnet.forward_batch``/``backward_batch`` are called, because the loss and
its gradient are properties of the network under test.
"""

from __future__ import annotations

import math

import numpy as np

SMALL = 1e-6


# --- quaternions and the motion chart -----------------------------------------


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (..., 4) quaternions."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def quat_conj(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix of one unit quaternion."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_log(q: np.ndarray) -> np.ndarray:
    """Principal rotation vectors of (N, 4) quaternions, |rho| <= pi."""
    q = np.where(q[:, :1] < 0.0, -q, q)
    w, v = q[:, 0], q[:, 1:]
    s = np.linalg.norm(v, axis=1)
    big = s >= SMALL
    ratio = np.empty_like(s)
    ratio[big] = 2.0 * np.arctan2(s[big], w[big]) / s[big]
    ratio[~big] = 2.0 / w[~big]
    return v * ratio[:, None]


def quat_exp(rho: np.ndarray) -> np.ndarray:
    """(N, 3) rotation vectors to unit quaternions with w >= 0."""
    theta = np.linalg.norm(rho, axis=1)
    half = 0.5 * theta
    big = theta >= SMALL
    scale = np.full_like(theta, 0.5)
    scale[big] = np.sin(half[big]) / theta[big]
    return np.concatenate([np.cos(half)[:, None], rho * scale[:, None]], axis=1)


def uniform_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-uniform unit quaternions from normalised 4-dim Gaussians."""
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def chain(q0: np.ndarray, t0: np.ndarray, rel_q: np.ndarray, rel_t: np.ndarray):
    """Absolute poses from a start pose and (N, 4)/(N, 3) relative motions."""
    qs = [np.asarray(q0, dtype=np.float64)]
    ts = [np.asarray(t0, dtype=np.float64)]
    for rq, rt in zip(rel_q, rel_t):
        qs.append(quat_mul(qs[-1], rq))
        ts.append(quat_matrix(qs[-2]) @ rt + ts[-1])
    return np.stack(qs), np.stack(ts)


def relative(q: np.ndarray, t: np.ndarray):
    """Frame-to-frame motions inv(P_i) P_{i+1} of an absolute trajectory."""
    rel_q = quat_mul(quat_conj(q[:-1]), q[1:])
    rel_t = np.stack([quat_matrix(qi).T @ (tj - ti)
                      for qi, ti, tj in zip(q[:-1], t[:-1], t[1:])])
    return rel_q, rel_t


def same_rotations(qa: np.ndarray, qb: np.ndarray) -> float:
    """Largest chordal distance between two sets of rotations (sign-free)."""
    dots = np.abs(np.sum(qa * qb, axis=1))
    return float(np.max(1.0 - np.minimum(dots, 1.0)))


# --- alignment ------------------------------------------------------------------


def umeyama_sim3_rmse(est: np.ndarray, gt: np.ndarray) -> float:
    """RMSE after the closed-form least-squares similarity of est onto gt."""
    mu_x, mu_y = est.mean(axis=0), gt.mean(axis=0)
    xc, yc = est - mu_x, gt - mu_y
    n = est.shape[0]
    u, d, vt = np.linalg.svd(yc.T @ xc / n)
    sign = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign[2] = -1.0
    rot = (u * sign) @ vt
    scale = float(np.sum(d * sign)) / (float(np.sum(xc * xc)) / n)
    resid = scale * (est @ rot.T) + (mu_y - scale * rot @ mu_x) - gt
    return float(math.sqrt(np.mean(np.sum(resid * resid, axis=1))))


def per_pair_scaled(q: np.ndarray, t: np.ndarray, gt_t_rel: np.ndarray):
    """Re-chain a trajectory with each step's translation set to the ground-truth norm."""
    rel_q, rel_t = relative(q, t)
    gt_norm = np.linalg.norm(gt_t_rel, axis=1)
    est_norm = np.linalg.norm(rel_t, axis=1)
    keep = (gt_norm == 0.0) | (est_norm == 0.0)
    factor = np.where(keep, 1.0, gt_norm / np.where(est_norm == 0.0, 1.0, est_norm))
    return chain(q[0], t[0], rel_q, rel_t * factor[:, None])


# --- file formats ---------------------------------------------------------------


def read_tum(path):
    """(stamps, positions, quaternions in w-first order) of a TUM file."""
    data = np.loadtxt(path, ndmin=2)
    if data.shape[1] != 8:
        raise ValueError(f"{path}: expected 8 columns, got {data.shape[1]}")
    return data[:, 0], data[:, 1:4], data[:, [7, 4, 5, 6]]


def read_estimates(path):
    """(means (N, 6), stds (N, 6)) from an estimates CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 13 or not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ValueError(f"{path}: malformed estimates table")
    return data[:, 1:7], data[:, 7:13]


def read_metrics_ate(path) -> float:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        row = fh.readline().strip().split(",")
    return float(row[header.index("ate_rmse")])


# --- flow-matching loss ---------------------------------------------------------


def fm_draws(rng: np.random.Generator, targets: np.ndarray, per_pair: int):
    """Fixed (tau, x0) draws over a dataset: path points and target velocities."""
    x1 = np.repeat(targets, per_pair, axis=0)
    n = x1.shape[0]
    taus = rng.uniform(size=n)
    x0 = np.concatenate([quat_log(uniform_rotations(rng, n)),
                         rng.standard_normal((n, 3))], axis=1)
    x_tau = (1.0 - taus)[:, None] * x0 + taus[:, None] * x1
    return x_tau, taus, x1 - x0


def fm_loss(vfnet, net, draws, conds: np.ndarray) -> float:
    """Mean squared residual of the field against the straight-path velocity."""
    x_tau, taus, vel = draws
    resid = vfnet.forward_batch(net, x_tau, taus, conds) - vel
    return float(np.mean(np.sum(resid * resid, axis=1)))


def gradient_check(vfnet, net, draws, conds: np.ndarray, h: float = 1e-6) -> float:
    """Largest relative gap between backward_batch and central differences.

    Checks one entry in each block of the network (state and condition
    embeddings, trunk, both heads) on the benchmark's own loss.
    """
    x_tau, taus, vel = draws
    out, cache = vfnet.forward_batch(net, x_tau, taus, conds, keep_cache=True)
    grads = vfnet.backward_batch(net, cache, 2.0 * (out - vel) / x_tau.shape[0])
    probes = [
        (net.state_embed[0], grads.state_embed[0], (3, 2)),
        (net.cond_embed[0][0], grads.cond_embed[0][0], (5, 7)),
        (net.cond_embed[1][1], grads.cond_embed[1][1], (4,)),
        (net.layers[0][0], grads.layers[0][0], (10, 20)),
        (net.layers[-1][1], grads.layers[-1][1], (11,)),
        (net.head_rot[0][0], grads.head_rot[0][0], (6, 9)),
        (net.head_trans[-1][0], grads.head_trans[-1][0], (2, 13)),
    ]
    worst = 0.0
    for param, grad, idx in probes:
        saved = param[idx]
        param[idx] = saved + h
        up = fm_loss(vfnet, net, draws, conds)
        param[idx] = saved - h
        down = fm_loss(vfnet, net, draws, conds)
        param[idx] = saved
        numeric = (up - down) / (2.0 * h)
        worst = max(worst, abs(numeric - grad[idx]) / max(abs(numeric), 1e-3))
    return worst
