"""Pose sampling by integrating the learned velocity field.

A pose sample is produced by drawing x0 from the reference distribution
and integrating dx/dtau = u(x, tau, cond) from tau = 0 to 1 with a
fixed-step explicit solver.  Repeating this m times with independent x0
draws gives a sample set whose spread is the uncertainty readout: the
final estimate is the component-wise mean in the state chart and the
per-component standard deviation is reported alongside.

Solvers are deliberately plain fixed-step schemes (euler, midpoint, rk4)
so their convergence orders can be verified directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import se3, textio, vfnet

# Field evaluations each solver makes per step.
STAGES = {"euler": 1, "midpoint": 2, "rk4": 4}
SOLVER_METHODS = tuple(STAGES)


class IntegrationDivergedError(RuntimeError):
    """State became non-finite during integration; message says where."""


@dataclass(frozen=True)
class SolverConfig:
    """Integration scheme and step count over tau in [0, 1]."""

    method: str = "midpoint"
    steps: int = 5

    def __post_init__(self):
        if self.method not in SOLVER_METHODS:
            raise ValueError(
                f"unknown solver method {self.method!r}; expected one of {SOLVER_METHODS}"
            )
        if int(self.steps) < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def nfe_per_sample(self) -> int:
        """Field evaluations one flow sample takes from tau 0 to 1."""
        return self.steps * STAGES[self.method]


def _spread_vector(values) -> np.ndarray:
    """values as a read-only 6-vector of sample stds: finite and >= 0."""
    std = np.array(values, dtype=np.float64).reshape(6)
    if not all(math.isfinite(x) and x >= 0.0 for x in std.tolist()):
        raise ValueError("std_state must be finite and non-negative")
    std.setflags(write=False)
    return std


@dataclass(frozen=True, eq=False)
class PoseSampleSet:
    """m pose samples plus their chart mean and spread.

    mean_state/std_state are component-wise over pose_to_state of the
    samples; std uses the population convention, so m=1 gives exact zeros.
    """

    samples: list
    mean_state: se3.MotionState
    std_state: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "std_state", _spread_vector(self.std_state))

    @property
    def estimate(self) -> se3.RelativePose:
        return se3.state_to_pose(self.mean_state)


def integrate_field(field, x0: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Integrate dx/dtau = field(x, tau) from tau 0 to 1, batched.

    field maps ((B, 6) states, scalar tau) -> (B, 6) velocities; x0 is
    (B, 6).  Raises IntegrationDivergedError naming the step and the first
    offending batch row if the state leaves the finite range.
    """
    x = np.array(x0, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    h = 1.0 / config.steps
    for i in range(config.steps):
        tau = i * h
        if config.method == "euler":
            x = x + h * field(x, tau)
        elif config.method == "midpoint":
            k = field(x, tau)
            x = x + h * field(x + 0.5 * h * k, tau + 0.5 * h)
        else:  # rk4
            k1 = field(x, tau)
            k2 = field(x + 0.5 * h * k1, tau + 0.5 * h)
            k3 = field(x + 0.5 * h * k2, tau + 0.5 * h)
            k4 = field(x + h * k3, tau + h)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            bad = int(np.argwhere(~np.isfinite(x).all(axis=1))[0, 0])
            raise IntegrationDivergedError(
                f"non-finite state after step {i + 1}/{config.steps} "
                f"(sample {bad}, method {config.method})"
            )
    return x[0] if squeeze else x


def _net_field(net: vfnet.VectorFieldNet, cond: vfnet.ConditionVector):
    conds = {}  # row count -> the condition broadcast to that many rows

    def field(x, tau):
        rows = x.shape[0]
        if rows not in conds:
            conds[rows] = np.broadcast_to(cond.values, (rows, cond.dim))
        return vfnet.forward_batch(net, x, np.full(rows, float(tau)), conds[rows])

    return field


def estimate_pose(net: vfnet.VectorFieldNet, cond: vfnet.ConditionVector,
                  config: SolverConfig, m: int,
                  rng: np.random.Generator) -> PoseSampleSet:
    """m independent flow samples for one condition, with mean and spread.

    All m reference draws come from rng in sequence; the m trajectories
    are integrated together (same arithmetic as one-at-a-time).
    """
    if m < 1:
        raise ValueError(f"sample count m must be >= 1, got {m}")
    x0 = se3.sample_initial_batch(rng, m)
    final = integrate_field(_net_field(net, cond), x0, config)
    final.setflags(write=False)  # checked finite: the states share its rows
    samples = [se3.state_to_pose(se3._frozen(se3.MotionState, rho=row[:3], trans=row[3:]))
               for row in final]
    states = np.array([se3.pose_to_state(p).as_vector() for p in samples])
    mean = states.mean(axis=0)
    std = states.std(axis=0, ddof=0)
    return PoseSampleSet(samples, se3.MotionState.from_vector(mean), std)


def estimate_sequence(net: vfnet.VectorFieldNet, conds, config: SolverConfig,
                      m: int, rng: np.random.Generator):
    """Independent estimates for a sequence of conditions, order preserved.

    Each element gets its own child generator spawned from rng, so the
    result for element i does not depend on the length of the sequence
    before or after it.  Failures are collected and re-raised together
    with their element indices.
    """
    conds = list(conds)
    children = rng.spawn(len(conds))
    results = []
    failures = []
    for i, (cond, child) in enumerate(zip(conds, children)):
        try:
            results.append(estimate_pose(net, cond, config, m, child))
        except IntegrationDivergedError as err:
            failures.append((i, err))
    if failures:
        index_list = ", ".join(str(i) for i, _ in failures)
        raise IntegrationDivergedError(
            f"integration diverged for sequence elements [{index_list}]; "
            f"first failure: {failures[0][1]}"
        )
    return results


ESTIMATES_HEADER = ("pair_index,rho_x,rho_y,rho_z,t_x,t_y,t_z,"
                    "std_1,std_2,std_3,std_4,std_5,std_6")


def write_estimates_csv(path, sample_sets) -> None:
    """Per-pair mean state and spread, one row per sequence element."""
    textio.write_lines(path, [ESTIMATES_HEADER] + [
        f"{i}," + textio.fmt(s.mean_state.as_vector().tolist() + s.std_state.tolist())
        for i, s in enumerate(sample_sets)])


def read_estimates_csv(path):
    """Inverse of write_estimates_csv: list of (mean MotionState, std 6-vector)."""
    lines = textio.numbered(path, skip_comments=False)
    where, header = next(lines, (path, None))
    if header != ESTIMATES_HEADER:
        raise ValueError(f"{where}: unexpected estimates CSV header")
    out = []
    for where, line in lines:
        with textio.at(where):
            cells = line.split(",")
            values = textio.floats(cells, 13)
            if cells[0] != str(len(out)):
                raise ValueError(f"pair_index {cells[0]!r} is not the row's position {len(out)}")
            out.append((se3.MotionState.from_vector(values[1:7]), _spread_vector(values[7:])))
    return out
