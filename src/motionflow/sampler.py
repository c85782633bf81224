"""Pose sampling by integrating the learned velocity field.

A pose sample is produced by drawing x0 from the reference distribution
and integrating dx/dtau = u(x, tau, cond) from tau = 0 to 1 with a
fixed-step explicit solver.  Repeating this m times with independent x0
draws gives a sample set whose spread is the uncertainty readout: the
final estimate is the component-wise mean in the state chart and the
per-component standard deviation is reported alongside.

Solvers are deliberately plain fixed-step schemes (euler, midpoint, rk4)
so their convergence orders can be verified directly.

The condition is fixed within one estimate, so vfnet.embed_condition
folds it into the net once per estimate, and every stage's forward_batch
call runs that fold on the states, with its tau as a scalar.  The parts
of the fold that no condition enters are built once per estimate_sequence
call (vfnet.shared_fold) and shared by all its elements.
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
        object.__setattr__(self, "steps", textio.whole("steps", self.steps, 1))

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
    (B, 6), or one 6-vector, integrated as one row and returned as a
    6-vector.  Raises IntegrationDivergedError naming the step and the
    first offending batch row if the state leaves the finite range.
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


def estimate_pose(net: vfnet.VectorFieldNet, cond: vfnet.ConditionVector,
                  config: SolverConfig, m: int,
                  rng: np.random.Generator, *, _shared=None) -> PoseSampleSet:
    """m independent flow samples for one condition, with mean and spread.

    All m reference draws come from rng in sequence; the m trajectories
    are integrated together as one (m, 6) batch through the net folded
    under cond.  The fold is built on every call, its condition-free part
    too unless estimate_sequence hands over the one it built for the
    whole sequence as _shared, which gives the same bits.  The folded
    field equals the layered forward_batch to rounding, and each row the
    same draw integrated alone (within 1e-14 on the kept checkpoint), not
    bit for bit.  The result is exact given its arguments:
    estimate_sequence's element i equals estimate_pose on that element's
    child generator.  The mean and the population std are computed with
    the reductions ndarray.mean and ndarray.std run, so their bits match.
    """
    m = textio.whole("sample count m", m, 1)
    x0 = se3.sample_initial_batch(rng, m)
    embedded = vfnet.embed_condition(net, cond, _shared)
    final = integrate_field(
        lambda x, tau: vfnet.forward_batch(net, x, tau, embedded=embedded), x0, config)
    final.setflags(write=False)  # checked finite: the states share its rows
    samples = [se3.state_to_pose(se3._frozen(se3.MotionState, rho=row[:3], trans=row[3:]))
               for row in final]
    states = np.array([se3.pose_to_state(p).as_vector() for p in samples])
    mean = np.add.reduce(states, 0) / m
    states -= mean  # the deviations, squared in place as ndarray.std squares them
    states *= states
    std = np.sqrt(np.add.reduce(states, 0) / m)
    return PoseSampleSet(samples, se3.MotionState.from_vector(mean), std)


def estimate_sequence(net: vfnet.VectorFieldNet, conds, config: SolverConfig,
                      m: int, rng: np.random.Generator):
    """Independent estimates for a sequence of conditions, order preserved.

    Each element gets its own child generator spawned from rng, so the
    result for element i does not depend on the length of the sequence
    before or after it.  The condition-free part of the fold is built
    once per call and handed to every element's estimate_pose, never kept
    past the call.  Failures are collected and re-raised together with
    their element indices.
    """
    conds = list(conds)
    children = rng.spawn(len(conds))
    shared = vfnet.shared_fold(net)
    results = []
    failures = []
    for i, (cond, child) in enumerate(zip(conds, children)):
        try:
            results.append(estimate_pose(net, cond, config, m, child, _shared=shared))
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
