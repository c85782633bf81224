"""Pose sampling by integrating the learned velocity field.

A pose sample is produced by drawing x0 from the reference distribution
and integrating dx/dtau = u(x, tau, cond) from tau = 0 to 1 with a
fixed-step explicit solver.  Repeating this m times with independent x0
draws gives a sample set whose spread is the uncertainty readout: the
final estimate is the component-wise mean in the state chart and the
per-component standard deviation is reported alongside.

Solvers are deliberately plain fixed-step schemes (euler, midpoint, rk4)
so their convergence orders can be verified directly.

The condition is fixed within one estimate, so the net is folded under
it (vfnet.embed_conditions) before integration, and every stage's
forward_batch call runs that fold on the states, with its tau as a
scalar.  States are integrated as (n, m, 6) stacks, n conditions of m
rows each: estimate_sequence folds the net under all its conditions with
one call and integrates consecutive elements in blocks of at most
BLOCK_ROWS rows, one forward_batch call per stage per block, while
estimate_pose alone integrates a one-element stack.  The stacked matmuls
stay 3-D, one gemm per element with the operands of a one-element call,
so an element's bits do not depend on its block; one flat (n*m, 6)
matmul would round them differently.  BLOCK_ROWS bounds the memory of a
stack and its stage buffers, which would otherwise grow with n*m.

One helper, _finish, takes a block's (or estimate_pose's one element's)
statistics over the principal chart rows, once for the whole stack.  A
PoseSampleSet is a plain record of one element's read-only arrays: its
m integrated rows (samples builds their poses on access), mean and
spread.  read_estimates_csv returns a file's means and spreads as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import se3, textio, vfnet

# Field evaluations each solver makes per step.
STAGES = {"euler": 1, "midpoint": 2, "rk4": 4}
SOLVER_METHODS = tuple(STAGES)

# Rows estimate_sequence integrates as one stack: max(1, BLOCK_ROWS // m)
# consecutive elements of m rows each.
BLOCK_ROWS = 512


class IntegrationDivergedError(RuntimeError):
    """State became non-finite during integration; message says where.

    Raised by integrate_field, it also carries failures, each diverged
    element's index mapped to its own message, and states, the whole
    integrated stack.
    """


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


@dataclass(frozen=True, eq=False)
class PoseSampleSet:
    """Record of m flow samples, as their integrated chart rows, plus
    their chart mean and spread, all read-only; estimate_pose builds it.

    states holds the m integrated (rho, trans) rows; samples builds their
    poses from them on each access.  mean_state/std_state are
    component-wise over the samples' principal chart rows; std uses the
    population convention, so m=1 gives exact zeros.
    """

    states: np.ndarray
    mean_state: se3.MotionState
    std_state: np.ndarray

    @property
    def samples(self) -> list:
        """The m sample poses, one se3.state_to_pose call over states."""
        q, t = se3.state_to_pose(self.states)
        q.setflags(write=False)
        return [se3.RelativePose(se3.Rotation(qi), ti) for qi, ti in zip(q, t)]


def integrate_field(field, x0: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Integrate dx/dtau = field(x, tau) from tau 0 to 1, batched.

    x0 is an (n, m, 6) stack of n elements of m rows, (B, 6) rows of one
    element, or one 6-vector, integrated as one row and returned as a
    6-vector; field maps (states shaped as x0, scalar tau) -> velocities
    of that shape.  An element whose state leaves the finite range is
    integrated on, under np.errstate so that nothing warns, and the
    others run to tau 1; integration stops early only once every element
    has left it.  IntegrationDivergedError then names the step and first
    offending row of the first such element; its failures map each such
    element's index to its own message, and its states hold the stack,
    whose other elements a caller can still use.
    """
    x = np.array(x0, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    elements = len(x) if x.ndim == 3 else 1
    failures = {}
    h = 1.0 / config.steps
    with np.errstate(over="ignore", invalid="ignore"):  # diverged elements raise below
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
            if np.isfinite(x).all():
                continue
            finite = np.isfinite(x).reshape(elements, -1, x.shape[-1]).all(axis=2)
            for e in np.flatnonzero(~finite.all(axis=1)).tolist():
                failures.setdefault(e, f"non-finite state after step {i + 1}/{config.steps} "
                                       f"(sample {int(np.argmin(finite[e]))}, "
                                       f"method {config.method})")
            if len(failures) == elements:
                break
    if failures:
        err = IntegrationDivergedError(failures[min(failures)])
        err.failures, err.states = failures, x
        raise err
    return x[0] if squeeze else x


def _integrate(net: vfnet.VectorFieldNet, fold, x0: np.ndarray,
               config: SolverConfig) -> np.ndarray:
    """The (n, m, 6) stack x0 integrated through net folded under n
    conditions (fold, from vfnet.embed_conditions): one forward_batch call
    per stage for the whole stack."""
    return integrate_field(
        lambda x, tau: vfnet.forward_batch(net, x, tau, embedded=fold), x0, config)


def _finish(states: np.ndarray, failures: dict) -> tuple:
    """(means, stds, failures) of a (k, m, 6) stack of integrated states:
    each element's (6,) mean and population std over its principal chart
    rows, and the given failures (elements that diverged) joined by each
    element whose rotation vectors' norms overflow, flagged before the
    chart conversion, or whose statistics are not finite.

    The rest go to their chart rows with one se3.state_to_pose and one
    se3.pose_to_state call.  Each statistic is one np.add.reduce over the
    stack, which sums an element's rows in the order ndarray.mean and
    ndarray.std do on that element alone, so their bits match.  states
    and stds are left read-only.
    """
    k, m = states.shape[:2]
    rho = states[..., :3].reshape(-1, 3)
    means, stds = np.full((2, k, 6), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is flagged below
        wide = ~(se3.row_dots(rho, rho) < math.inf).reshape(k, m)
        live = ~wide.any(axis=1) & [e not in failures for e in range(k)]
        rows = se3.pose_to_state(*se3.state_to_pose(states[live]))
        means[live] = np.add.reduce(rows, 1) / m
        rows -= means[live][:, None]  # the deviations, squared in place as ndarray.std squares them
        rows *= rows
        stds[live] = np.sqrt(np.add.reduce(rows, 1) / m)
    failures = dict(failures)
    for e in np.flatnonzero(~(np.isfinite(means) & np.isfinite(stds)).all(axis=1)).tolist():
        row = int(np.argmax(wide[e]))
        failures.setdefault(e, "samples overflow the float range: " + (
            f"rho norm overflows in row [{row}]: {states[e, row, :3]}" if wide[e, row]
            else "mean_state and std_state must be finite"))
    states.setflags(write=False)
    stds.setflags(write=False)
    return means, stds, failures


def estimate_pose(net: vfnet.VectorFieldNet, cond: vfnet.ConditionVector,
                  config: SolverConfig, m: int,
                  rng: np.random.Generator, *, _finished=None) -> PoseSampleSet:
    """m independent flow samples for one condition, with mean and spread.

    All m reference draws come from rng in sequence; the m trajectories
    are integrated together as a one-element (1, m, 6) stack through the
    net folded under cond, as estimate_sequence integrates its blocks.
    The folded field equals the layered forward_batch to rounding, and
    each row the same draw integrated alone (within 1e-14 on the kept
    checkpoint), not bit for bit.  The result is exact given its
    arguments: estimate_sequence's element i equals estimate_pose on that
    element's child generator, whose draws estimate_sequence has made
    before it passes _finished: the element's states, mean and std from
    its block's _finish.  Alone it runs _finish on its one-element stack.
    Finite samples whose rotation vector or statistics overflow the float
    range raise IntegrationDivergedError, as non-finite states do.
    """
    if _finished is None:
        m = textio.whole("sample count m", m, 1)
        x0 = se3.sample_initial_batch(rng, m)
        states = _integrate(net, vfnet.embed_conditions(net, [cond]), x0[None], config)
        means, stds, failures = _finish(states, {})
        if failures:
            raise IntegrationDivergedError(failures[0])
        _finished = states[0], means[0], stds[0]
    final, mean, std = _finished
    return PoseSampleSet(final, se3.MotionState(mean[:3], mean[3:]), std)


def estimate_sequence(net: vfnet.VectorFieldNet, conds, config: SolverConfig,
                      m: int, rng: np.random.Generator):
    """Independent estimates for a sequence of conditions, order preserved.

    Each element gets its own child generator spawned from rng and draws
    its m reference rows from it, so the result for element i does not
    depend on the length of the sequence before or after it.  The net is
    folded under every condition by one vfnet.embed_conditions call.
    Consecutive elements are integrated together in blocks of at most
    BLOCK_ROWS rows (at least one element each): one (n, m, 6) stack and
    one forward_batch call per stage per block.  Each element keeps the
    bits estimate_pose gives it, since the stacked matmuls run one gemm
    per element; BLOCK_ROWS bounds the memory the stack and its stage
    buffers take, whatever the sequence's length.  Each block is then
    finished by one _finish call, the code estimate_pose runs on one
    element, and element i's estimate_pose records its finished arrays.

    m is checked before any draw, for an empty sequence too.  Every
    element runs to its own end; failures are collected and re-raised
    together with their element indices, quoting the first.
    """
    m = textio.whole("sample count m", m, 1)
    conds = list(conds)
    children = rng.spawn(len(conds))
    fold = vfnet.embed_conditions(net, conds)
    size = max(1, BLOCK_ROWS // m)
    results = []
    failures = []
    for start in range(0, len(conds), size):
        block = range(start, min(start + size, len(conds)))
        x0 = np.stack([se3.sample_initial_batch(children[i], m) for i in block])
        try:
            states, diverged = _integrate(
                net, fold._replace(bias=fold.bias[start:block.stop]), x0, config), {}
        except IntegrationDivergedError as err:
            states, diverged = err.states, err.failures
        means, stds, faults = _finish(states, diverged)
        for e, i in enumerate(block):
            if e in faults:
                failures.append((i, faults[e]))
            else:
                results.append(estimate_pose(net, conds[i], config, m, children[i],
                                             _finished=(states[e], means[e], stds[e])))
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


def read_estimates_csv(path) -> tuple:
    """Inverse of write_estimates_csv: (means, stds), the rows' mean
    states and spreads as (n, 6) arrays.  A line whose pair_index is not
    its row's position, whose mean is not finite, or whose spread is not
    finite and non-negative raises a ValueError naming it."""
    lines = textio.numbered(path, skip_comments=False)
    where, header = next(lines, (path, None))
    if header != ESTIMATES_HEADER:
        raise ValueError(f"{where}: unexpected estimates CSV header")
    means, stds = [], []
    for where, line in lines:
        with textio.at(where):
            cells = line.split(",")
            values = textio.floats(cells, 13)
            if cells[0] != str(len(means)):
                raise ValueError(f"pair_index {cells[0]!r} is not the row's position {len(means)}")
            if not all(map(math.isfinite, values[1:7])):
                raise ValueError("mean_state must be finite")
            if not all(math.isfinite(x) and x >= 0.0 for x in values[7:]):
                raise ValueError("std_state must be finite and non-negative")
            means.append(values[1:7])
            stds.append(values[7:])
    return np.array(means).reshape(-1, 6), np.array(stds).reshape(-1, 6)
