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

The integrated rows go to their principal chart rows, over which the
statistics are taken, with one call of each of se3's stack chart maps per
block (or per estimate_pose alone).  A PoseSampleSet keeps the m
integrated rows, not m pose objects; its samples are built on access.
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


def _spread_vector(values) -> np.ndarray:
    """values as a read-only 6-vector of sample stds: finite and >= 0."""
    std = np.array(values, dtype=np.float64).reshape(6)
    if not all(math.isfinite(x) and x >= 0.0 for x in std.tolist()):
        raise ValueError("std_state must be finite and non-negative")
    std.setflags(write=False)
    return std


def _sample_rows(values) -> np.ndarray:
    """values as read-only (m, 6) sample rows: finite."""
    rows = np.array(values, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != 6 or not np.isfinite(rows).all():
        raise ValueError(f"states must be finite (m, 6) sample rows, got shape {rows.shape}")
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class PoseSampleSet:
    """m flow samples, as their integrated chart rows, plus their chart
    mean and spread.

    states holds the m integrated (rho, trans) rows, read-only; samples
    builds their poses from them on each access.  mean_state/std_state
    are component-wise over the samples' principal chart rows; std uses
    the population convention, so m=1 gives exact zeros.
    """

    states: np.ndarray
    mean_state: se3.MotionState
    std_state: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", _sample_rows(self.states))
        object.__setattr__(self, "std_state", _spread_vector(self.std_state))

    @property
    def samples(self) -> list:
        """The m sample poses, one se3.state_to_pose call over states."""
        q, t = se3.state_to_pose(self.states)
        q.setflags(write=False)
        return [se3._frozen(se3.RelativePose, rotation=se3._frozen(se3.Rotation, q=qi),
                            translation=ti) for qi, ti in zip(q, t)]



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


def _chart(states: np.ndarray) -> np.ndarray:
    """The principal chart rows of integrated (..., 6) states, each row
    taken to its pose and back: one se3.state_to_pose and one
    se3.pose_to_state call for the whole stack."""
    return se3.pose_to_state(*se3.state_to_pose(states))


def estimate_pose(net: vfnet.VectorFieldNet, cond: vfnet.ConditionVector,
                  config: SolverConfig, m: int,
                  rng: np.random.Generator, *, _states=None) -> PoseSampleSet:
    """m independent flow samples for one condition, with mean and spread.

    All m reference draws come from rng in sequence; the m trajectories
    are integrated together as a one-element (1, m, 6) stack through the
    net folded under cond, as estimate_sequence integrates its blocks.
    The folded field equals the layered forward_batch to rounding, and
    each row the same draw integrated alone (within 1e-14 on the kept
    checkpoint), not bit for bit.  The result is exact given its
    arguments: estimate_sequence's element i equals estimate_pose on that
    element's child generator.  estimate_sequence passes _states, having
    drawn them from rng: the element's integrated (m, 6) states and their
    chart rows from its block's conversion, or None when that conversion
    failed, so that the element converts its own.

    The statistics are taken over the principal chart rows of the
    samples (_chart), with the reductions ndarray.mean and ndarray.std
    run, so their bits match.  Finite samples whose rotation vector or
    statistics overflow the float range raise IntegrationDivergedError,
    as non-finite states do.
    """
    if _states is None:
        m = textio.whole("sample count m", m, 1)
        x0 = se3.sample_initial_batch(rng, m)
        final = _integrate(net, vfnet.embed_conditions(net, [cond]), x0[None], config)[0]
        _states = final, None
    final, rows = _states
    try:
        if rows is None:
            rows = _chart(final)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite results raise below
            mean = np.add.reduce(rows, 0) / m
            rows -= mean  # the deviations, squared in place as ndarray.std squares them
            rows *= rows
            std = np.sqrt(np.add.reduce(rows, 0) / m)
        return PoseSampleSet(final, se3.MotionState.from_vector(mean), std)
    except ValueError as err:
        raise IntegrationDivergedError(f"samples overflow the float range: {err}") from None


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
    buffers take, whatever the sequence's length.  The block's elements
    that did not diverge then go to their chart rows with one
    se3.state_to_pose and one se3.pose_to_state call, the same row maps
    estimate_pose applies to one element, and element i's estimate_pose
    turns its rows into the estimate.

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
        live = [e for e in range(len(block)) if e not in diverged]
        try:
            rows = dict(zip(live, _chart(states[live])))
        except ValueError:  # an element's rotation vectors overflow: each converts its own
            rows = {}
        for e, i in enumerate(block):
            if e in diverged:
                failures.append((i, diverged[e]))
                continue
            try:
                results.append(estimate_pose(net, conds[i], config, m, children[i],
                                             _states=(states[e], rows.get(e))))
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
