"""Linear-path flow matching: loss, Adam, and the training loop.

A training pair is a target motion plus its condition vector.  During
training we draw tau ~ U[0, 1] and a reference state x0 (Gaussian
translation, uniform rotation), place the path point

    x_tau = (1 - tau) * x0 + tau * x1        (straight line in the chart)

and regress the network output at (x_tau, tau, cond) onto the constant
path velocity x1 - x0.  The loss is the batch mean of the squared
residual norm, and Adam at its usual rates takes the steps.

Everything is driven by one numpy Generator, so a (dataset, config) pair
reproduces bit-identical parameter and loss trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import se3, textio, vfnet


class TrainingDivergedError(RuntimeError):
    """Loss or parameters became non-finite; message says where."""


@dataclass(frozen=True, eq=False)
class TrainingPair:
    """Supervised example: target motion in the chart plus its condition."""

    target: se3.MotionState
    cond: vfnet.ConditionVector

    def __post_init__(self):
        if not isinstance(self.target, se3.MotionState):
            raise TypeError("target must be a MotionState")
        if not isinstance(self.cond, vfnet.ConditionVector):
            raise TypeError("cond must be a ConditionVector")
        if float(np.linalg.norm(self.target.rho)) > math.pi + 1e-9:
            raise ValueError("target rotation vector leaves the principal ball")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters.  Defaults fit a laptop-scale run."""

    batch_size: int = 64
    epochs: int = 400
    lr: float = 1e-3
    lr_decay_factor: float = 0.5
    lr_decay_epoch: int = 200
    seed: int = 0

    def __post_init__(self):
        for name, least in (("batch_size", 1), ("epochs", 1), ("lr_decay_epoch", 0),
                            ("seed", 0)):
            object.__setattr__(self, name, textio.whole(name, getattr(self, name), least))
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError("lr must be positive and finite")
        if not (0.0 < self.lr_decay_factor <= 1.0):
            raise ValueError("lr_decay_factor must lie in (0, 1]")

    def lr_at(self, epoch: int) -> float:
        """Step schedule: one multiplicative drop at lr_decay_epoch."""
        if epoch >= self.lr_decay_epoch:
            return self.lr * self.lr_decay_factor
        return self.lr


def path_point(x0: np.ndarray, x1: np.ndarray, taus: np.ndarray):
    """Points at taus on the straight paths from rows x0 to rows x1, and
    the constant path velocities x1 - x0 the field is regressed onto."""
    return (1.0 - taus)[:, None] * x0 + taus[:, None] * x1, x1 - x0


def cfm_loss(net: vfnet.VectorFieldNet, states: np.ndarray, taus: np.ndarray,
             conds: np.ndarray, targets: np.ndarray, grads: vfnet.VectorFieldNet = None):
    """Mean squared residual norm of the field against path velocities.

    states (B, 6) are path points at times taus (B,) under conditions
    conds (B, k); targets (B, 6) are their path velocities.  Returns
    (loss, gradients), the gradients a VectorFieldNet like net: grads,
    overwritten, when given, else a fresh one.  They are exact for the
    returned loss, including the 1/B normalization.
    """
    if len(states) == 0:
        raise ValueError("cfm_loss needs a nonempty batch")
    out, cache = vfnet.forward_batch(net, states, taus, conds, keep_cache=True)
    resid = out - targets
    # The row sums go through a matmul, not .sum(axis=1): the two round
    # differently in the last bit, and loss.csv prints every bit.
    loss = float(np.mean((resid * resid) @ np.ones(6)))
    upstream = resid * (2.0 / states.shape[0])
    return loss, vfnet.backward_batch(net, cache, upstream, grads)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, flat like VectorFieldNet.flat,
    plus the shared step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int


def adam_init(net: vfnet.VectorFieldNet) -> AdamState:
    return AdamState(m=np.zeros_like(net.flat), v=np.zeros_like(net.flat), step=0)


def _first_nonfinite(net: vfnet.VectorFieldNet, flat: np.ndarray) -> str:
    """Name of the tensor, in checkpoint order, that holds the first
    non-finite entry of flat, a buffer laid out like net.flat."""
    bad = int(np.argmin(np.isfinite(flat)))
    for name, arr in vfnet._named_arrays(net):
        if bad < arr.size:
            return name
        bad -= arr.size


@np.errstate(over="ignore", invalid="ignore")
def adam_step(net: vfnet.VectorFieldNet, grads: vfnet.VectorFieldNet, state: AdamState,
              lr: float) -> None:
    """One in-place Adam update with bias correction, on the flat buffers.

    From a zero state the very first step moves each parameter by
    -lr * g / (|g| + eps), which the tests pin down.  Raises
    TrainingDivergedError, naming the first tensor in checkpoint order
    with a non-finite entry, if any parameter leaves the finite range, or
    else any second moment does; it warns nothing.
    """
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    g, m, v = grads.flat, state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    denom = np.sqrt(v / c2)
    denom += ADAM_EPS
    update = m / c1
    update *= lr
    update /= denom
    net.flat -= update
    if not np.isfinite(net.flat).all():
        raise TrainingDivergedError(f"parameter {_first_nonfinite(net, net.flat)} became "
                                    f"non-finite at optimizer step {state.step}")
    # A finite gradient whose square overflows leaves its parameter a zero
    # update from then on: training would go on with that parameter frozen.
    if not np.isfinite(v).all():
        raise TrainingDivergedError(f"second moment of {_first_nonfinite(net, v)} left "
                                    f"the float range at optimizer step {state.step}")


@np.errstate(over="ignore", invalid="ignore")  # divergence raises, and warns nothing
def train(dataset, config: TrainConfig, net_config: vfnet.NetConfig = None,
          net: vfnet.VectorFieldNet = None):
    """Train a vector field on a list of TrainingPairs.

    Pass net to resume from existing parameters (fresh optimizer state);
    otherwise a new network is initialized from net_config.  Returns
    (net, history) where history is a list of (step, lr, loss) tuples,
    one per optimizer step.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("training dataset is empty")
    cond_dim = dataset[0].cond.dim
    for i, pair in enumerate(dataset):
        if pair.cond.dim != cond_dim:
            raise ValueError(f"pair {i} has condition dim {pair.cond.dim}, "
                             f"expected {cond_dim}")

    rng = np.random.default_rng(config.seed)
    if net is None:
        if net_config is None:
            net_config = vfnet.NetConfig(cond_dim=cond_dim)
        net = vfnet.init_params(rng, net_config)
    if net.config.cond_dim != cond_dim:
        raise ValueError(
            f"network expects condition dim {net.config.cond_dim}, "
            f"dataset has {cond_dim}"
        )

    targets = np.stack([p.target.as_vector() for p in dataset])
    conds = np.stack([p.cond.values for p in dataset])
    n = len(dataset)

    opt = adam_init(net)
    grads = vfnet.zero_gradients(net)  # every step overwrites all of it
    history = []
    step = 0
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        order = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            b = idx.size
            taus = rng.uniform(size=b)
            x0 = se3.sample_initial_batch([rng], b)
            x_tau, velocity = path_point(x0, targets[idx], taus)
            loss, grads = cfm_loss(net, x_tau, taus, conds[idx], velocity, grads)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {lo // config.batch_size}"
                )
            adam_step(net, grads, opt, lr)
            step += 1
            history.append((step, lr, loss))
    return net, history


# --- external formats --------------------------------------------------------


def write_loss_history(path, history) -> None:
    """CSV with one row per optimizer step: step, lr, loss."""
    textio.write_lines(path, ["step,lr,loss"] + [f"{step}," + textio.fmt((lr, loss))
                                                 for step, lr, loss in history])


def load_train_config(path) -> TrainConfig:
    """Parse a key=value config file into a TrainConfig.

    Unknown or repeated keys and malformed lines raise ValueError with the
    line number.  Keys not present keep their defaults.
    """
    types = {f.name: f.type for f in fields(TrainConfig)}  # "int" or "float"
    values = {}
    for where, line in textio.numbered(path):
        with textio.at(where):
            key, value = textio.key_value(line, values)
            if key not in types:
                raise ValueError(f"unknown key {key!r}")
            with textio.at(key):
                values[key] = int(value) if types[key] == "int" else float(value)
    with textio.at(path):
        return TrainConfig(**values)
