"""Linear-path flow matching: loss, Adam, and the training loop.

A training pair is a target motion plus its condition vector.  During
training we draw tau ~ U[0, 1] and a reference state x0 (Gaussian
translation, uniform rotation), place the path point

    x_tau = (1 - tau) * x0 + tau * x1        (straight line in the chart)

and regress the network output at (x_tau, tau, cond) onto the constant
path velocity x1 - x0.  The loss is the batch mean of the squared
residual norm, optionally with separate rotation/translation weights.

Everything is driven by one numpy Generator, so a (dataset, config) pair
reproduces bit-identical parameter and loss trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import se3, vfnet


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    rot_weight: float = 1.0
    trans_weight: float = 1.0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError("lr must be positive and finite")
        if not (0.0 < self.lr_decay_factor <= 1.0):
            raise ValueError("lr_decay_factor must lie in (0, 1]")
        if self.lr_decay_epoch < 0:
            raise ValueError("lr_decay_epoch must be >= 0")
        for name in ("adam_beta1", "adam_beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")
        if self.rot_weight <= 0 or self.trans_weight <= 0:
            raise ValueError("loss weights must be positive")

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
             conds: np.ndarray, targets: np.ndarray, rot_weight: float = 1.0,
             trans_weight: float = 1.0):
    """Mean weighted squared residual of the field against path velocities.

    states (B, 6) are path points at times taus (B,) under conditions
    conds (B, k); targets (B, 6) are their path velocities.  Returns
    (loss, Gradients).  The gradient is exact for the returned loss,
    including the 1/B normalization and the component weights.
    """
    if len(states) == 0:
        raise ValueError("cfm_loss needs a nonempty batch")
    weights = np.repeat([rot_weight, trans_weight], 3)
    out, cache = vfnet.forward_batch(net, states, taus, conds, keep_cache=True)
    resid = out - targets
    loss = float(np.mean((resid * resid) @ weights))
    upstream = resid * weights * (2.0 / states.shape[0])
    grads = vfnet.backward_batch(net, cache, upstream)
    return loss, grads


@dataclass
class AdamState:
    """First/second moment accumulators, flat like VectorFieldNet.flat,
    plus the shared step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int
    beta1: float
    beta2: float
    eps: float


def adam_init(net: vfnet.VectorFieldNet, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(
        m=np.zeros_like(net.flat),
        v=np.zeros_like(net.flat),
        step=0,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )


def adam_step(net: vfnet.VectorFieldNet, grads: vfnet.Gradients, state: AdamState,
              lr: float) -> None:
    """One in-place Adam update with bias correction, on the flat buffers.

    From a zero state the very first step moves each parameter by
    -lr * g / (|g| + eps), which the tests pin down.  Raises
    TrainingDivergedError, naming the first tensor in _named_arrays order
    with a non-finite entry, if any parameter leaves the finite range.
    """
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    g, m, v = grads.flat, state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * (g * g)
    denom = np.sqrt(v / c2)
    denom += state.eps
    update = m / c1
    update *= lr
    update /= denom
    net.flat -= update
    if not np.isfinite(net.flat).all():
        bad = int(np.argmin(np.isfinite(net.flat)))
        for name, arr in vfnet._named_arrays(net):
            if bad < arr.size:
                break
            bad -= arr.size
        raise TrainingDivergedError(
            f"parameter {name} became non-finite at optimizer step {state.step}"
        )


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

    opt = adam_init(net, config.adam_beta1, config.adam_beta2, config.adam_eps)
    history = []
    step = 0
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        order = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            b = idx.size
            taus = rng.uniform(size=b)
            x0 = se3.sample_initial_batch(rng, b)
            x_tau, velocity = path_point(x0, targets[idx], taus)
            loss, grads = cfm_loss(net, x_tau, taus, conds[idx], velocity,
                                   config.rot_weight, config.trans_weight)
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
    with open(path, "w") as fh:
        fh.write("step,lr,loss\n")
        for step, lr, loss in history:
            fh.write("%d,%.17g,%.17g\n" % (step, lr, loss))


def read_loss_history(path):
    history = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "step,lr,loss":
            raise ValueError(f"{path}: unexpected loss CSV header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns")
            try:
                history.append((int(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from err
    return history


_INT_FIELDS = {"batch_size", "epochs", "lr_decay_epoch", "seed"}


def load_train_config(path, base: TrainConfig = None) -> TrainConfig:
    """Parse a key=value config file into a TrainConfig.

    Unknown keys and malformed lines raise ValueError with the line number.
    Keys not present keep the values from base (or the defaults).
    """
    base = base if base is not None else TrainConfig()
    known = {f.name for f in fields(TrainConfig)}
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                overrides[key] = int(value) if key in _INT_FIELDS else float(value)
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}") from err
    return replace(base, **overrides)
