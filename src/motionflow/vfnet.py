"""Small MLP that predicts a 6-dim velocity from (state, time, condition).

Architecture: three input branches are embedded separately and fused by
concatenation, then a shared tanh trunk feeds two heads that output the
rotational (first 3) and translational (last 3) velocity components.

- time: fixed sinusoidal features, no learned parameters before the fusion
  linear map (the embedding itself is the feature vector)
- state: one linear layer
- condition: two-layer tanh MLP, standing in for a frozen image encoder
- trunk and head hidden layers: tanh; final head layers: linear

All parameters live in plain float64 numpy arrays and gradients are
computed by hand (reverse mode).  On the layered path (raw conditions,
and the one training uses) the two heads run as one stacked chain: each
head layer is a (2, out, in) weight view and a (2, out) bias view over
both heads' parameters, so one matmul call does both heads, one gemm per
head with the operands of a separate call, and keeps each head's bits.
backward_batch writes the gradients into a caller's buffer, so a
training loop reuses one.  Everything is deterministic given the
initializing Generator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import textio


@dataclass(frozen=True)
class NetConfig:
    """Widths of every block.  Defaults are the desk-scale setup."""

    cond_dim: int = 16
    time_embed_dim: int = 16
    state_embed_dim: int = 16
    cond_hidden_dim: int = 16
    cond_embed_dim: int = 16
    trunk_widths: tuple = (64, 64)
    head_widths: tuple = (32, 32)

    STATE_DIM = 6
    OUT_DIM = 3  # per head

    def __post_init__(self):
        for name in ("cond_dim", "time_embed_dim", "state_embed_dim",
                     "cond_hidden_dim", "cond_embed_dim"):
            object.__setattr__(self, name, textio.whole(name, getattr(self, name), 1))
        for name in ("trunk_widths", "head_widths"):
            widths = tuple(textio.whole(name, w, 1) for w in getattr(self, name))
            object.__setattr__(self, name, widths)
        if self.time_embed_dim % 2 != 0:
            raise ValueError("time_embed_dim must be even (sin/cos pairs)")
        if not self.trunk_widths:
            raise ValueError("trunk_widths must be nonempty")

    @property
    def fused_dim(self) -> int:
        return self.time_embed_dim + self.state_embed_dim + self.cond_embed_dim


@dataclass(frozen=True, eq=False)
class ConditionVector:
    """Record of a guidance feature vector: a read-only (k,) array."""

    values: np.ndarray

    @property
    def dim(self) -> int:
        return np.size(self.values)


@dataclass
class VectorFieldNet:
    """Parameters, or gradients of the same network.  Layers are (weight,
    bias) pairs, weight (out, in).

    Every weight and bias is a view into flat, one float64 buffer laid out
    by _layout(config), so the optimizer updates all parameters with a few
    vector operations.  heads views the same parameters as head_rot and
    head_trans, layer by layer: a (2, out, in) weight and a (2, out) bias,
    rotational head first.
    """

    config: NetConfig
    state_embed: list  # [W, b]
    cond_embed: list   # [[W, b], [W, b]]
    layers: list       # trunk: [[W, b], ...]
    head_rot: list     # [[W, b], ..., final linear]
    head_trans: list
    heads: list        # [[W, b], ...]: head_rot's and head_trans's, stacked
    flat: np.ndarray


@functools.lru_cache(maxsize=16)
def _layout(config: NetConfig):
    """The one list of the network's linear layers, in checkpoint order:
    ((name, tree field, weight start, bias start, bias end, weight shape),
    ...) with offsets into the flat buffer, and the buffer size."""
    c = config
    dims = [("state_embed", "state_embed", c.STATE_DIM, c.state_embed_dim),
            ("cond_embed.0", "cond_embed", c.cond_dim, c.cond_hidden_dim),
            ("cond_embed.1", "cond_embed", c.cond_hidden_dim, c.cond_embed_dim)]
    trunk = (c.fused_dim,) + c.trunk_widths
    dims += [(f"trunk.{i}", "layers", trunk[i], w) for i, w in enumerate(trunk[1:])]
    head = trunk[-1:] + c.head_widths + (c.OUT_DIM,)
    for field in ("head_rot", "head_trans"):
        dims += [(f"{field}.{i}", field, head[i], w) for i, w in enumerate(head[1:])]
    spans = []
    offset = 0
    for name, field, in_dim, out_dim in dims:
        bias = offset + out_dim * in_dim
        spans.append((name, field, offset, bias, bias + out_dim, (out_dim, in_dim)))
        offset = bias + out_dim
    return tuple(spans), offset


def _named_arrays(tree):
    """(name, view of tree.flat) for every weight and bias, in checkpoint
    order; tree is any VectorFieldNet, parameters or gradients."""
    for name, _, start, bias, end, shape in _layout(tree.config)[0]:
        yield f"{name}.w", tree.flat[start:bias].reshape(shape)
        yield f"{name}.b", tree.flat[bias:end]


def parameter_count(config: NetConfig) -> int:
    return _layout(config)[1]


def _zero_net(config: NetConfig) -> VectorFieldNet:
    """All-zero network: each layer's [weight, bias] pair is a view into flat."""
    spans, size = _layout(config)
    flat = np.zeros(size)
    tree = {"cond_embed": [], "layers": [], "head_rot": [], "head_trans": [], "heads": []}
    for _, field, start, bias, end, shape in spans:
        pair = [flat[start:bias].reshape(shape), flat[bias:end]]
        if field == "state_embed":
            tree[field] = pair
        else:
            tree[field].append(pair)
    # The two heads close the layout, one after the other with the same
    # shapes: rows of one (2, head size) view, cut layer by layer.
    depth = len(tree["head_rot"])
    head_start = spans[-2 * depth][2]
    both = flat[head_start:].reshape(2, -1)
    for _, _, start, bias, end, shape in spans[-2 * depth:-depth]:
        start, bias, end = start - head_start, bias - head_start, end - head_start
        tree["heads"].append([both[:, start:bias].reshape((2,) + shape), both[:, bias:end]])
    return VectorFieldNet(config, flat=flat, **tree)


def zero_gradients(net: VectorFieldNet) -> VectorFieldNet:
    return _zero_net(net.config)


def init_params(rng: np.random.Generator, config: NetConfig) -> VectorFieldNet:
    """He-style uniform fan-in init; final head layers start at exact zero.

    Weights ~ U(-sqrt(6/fan_in), +sqrt(6/fan_in)), biases zero.  Zeroing the
    last layer of both heads makes the initial velocity field identically
    zero, so untrained sampling returns the reference draw unchanged.
    """
    final = {f"{head}.{len(config.head_widths)}.w" for head in ("head_rot", "head_trans")}
    net = _zero_net(config)
    for name, arr in _named_arrays(net):
        if name.endswith(".w") and name not in final:
            bound = math.sqrt(6.0 / arr.shape[1])
            arr[...] = rng.uniform(-bound, bound, size=arr.shape)
    return net


@functools.lru_cache(maxsize=16)
def _time_frequencies(dim: int) -> np.ndarray:
    """Read-only (1, dim/2) row of the frequencies 2^j pi."""
    freqs = math.pi * (2.0 ** np.arange(dim // 2))
    freqs.flags.writeable = False
    return freqs[None, :]


def _time_features(taus: np.ndarray, dim: int) -> np.ndarray:
    """(B,) times -> (B, dim) features [sin(2^j pi tau), cos(2^j pi tau)],
    j = 0..dim/2-1; no parameters involved."""
    angles = taus[:, None] * _time_frequencies(dim)
    out = np.empty((taus.size, dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


@functools.lru_cache(maxsize=64)
def _shared_time_features(tau: float, dim: int) -> np.ndarray:
    """Read-only _time_features row of one time."""
    row = _time_features(np.array([tau]), dim)[0]
    row.flags.writeable = False
    return row


def _check_cond_dim(net: VectorFieldNet, dim: int) -> None:
    if dim != net.config.cond_dim:
        raise ValueError(
            f"condition dim {dim} does not match network cond_dim {net.config.cond_dim}")


def _condition_branch(net: VectorFieldNet, conds: np.ndarray) -> list:
    """The condition MLP's activations on (B, cond_dim) rows, or on an
    (n, 1, cond_dim) stack as a stacked chain."""
    _check_cond_dim(net, conds.shape[-1])
    return _forward_chain(net.cond_embed, conds, True)


class _Folded(NamedTuple):
    """The net folded under n conditions, from embed_conditions: what
    forward_batch's embedded= runs on an (n, m, 6) stack of states.
    Weights are (in, out); every array is read-only, net's own stay
    writable.  Slicing bias along its first axis gives the fold of those
    conditions alone: fold._replace(bias=fold.bias[a:b])."""

    state_weight: np.ndarray  # (6, trunk_widths[0])
    bias: np.ndarray          # (n, 1, trunk_widths[0]): the first trunk layer's,
                              # with condition i folded into row i
    time_weight: np.ndarray   # (time_embed_dim, trunk_widths[0])
    layers: tuple             # ((weight, bias), ...): the trunk's others, then the heads'


def embed_conditions(net: VectorFieldNet, conds) -> _Folded:
    """net folded under the ConditionVectors of conds: one bias row each.

    Every row of one element shares the condition and each stage's tau,
    and the state embedding is linear, so the first trunk layer is
    tanh(states @ state_weight + bias + time(tau) @ time_weight).  The two
    heads run as one chain: their first weights stacked, their later ones
    block-diagonal, so the output row is [rotational, translational].

    Only the bias row W_c·emb(cond) + W_s·b_se + b_0, summed in that
    order, depends on the condition: the other arrays are built once per
    call and shared by every condition.  The conditions, stacked as
    (n, 1, cond_dim), run the condition branch once as a stacked chain,
    and one stacked product forms the bias rows; both run one gemm per
    condition with the operands of a one-condition call, so a row's bits
    do not depend on n.  A condition whose dim is not the net's, or that
    holds a non-finite value, raises ValueError naming the first such; no
    conditions give an (n = 0) fold.  Some arrays are views of net: fold
    again after its parameters change.
    """
    t, s = net.config.time_embed_dim, net.config.state_embed_dim
    (w0, b0), (w_se, b_se) = net.layers[0], net.state_embed
    w_s = w0[:, t:t + s]
    layers = [(w.T, b[:]) for w, b in net.layers[1:]]
    for i, (stacked, b) in enumerate(net.heads):
        _, out, width = stacked.shape
        if i == 0:  # both heads read the trunk's output
            w = stacked.reshape(2 * out, width)
        else:
            w = np.zeros((2 * out, 2 * width))
            w[:out, :width], w[out:, width:] = stacked
        layers.append((w.T, b.reshape(2 * out)))
    state_weight, time_weight, layers = (w_s @ w_se).T, w0[:, :t].T, tuple(layers)
    w_c, state_bias = w0[:, t + s:], w_s @ b_se
    conds = list(conds)
    for cond in conds:  # each before stacking, which fails on mixed dims
        _check_cond_dim(net, cond.dim)
    values = np.reshape([cond.values for cond in conds], (len(conds), 1, net.config.cond_dim))
    finite = np.isfinite(values).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"condition {int(np.argmin(finite))} contains non-finite values")
    emb = _condition_branch(net, values)[-1]
    bias = (w_c @ emb.swapaxes(-1, -2)).swapaxes(-1, -2) + state_bias + b0
    for a in (state_weight, bias, time_weight, *itertools.chain(*layers)):  # none is net's own
        a.setflags(write=False)
    return _Folded(state_weight, bias, time_weight, layers)


def _forward_chain(layers, x, linear_last: bool) -> list:
    """Run x through (weight, bias) layers, each followed by tanh except a
    linear last one; returns each layer's input, then the chain's output.

    A stacked chain (net.heads) has (2, out, in) weights and (2, out)
    biases: (B, in) rows enter it and its activations are (2, B, width).
    """
    acts = [x]
    for i, (weight, bias) in enumerate(layers):
        x = x @ weight.swapaxes(-1, -2)
        x += bias[..., None, :]
        if i < len(layers) - 1 or not linear_last:
            np.tanh(x, out=x)
        acts.append(x)
    return acts


def _backward_chain(layers, grads, acts, d: np.ndarray, linear_last: bool) -> np.ndarray:
    """Reverse of _forward_chain: given the gradient d at the chain's output,
    write each layer's weight and bias gradients into its [W, b] views in
    grads and return the gradient at the first layer's pre-activation."""
    for i in range(len(layers) - 1, -1, -1):
        if i < len(layers) - 1 or not linear_last:
            slope = np.square(acts[i + 1])  # tanh' = 1 - a^2, in one buffer
            np.subtract(1.0, slope, out=slope)
            d = np.multiply(d, slope, out=slope)
        np.matmul(d.swapaxes(-1, -2), acts[i], out=grads[i][0])
        np.add.reduce(d, axis=-2, out=grads[i][1])
        if i:
            d = d @ layers[i][0]
    return d


def forward_batch(net: VectorFieldNet, states: np.ndarray, taus, conds=None,
                  keep_cache: bool = False, *, embedded=None):
    """Batched field evaluation: (B,6), (B,), (B,k) -> (B,6) velocities.

    In place of conds, embedded may give embed_conditions' fold of n
    conditions, with states an (n, m, 6) stack, row block i under
    condition i, and taus one float time for every row: each call then
    runs the trunk and one merged head chain on the states alone, and
    returns (n, m, 6) velocities.  Its matmuls stay 3-D, so numpy runs one
    gemm per condition with the operands of an (m, 6) call, and each
    condition's velocities keep their bits whatever n is; one flat
    (n*m, 6) matmul would round differently.  They equal the layered
    path's to rounding (about 1e-15), not bit for bit.  The time features
    of tau come from a 64-entry cache.

    With raw conds the two heads run as one stacked chain over net.heads,
    each head with the bits of its own chain.  With keep_cache=True this
    also returns the intermediate activations needed by backward_batch;
    that needs raw conds.
    """
    if embedded is not None:
        if conds is not None or keep_cache:
            raise ValueError("embedded replaces conds and keeps no activations "
                             "for backward_batch; pass conds alone")
        time = _shared_time_features(taus, len(embedded.time_weight))
        x = states @ embedded.state_weight
        x += embedded.bias + time @ embedded.time_weight
        for weight, bias in embedded.layers:
            np.tanh(x, out=x)
            x = x @ weight
            x += bias
        return x
    cond_acts = _condition_branch(net, conds)
    state_acts = _forward_chain([net.state_embed], states, True)
    time = _time_features(taus, net.config.time_embed_dim)
    fused = np.concatenate([time, state_acts[-1], cond_acts[-1]], axis=1)
    trunk_acts = _forward_chain(net.layers, fused, False)
    head_acts = _forward_chain(net.heads, trunk_acts[-1], True)
    out = np.concatenate(head_acts[-1], axis=1)  # [rotational, translational]
    if not keep_cache:
        return out
    return out, (state_acts, cond_acts, trunk_acts, head_acts)


def backward_batch(net: VectorFieldNet, cache, upstream: np.ndarray,
                   grads: VectorFieldNet = None) -> VectorFieldNet:
    """Exact reverse-mode gradients of sum_b <forward_b, upstream_b>.

    cache comes from forward_batch(..., keep_cache=True); upstream is (B, 6).
    The heads run back as one stacked chain, like forward_batch's.  The
    gradients overwrite every entry of grads, a tree like net that a
    training loop allocates once (zero_gradients), and grads is returned;
    without it they go into one fresh flat buffer.
    """
    state_acts, cond_acts, trunk_acts, head_acts = cache
    if grads is None:
        grads = zero_gradients(net)
    d = upstream.reshape(len(upstream), 2, net.config.OUT_DIM).swapaxes(0, 1)
    d = _backward_chain(net.heads, grads.heads, head_acts, d, True) @ net.heads[0][0]
    d = d[0] + d[1]  # both heads read the trunk's output
    d = _backward_chain(net.layers, grads.layers, trunk_acts, d, False) @ net.layers[0][0]

    # Split the fused-input gradient back into the state and condition branches.
    t_dim, s_dim = net.config.time_embed_dim, net.config.state_embed_dim
    _backward_chain([net.state_embed], [grads.state_embed], state_acts,
                    d[:, t_dim:t_dim + s_dim], True)
    _backward_chain(net.cond_embed, grads.cond_embed, cond_acts, d[:, t_dim + s_dim:], True)
    return grads


# --- checkpoint format -------------------------------------------------------
#
# Plain text, self-describing.  Header lines are key=value (one per config
# field); each tensor then appears, weight then bias in _layout order, as
#     tensor <name> <rows> <cols>
# followed by <rows> lines of <cols> decimal floats.  Vectors use rows=1.

CHECKPOINT_MAGIC = "# motionflow vector field checkpoint v1"


def save_checkpoint(path, net: VectorFieldNet) -> None:
    lines = [CHECKPOINT_MAGIC]
    for f in fields(NetConfig):
        value = getattr(net.config, f.name)
        text = ",".join(str(w) for w in value) if isinstance(value, tuple) else str(value)
        lines.append(f"{f.name}={text}")
    for name, arr in _named_arrays(net):
        mat = np.atleast_2d(arr)
        lines.append(f"tensor {name} {mat.shape[0]} {mat.shape[1]}")
        lines.extend(textio.fmt(row, " ") for row in mat.tolist())
    textio.write_lines(path, lines)


def load_checkpoint(path) -> VectorFieldNet:
    lines = list(textio.numbered(path, skip_comments=False))
    if not lines or lines[0][1] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a vector field checkpoint")
    body = next((i for i, (_, line) in enumerate(lines) if line.startswith("tensor ")),
                len(lines))
    names = [f.name for f in fields(NetConfig)]
    sizes = {}
    for where, line in lines[1:body]:
        if not line.startswith("#"):
            with textio.at(where):
                key, value = textio.key_value(line, sizes)
                if key in names:
                    sizes[key] = (tuple(int(w) for w in value.split(","))
                                  if key.endswith("_widths") else int(value))
    missing = [name for name in names if name not in sizes]
    if missing:
        raise ValueError(f"{path}: missing header field {missing[0]!r}")
    with textio.at(path):
        config = NetConfig(**sizes)
    spans = _layout(config)[0]
    need = sum(shape[0] + 3 for *_, shape in spans)
    if len(lines) - body < need:
        raise ValueError(f"{path}: {need - len(lines) + body} of {need} tensor lines missing")
    # Walk the table; the net is allocated only once the file has filled it.
    rows = iter(lines[body:])
    values = []
    for name, *_, (out_dim, in_dim) in spans:
        for tensor, shape in ((f"{name}.w", (out_dim, in_dim)), (f"{name}.b", (1, out_dim))):
            where, line = next(rows)
            with textio.at(where):
                parts = line.split()
                if len(parts) != 4 or parts[:2] != ["tensor", tensor]:
                    raise ValueError(f"expected tensor {tensor}, got {line!r}")
                got = (int(parts[2]), int(parts[3]))
                if got != shape:
                    raise ValueError(f"tensor {tensor} has shape {got}, expected {shape}")
            for where, line in itertools.islice(rows, shape[0]):
                with textio.at(where):
                    row = textio.floats(line.split(), shape[1])
                    if not all(map(math.isfinite, row)):
                        raise ValueError(f"tensor {tensor} has a non-finite value")
                values += row
    extra = next(rows, None)
    if extra is not None:
        raise ValueError(f"{extra[0]}: {extra[1]!r} after the last tensor is unknown or repeated")
    net = _zero_net(config)
    net.flat[:] = values
    return net
