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
computed by hand (reverse mode).  Everything is deterministic given the
initializing Generator.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, fields

import numpy as np


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
        object.__setattr__(self, "trunk_widths", tuple(int(w) for w in self.trunk_widths))
        object.__setattr__(self, "head_widths", tuple(int(w) for w in self.head_widths))
        for name in ("cond_dim", "time_embed_dim", "state_embed_dim",
                     "cond_hidden_dim", "cond_embed_dim"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.time_embed_dim % 2 != 0:
            raise ValueError("time_embed_dim must be even (sin/cos pairs)")
        if len(self.trunk_widths) < 1 or any(w < 1 for w in self.trunk_widths):
            raise ValueError("trunk_widths must be a nonempty tuple of positive ints")
        if any(w < 1 for w in self.head_widths):
            raise ValueError("head_widths must contain positive ints")

    @property
    def fused_dim(self) -> int:
        return self.time_embed_dim + self.state_embed_dim + self.cond_embed_dim


@dataclass(frozen=True, eq=False)
class ConditionVector:
    """Guidance feature vector the velocity field is conditioned on."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64).reshape(-1)
        if arr.size < 1:
            raise ValueError("condition vector must be nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("condition vector contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass
class VectorFieldNet:
    """Parameter container.  Layers are (weight, bias) pairs, weight (out, in).

    Every weight and bias is a view into flat, one float64 buffer of
    parameter_count(config) entries in _named_arrays order, so the
    optimizer updates all parameters with a few vector operations.
    """

    config: NetConfig
    state_embed: list  # [W, b]
    cond_embed: list   # [[W, b], [W, b]]
    layers: list       # trunk: [[W, b], ...]
    head_rot: list     # [[W, b], ..., final linear]
    head_trans: list
    flat: np.ndarray


@dataclass
class Gradients:
    """Same tree shape as VectorFieldNet's parameters, also views into flat."""

    state_embed: list
    cond_embed: list
    layers: list
    head_rot: list
    head_trans: list
    flat: np.ndarray


def _named_arrays(tree):
    """Flat iteration over (name, array) in a fixed traversal order.

    Works on both VectorFieldNet and Gradients; the order defines the
    checkpoint layout and the arrays' places in the flat buffer.
    """
    yield "state_embed.w", tree.state_embed[0]
    yield "state_embed.b", tree.state_embed[1]
    for i, (w, b) in enumerate(tree.cond_embed):
        yield f"cond_embed.{i}.w", w
        yield f"cond_embed.{i}.b", b
    for i, (w, b) in enumerate(tree.layers):
        yield f"trunk.{i}.w", w
        yield f"trunk.{i}.b", b
    for name, head in (("head_rot", tree.head_rot), ("head_trans", tree.head_trans)):
        for i, (w, b) in enumerate(head):
            yield f"{name}.{i}.w", w
            yield f"{name}.{i}.b", b


def parameter_count(config: NetConfig) -> int:
    return _layout(config)[1]


def _layer_shapes(config: NetConfig):
    """(name, out_dim, in_dim) for every linear layer, traversal order."""
    c = config
    shapes = [("state_embed", c.state_embed_dim, c.STATE_DIM)]
    shapes.append(("cond_embed.0", c.cond_hidden_dim, c.cond_dim))
    shapes.append(("cond_embed.1", c.cond_embed_dim, c.cond_hidden_dim))
    prev = c.fused_dim
    for i, w in enumerate(c.trunk_widths):
        shapes.append((f"trunk.{i}", w, prev))
        prev = w
    for head in ("head_rot", "head_trans"):
        h_prev = prev
        for i, w in enumerate(c.head_widths):
            shapes.append((f"{head}.{i}", w, h_prev))
            h_prev = w
        shapes.append((f"{head}.{len(c.head_widths)}", c.OUT_DIM, h_prev))
    return shapes


@functools.lru_cache(maxsize=16)
def _layout(config: NetConfig):
    """Where each layer lives in the flat buffer, in _named_arrays order:
    ((tree field, weight start, bias start, bias end, weight shape), ...)
    and the buffer size."""
    spans = []
    offset = 0
    for name, out_dim, in_dim in _layer_shapes(config):
        group = name.split(".")[0]
        bias = offset + out_dim * in_dim
        spans.append(("layers" if group == "trunk" else group, offset, bias,
                      bias + out_dim, (out_dim, in_dim)))
        offset = bias + out_dim
    return tuple(spans), offset


def _build_tree(config: NetConfig) -> dict:
    """Tree fields over one zeroed buffer: "flat" holds parameter_count
    entries, and each layer's [weight, bias] pair is a view into it."""
    spans, size = _layout(config)
    flat = np.zeros(size)
    tree = {"state_embed": None, "cond_embed": [], "layers": [], "head_rot": [],
            "head_trans": [], "flat": flat}
    for group, start, bias, end, shape in spans:
        pair = [flat[start:bias].reshape(shape), flat[bias:end]]
        if group == "state_embed":
            tree[group] = pair
        else:
            tree[group].append(pair)
    return tree


def _zero_net(config: NetConfig) -> VectorFieldNet:
    return VectorFieldNet(config, **_build_tree(config))


def zero_gradients(net: VectorFieldNet) -> Gradients:
    return Gradients(**_build_tree(net.config))


def init_params(rng: np.random.Generator, config: NetConfig = None) -> VectorFieldNet:
    """He-style uniform fan-in init; final head layers start at exact zero.

    Weights ~ U(-sqrt(6/fan_in), +sqrt(6/fan_in)), biases zero.  Zeroing the
    last layer of both heads makes the initial velocity field identically
    zero, so untrained sampling returns the reference draw unchanged.
    """
    config = config if config is not None else NetConfig()
    final = {f"head_rot.{len(config.head_widths)}", f"head_trans.{len(config.head_widths)}"}
    net = _zero_net(config)
    arrays = dict(_named_arrays(net))
    for name, out_dim, in_dim in _layer_shapes(config):
        if name not in final:
            bound = math.sqrt(6.0 / in_dim)
            arrays[f"{name}.w"][...] = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    return net


def _time_features(taus: np.ndarray, dim: int) -> np.ndarray:
    """(B,) times -> (B, dim) features [sin(2^j pi tau), cos(2^j pi tau)],
    j = 0..dim/2-1; no parameters involved."""
    freqs = math.pi * (2.0 ** np.arange(dim // 2))
    angles = taus[:, None] * freqs[None, :]
    out = np.empty((taus.size, dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def forward_batch(net: VectorFieldNet, states: np.ndarray, taus: np.ndarray,
                  conds: np.ndarray, keep_cache: bool = False):
    """Batched field evaluation: (B,6), (B,), (B,k) -> (B,6) velocities.

    With keep_cache=True also returns the intermediate activations needed
    by backward_batch.
    """
    cfg = net.config
    if conds.shape[1] != cfg.cond_dim:
        raise ValueError(
            f"condition dim {conds.shape[1]} does not match network cond_dim "
            f"{cfg.cond_dim}"
        )
    zt = _time_features(taus, cfg.time_embed_dim)
    ws, bs = net.state_embed
    zs = states @ ws.T + bs
    (w1, b1), (w2, b2) = net.cond_embed
    c_hidden = np.tanh(conds @ w1.T + b1)
    zc = c_hidden @ w2.T + b2
    fused = np.concatenate([zt, zs, zc], axis=1)

    trunk_acts = [fused]
    h = fused
    for w, b in net.layers:
        h = np.tanh(h @ w.T + b)
        trunk_acts.append(h)

    def run_head(head_layers, h_in):
        acts = [h_in]
        for w, b in head_layers[:-1]:
            acts.append(np.tanh(acts[-1] @ w.T + b))
        w, b = head_layers[-1]
        return acts[-1] @ w.T + b, acts

    rot, rot_acts = run_head(net.head_rot, h)
    trans, trans_acts = run_head(net.head_trans, h)
    out = np.concatenate([rot, trans], axis=1)
    if not keep_cache:
        return out
    cache = (states, conds, c_hidden, trunk_acts, rot_acts, trans_acts)
    return out, cache


def _linear_grads(pair, d_pre: np.ndarray, x: np.ndarray) -> None:
    """Write one linear layer's weight and bias gradients into pair, given
    the gradient d_pre at its output and its input x."""
    np.matmul(d_pre.T, x, out=pair[0])
    np.sum(d_pre, axis=0, out=pair[1])


def backward_batch(net: VectorFieldNet, cache, upstream: np.ndarray) -> Gradients:
    """Exact reverse-mode gradients of sum_b <forward_b, upstream_b>.

    cache comes from forward_batch(..., keep_cache=True); upstream is (B, 6).
    The gradients are written into the views of one fresh flat buffer.
    """
    states, conds, c_hidden, trunk_acts, rot_acts, trans_acts = cache
    cfg = net.config
    grads = zero_gradients(net)

    def head_backward(head_layers, head_grads, acts, d_out):
        _linear_grads(head_grads[-1], d_out, acts[-1])
        d = d_out @ head_layers[-1][0]
        for idx in range(len(head_layers) - 2, -1, -1):
            d_pre = d * (1.0 - acts[idx + 1] ** 2)
            _linear_grads(head_grads[idx], d_pre, acts[idx])
            d = d_pre @ head_layers[idx][0]
        return d

    d_rot = head_backward(net.head_rot, grads.head_rot, rot_acts, upstream[:, :3])
    d_trans = head_backward(net.head_trans, grads.head_trans, trans_acts, upstream[:, 3:])

    d = d_rot + d_trans
    for idx in range(len(net.layers) - 1, -1, -1):
        d_pre = d * (1.0 - trunk_acts[idx + 1] ** 2)
        _linear_grads(grads.layers[idx], d_pre, trunk_acts[idx])
        d = d_pre @ net.layers[idx][0]

    # Split the fused-input gradient back into the three branches.
    t_dim, s_dim = cfg.time_embed_dim, cfg.state_embed_dim
    d_state = d[:, t_dim:t_dim + s_dim]
    d_cond = d[:, t_dim + s_dim:]
    _linear_grads(grads.state_embed, d_state, states)

    w2 = net.cond_embed[1][0]
    _linear_grads(grads.cond_embed[1], d_cond, c_hidden)
    d_hidden_pre = (d_cond @ w2) * (1.0 - c_hidden ** 2)
    _linear_grads(grads.cond_embed[0], d_hidden_pre, conds)
    return grads


# --- checkpoint format -------------------------------------------------------
#
# Plain text, self-describing.  Header lines are key=value (one per config
# field); each tensor then appears as
#     tensor <name> <rows> <cols>
# followed by <rows> lines of <cols> decimal floats.  Vectors use rows=1.
# Floats print with %.17g, which round-trips float64 exactly.

CHECKPOINT_MAGIC = "# motionflow vector field checkpoint v1"


def _format_float(x: float) -> str:
    return "%.17g" % x


def save_checkpoint(path, net: VectorFieldNet) -> None:
    cfg = net.config
    buf = io.StringIO()
    buf.write(CHECKPOINT_MAGIC + "\n")
    for f in fields(NetConfig):
        value = getattr(cfg, f.name)
        text = ",".join(str(w) for w in value) if isinstance(value, tuple) else str(value)
        buf.write(f"{f.name}={text}\n")
    for name, arr in _named_arrays(net):
        mat = arr if arr.ndim == 2 else arr[None, :]
        buf.write(f"tensor {name} {mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            buf.write(" ".join(_format_float(x) for x in row) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> VectorFieldNet:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a vector field checkpoint")
    header = {}
    pos = 1
    while pos < len(lines) and not lines[pos].startswith("tensor "):
        line = lines[pos].strip()
        pos += 1
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{pos}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        header[key.strip()] = (value.strip(), pos)
    sizes = {}
    for f in fields(NetConfig):
        if f.name not in header:
            raise ValueError(f"{path}: missing header field {f.name!r}")
        value, lineno = header[f.name]
        try:
            sizes[f.name] = (tuple(int(w) for w in value.split(","))
                              if f.name.endswith("_widths") else int(value))
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {f.name}: {err}") from err
    net = _zero_net(NetConfig(**sizes))
    expected = dict(_named_arrays(net))
    seen = set()
    while pos < len(lines):
        line = lines[pos].strip()
        pos += 1
        if not line:
            continue
        parts = line.split()
        if parts[0] != "tensor" or len(parts) != 4:
            raise ValueError(f"{path}:{pos}: expected tensor header, got {line!r}")
        name = parts[1]
        try:
            rows, cols = int(parts[2]), int(parts[3])
        except ValueError as err:
            raise ValueError(f"{path}:{pos}: tensor {name} shape: {err}") from err
        if name not in expected:
            raise ValueError(f"{path}:{pos}: unknown tensor {name!r}")
        target = expected[name]
        mat = target if target.ndim == 2 else target[None, :]
        if mat.shape != (rows, cols):
            raise ValueError(
                f"{path}:{pos}: tensor {name} has shape {(rows, cols)}, "
                f"expected {mat.shape}"
            )
        for r in range(rows):
            if pos >= len(lines):
                raise ValueError(f"{path}: truncated tensor {name}")
            try:
                row = np.array(lines[pos].split(), dtype=np.float64)
            except ValueError as err:
                raise ValueError(f"{path}:{pos + 1}: {err}") from err
            pos += 1
            if row.size != cols:
                raise ValueError(f"{path}:{pos}: row has {row.size} values, expected {cols}")
            if not np.all(np.isfinite(row)):
                raise ValueError(f"{path}:{pos}: tensor {name} has a non-finite value")
            mat[r, :] = row
        seen.add(name)
    missing = set(expected) - seen
    if missing:
        raise ValueError(f"{path}: missing tensors: {sorted(missing)}")
    return net
