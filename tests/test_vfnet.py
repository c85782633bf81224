"""Vector field network tests.

The gradient oracle is central finite differences over every scalar
parameter; the forward oracle is a loop-based reimplementation of the
layer equations, kept deliberately dumb.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from motionflow import sampler, vfnet

RNG = np.random.default_rng

# A checkpoint written before the layout table existed, kept for the benchmark.
KEPT_CHECKPOINT = (Path(__file__).resolve().parents[1]
                   / "perfbench" / "data" / "figure8_checkpoint.txt")

SMALL_CONFIG = vfnet.NetConfig(
    cond_dim=5,
    time_embed_dim=4,
    state_embed_dim=6,
    cond_hidden_dim=8,
    cond_embed_dim=6,
    trunk_widths=(8, 8),
    head_widths=(8, 8),
)


def random_net(rng, config):
    """Fully random parameters, including the final head layers."""
    net = vfnet.init_params(rng, config)
    for _, arr in vfnet._named_arrays(net):
        arr[...] = rng.standard_normal(arr.shape) * 0.4
    return net


def forward_one(net, state, tau, cond):
    """The field at one (state, tau, cond) row, through forward_batch."""
    return vfnet.forward_batch(net, state[None, :], np.array([tau]), cond[None, :])[0]


def backward_one(net, state, tau, cond, upstream):
    """Gradient of <forward_one(...), upstream>, through backward_batch."""
    _, cache = vfnet.forward_batch(net, state[None, :], np.array([tau]),
                                   cond[None, :], keep_cache=True)
    return vfnet.backward_batch(net, cache, upstream[None, :])


def time_features(tau, dim):
    return vfnet._time_features(np.array([tau]), dim)[0]


def naive_forward(net, state_vec, tau, cond_vec):
    """Scalar-loop re-evaluation of the network, used as a forward oracle."""
    cfg = net.config

    def linear(pair, x):
        w, b = pair
        out = np.zeros(w.shape[0])
        for i in range(w.shape[0]):
            acc = b[i]
            for j in range(w.shape[1]):
                acc += w[i, j] * x[j]
            out[i] = acc
        return out

    zt = np.zeros(cfg.time_embed_dim)
    for j in range(cfg.time_embed_dim // 2):
        zt[2 * j] = math.sin((2.0 ** j) * math.pi * tau)
        zt[2 * j + 1] = math.cos((2.0 ** j) * math.pi * tau)
    zs = linear(net.state_embed, state_vec)
    zc = linear(net.cond_embed[1], np.tanh(linear(net.cond_embed[0], cond_vec)))
    h = np.concatenate([zt, zs, zc])
    for pair in net.layers:
        h = np.tanh(linear(pair, h))
    rot = h.copy()
    for pair in net.head_rot[:-1]:
        rot = np.tanh(linear(pair, rot))
    rot = linear(net.head_rot[-1], rot)
    trans = h.copy()
    for pair in net.head_trans[:-1]:
        trans = np.tanh(linear(pair, trans))
    trans = linear(net.head_trans[-1], trans)
    return np.concatenate([rot, trans])


@pytest.mark.parametrize("values", [[], np.zeros((0, 3))], ids=["empty", "empty-2d"])
def test_condition_vector_rejects_empty_values(values):
    # The record takes any array; the net's fold rejects an empty one as a
    # condition of the wrong dim.
    net = vfnet.init_params(RNG(33), SMALL_CONFIG)
    with pytest.raises(ValueError, match="^condition dim 0 does not match network cond_dim 5$"):
        sampler.estimate_sequence(net, [vfnet.ConditionVector(values)], sampler.SolverConfig(),
                                  2, RNG(34))


class TestTimeEmbedding:
    def test_tau_zero(self):
        emb = time_features(0.0, 8)
        assert np.array_equal(emb, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_known_values(self):
        emb = time_features(0.5, 4)
        # sin(pi/2), cos(pi/2), sin(pi), cos(pi)
        want = [1.0, math.cos(math.pi / 2), math.sin(math.pi), -1.0]
        assert np.allclose(emb, want, atol=1e-15)

    def test_injective_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1001)
        embs = {row.tobytes() for row in vfnet._time_features(grid, 16)}
        assert len(embs) == grid.size

    def test_rejects_odd_dim(self):
        with pytest.raises(ValueError, match="even"):
            vfnet.NetConfig(time_embed_dim=7)


class TestConfigAndInit:
    def test_fused_dim(self):
        cfg = vfnet.NetConfig()
        assert cfg.fused_dim == 48
        assert SMALL_CONFIG.fused_dim == 16

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            vfnet.NetConfig(time_embed_dim=7)
        with pytest.raises(ValueError):
            vfnet.NetConfig(cond_dim=0)
        with pytest.raises(ValueError):
            vfnet.NetConfig(trunk_widths=())

    @pytest.mark.parametrize("field, value", [
        ("cond_dim", 4.5), ("time_embed_dim", 4.0), ("state_embed_dim", "16"),
        ("cond_hidden_dim", 16.0), ("cond_embed_dim", 0.5),
        ("trunk_widths", (64.7, 64)), ("head_widths", (32, 32.0)), ("head_widths", ("32",)),
    ])
    def test_non_integer_sizes_raise_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
            vfnet.NetConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("cond_dim", 0), ("cond_embed_dim", -3), ("trunk_widths", (64, 0)),
        ("head_widths", (0,)),
    ])
    def test_sizes_below_one_raise_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            vfnet.NetConfig(**{field: value})

    def test_numpy_integer_sizes_become_ints(self):
        cfg = vfnet.NetConfig(cond_dim=np.int64(4), time_embed_dim=np.int32(8),
                              trunk_widths=np.array([16, 8]), head_widths=(np.int16(4),))
        assert cfg == vfnet.NetConfig(cond_dim=4, time_embed_dim=8, trunk_widths=(16, 8),
                                      head_widths=(4,))
        sizes = [cfg.cond_dim, cfg.time_embed_dim, *cfg.trunk_widths, *cfg.head_widths]
        assert all(type(size) is int for size in sizes)

    def test_parameter_count_matches_closed_form(self):
        cfg = vfnet.NetConfig()
        # linear layer cost: out*in + out
        def lin(o, i):
            return o * i + o

        want = (
            lin(16, 6)                      # state embed
            + lin(16, 16) + lin(16, 16)     # condition MLP
            + lin(64, 48) + lin(64, 64)     # trunk
            + 2 * (lin(32, 64) + lin(32, 32) + lin(3, 32))  # two heads
        )
        assert vfnet.parameter_count(cfg) == want

        assert vfnet.parameter_count(SMALL_CONFIG) == (
            lin(6, 6) + lin(8, 5) + lin(6, 8)
            + lin(8, 16) + lin(8, 8)
            + 2 * (lin(8, 8) + lin(8, 8) + lin(3, 8))
        )

    def test_init_bounds_and_zero_head(self):
        cfg = vfnet.NetConfig()
        net = vfnet.init_params(RNG(0), cfg)
        for name, arr in vfnet._named_arrays(net):
            assert np.all(np.isfinite(arr))
            if name.endswith(".b") or name == "state_embed.b":
                if not name.startswith(("head_rot.2", "head_trans.2")):
                    assert np.array_equal(arr, np.zeros_like(arr))
            if name.startswith(("head_rot.2", "head_trans.2")):
                assert np.array_equal(arr, np.zeros_like(arr))
        bound = math.sqrt(6.0 / 48)
        assert np.max(np.abs(net.layers[0][0])) <= bound

    def test_initial_velocity_is_exactly_zero(self):
        net = vfnet.init_params(RNG(1), vfnet.NetConfig())
        rng = RNG(2)
        out = vfnet.forward_batch(net, rng.standard_normal((10, 6)),
                                  rng.uniform(size=10), rng.standard_normal((10, 16)))
        assert np.array_equal(out, np.zeros((10, 6)))

    def test_init_is_deterministic(self):
        a = vfnet.init_params(RNG(3), SMALL_CONFIG)
        b = vfnet.init_params(RNG(3), SMALL_CONFIG)
        for (_, x), (_, y) in zip(vfnet._named_arrays(a), vfnet._named_arrays(b)):
            assert np.array_equal(x, y)


class TestForward:
    def test_matches_naive_oracle(self):
        rng = RNG(4)
        net = random_net(rng, SMALL_CONFIG)
        for _ in range(10):
            state = rng.standard_normal(6)
            tau = float(rng.uniform())
            cond = rng.standard_normal(5)
            got = forward_one(net, state, tau, cond)
            want = naive_forward(net, state, tau, cond)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_head_output_layout(self):
        # With all weights zero, output equals the final head biases:
        # rotation head owns components 0..2, translation head 3..5.
        net = vfnet._zero_net(SMALL_CONFIG)
        net.head_rot[-1][1][:] = [1.0, 2.0, 3.0]
        net.head_trans[-1][1][:] = [4.0, 5.0, 6.0]
        out = forward_one(net, np.zeros(6), 0.5, np.zeros(5))
        assert np.array_equal(out, [1, 2, 3, 4, 5, 6])

    def test_batch_matches_singles(self):
        rng = RNG(5)
        net = random_net(rng, SMALL_CONFIG)
        states = rng.standard_normal((7, 6))
        taus = rng.uniform(size=7)
        conds = rng.standard_normal((7, 5))
        batch = vfnet.forward_batch(net, states, taus, conds)
        for i in range(7):
            single = forward_one(net, states[i], taus[i], conds[i])
            assert np.max(np.abs(batch[i] - single)) < 1e-12

    def test_rejects_mismatched_condition(self):
        net = vfnet.init_params(RNG(7), SMALL_CONFIG)
        with pytest.raises(ValueError, match="condition dim"):
            forward_one(net, np.zeros(6), 0.5, np.zeros(9))


@pytest.fixture(params=["small", "kept", "default", "one-layer", "no-heads"])
def any_net(request):
    if request.param == "kept":
        return vfnet.load_checkpoint(KEPT_CHECKPOINT)
    config = {"small": SMALL_CONFIG, "default": vfnet.NetConfig(),
              "one-layer": replace(SMALL_CONFIG, trunk_widths=(8,)),
              "no-heads": replace(SMALL_CONFIG, head_widths=())}[request.param]
    return random_net(RNG(30), config)


# Every time an rk4 solve at 5 steps evaluates, spelt as integrate_field does.
SOLVER_TAUS = sorted({i * 0.2 + c for i in range(5) for c in (0.0, 0.1, 0.2)})


class TestSharedInvariants:
    """The net folded under one condition, with a scalar tau, stands in for
    the per-row inputs: velocities agree with the layered path to rounding."""

    # 20000 rows is far above any command's m.
    @pytest.mark.parametrize("rows", [1, 10, 32, 1100, 20000])
    def test_scalar_tau_and_embedding_match_rows(self, any_net, rows):
        rng = RNG(31)
        cfg = any_net.config
        states = rng.standard_normal((rows, 6))
        cond = vfnet.ConditionVector(rng.standard_normal(cfg.cond_dim))
        conds = np.broadcast_to(cond.values, (rows, cfg.cond_dim))
        embedded = vfnet.embed_conditions(any_net, [cond])
        for tau in (0.0, -0.0, 1.0, 0.7381, *SOLVER_TAUS):
            want = vfnet.forward_batch(any_net, states, np.full(rows, tau), conds)
            got = vfnet.forward_batch(any_net, states[None], tau, embedded=embedded)[0]
            assert np.max(np.abs(got - want)) <= 1e-12, tau

    def test_zeroed_final_head_layers_give_zero_velocity(self, any_net):
        for head in (any_net.head_rot, any_net.head_trans):
            for arr in head[-1]:
                arr[...] = 0.0
        rng = RNG(34)
        cond = vfnet.ConditionVector(rng.standard_normal(any_net.config.cond_dim))
        embedded = vfnet.embed_conditions(any_net, [cond])
        for tau in (0.0, 0.5, 1.0):
            got = vfnet.forward_batch(any_net, rng.standard_normal((1, 32, 6)), tau,
                                      embedded=embedded)
            assert got.shape == (1, 32, 6) and not got.any()

    @pytest.mark.parametrize("m", [1, 10])
    def test_stacked_fold_keeps_each_conditions_bits(self, any_net, m):
        # The matmuls of a stack run one gemm per condition, so a
        # condition's velocities do not depend on the others in its stack.
        rng = RNG(35)
        conds = [vfnet.ConditionVector(rng.standard_normal(any_net.config.cond_dim))
                 for _ in range(5)]
        states = rng.standard_normal((5, m, 6))
        fold = vfnet.embed_conditions(any_net, conds)
        assert fold.bias.shape == (5, 1, any_net.config.trunk_widths[0])
        for tau in (0.0, 0.3, 1.0):
            got = vfnet.forward_batch(any_net, states, tau, embedded=fold)
            for i, cond in enumerate(conds):
                alone = vfnet.forward_batch(any_net, states[i:i + 1], tau,
                                            embedded=vfnet.embed_conditions(any_net, [cond]))
                assert np.array_equal(got[i], alone[0])

    def test_embedding_refuses_backward_and_raw_conds(self):
        net = random_net(RNG(32), SMALL_CONFIG)
        embedded = vfnet.embed_conditions(net, [vfnet.ConditionVector(np.ones(5))])
        arrays = [*embedded[:3], *(a for layer in embedded.layers for a in layer)]
        assert not any(a.flags.writeable for a in arrays)
        assert all(a.flags.writeable for _, a in vfnet._named_arrays(net))
        with pytest.raises(ValueError, match="backward_batch"):
            vfnet.forward_batch(net, np.zeros((2, 6)), 0.5, keep_cache=True,
                                embedded=embedded)
        with pytest.raises(ValueError, match="conds alone"):
            vfnet.forward_batch(net, np.zeros((2, 6)), 0.5, np.ones((2, 5)),
                                embedded=embedded)

    @pytest.mark.parametrize("n", [1, 2, 7, 200])
    def test_fold_bias_rows_equal_one_condition_folds(self, any_net, n):
        # The condition branch runs once over the stacked conditions, and
        # each bias row keeps the bits of a fold under its condition alone.
        rng = RNG(36)
        conds = [vfnet.ConditionVector(rng.standard_normal(any_net.config.cond_dim) * scale)
                 for scale in np.geomspace(1e-2, 1e2, n)]
        bias = vfnet.embed_conditions(any_net, conds).bias
        alone = [vfnet.embed_conditions(any_net, [cond]).bias for cond in conds]
        assert bias.shape == (n, 1, any_net.config.trunk_widths[0])
        assert np.array_equal(bias, np.concatenate(alone))

    def test_empty_fold_has_no_bias_rows(self):
        net = random_net(RNG(37), SMALL_CONFIG)
        fold = vfnet.embed_conditions(net, [])
        assert fold.bias.shape == (0, 1, SMALL_CONFIG.trunk_widths[0])
        assert not fold.bias.flags.writeable
        assert vfnet.forward_batch(net, np.zeros((0, 3, 6)), 0.5,
                                   embedded=fold).shape == (0, 3, 6)

    def test_embedding_rejects_mismatched_condition(self):
        # The first condition whose dim is not the net's is named, also
        # in a list that mixes dims, which would not stack.
        net = vfnet.init_params(RNG(33), SMALL_CONFIG)
        with pytest.raises(ValueError, match="condition dim 9 does not match"):
            vfnet.embed_conditions(net, [vfnet.ConditionVector(np.zeros(9))])
        conds = [vfnet.ConditionVector(np.zeros(dim)) for dim in (5, 9, 5, 7)]
        with pytest.raises(ValueError) as err:
            vfnet.embed_conditions(net, conds)
        assert str(err.value) == "condition dim 9 does not match network cond_dim 5"

    def test_time_feature_cache_is_read_only_and_bounded(self):
        cache = vfnet._shared_time_features
        bound = cache.cache_info().maxsize
        for tau in np.linspace(0.0, 1.0, 1000):
            features = cache(float(tau), 4)
            assert not features.flags.writeable
            assert cache.cache_info().currsize <= bound
        for tau in (1.0, 0.0):
            assert (cache(tau, 4).tobytes()
                    == vfnet._time_features(np.array([tau]), 4)[0].tobytes())


class TestBackward:
    def test_finite_difference_oracle(self):
        """Analytic gradients vs central differences, 20 random tuples."""
        rng = RNG(9)
        net = random_net(rng, SMALL_CONFIG)
        h = 1e-5
        worst = 0.0
        for _ in range(20):
            state = rng.standard_normal(6)
            tau = float(rng.uniform())
            cond = rng.standard_normal(5)
            upstream = rng.standard_normal(6)
            grads = backward_one(net, state, tau, cond, upstream)
            for (_, param), (_, grad) in zip(
                vfnet._named_arrays(net), vfnet._named_arrays(grads)
            ):
                flat_p = param.reshape(-1)
                flat_g = grad.reshape(-1)
                for idx in range(flat_p.size):
                    orig = flat_p[idx]
                    flat_p[idx] = orig + h
                    up = float(forward_one(net, state, tau, cond) @ upstream)
                    flat_p[idx] = orig - h
                    down = float(forward_one(net, state, tau, cond) @ upstream)
                    flat_p[idx] = orig
                    fd = (up - down) / (2.0 * h)
                    rel = abs(flat_g[idx] - fd) / max(abs(flat_g[idx]), abs(fd), 1e-8)
                    worst = max(worst, rel)
        assert worst < 1e-4

    def test_batch_gradient_is_sum_of_singles(self):
        rng = RNG(10)
        net = random_net(rng, SMALL_CONFIG)
        states = rng.standard_normal((4, 6))
        taus = rng.uniform(size=4)
        conds = rng.standard_normal((4, 5))
        ups = rng.standard_normal((4, 6))
        _, cache = vfnet.forward_batch(net, states, taus, conds, keep_cache=True)
        batch_grads = vfnet.backward_batch(net, cache, ups)
        total = vfnet.zero_gradients(net)
        for i in range(4):
            single = backward_one(net, states[i], taus[i], conds[i], ups[i])
            for (_, acc), (_, g) in zip(vfnet._named_arrays(total),
                                        vfnet._named_arrays(single)):
                acc += g
        for (_, a), (_, b) in zip(vfnet._named_arrays(total),
                                  vfnet._named_arrays(batch_grads)):
            assert np.max(np.abs(a - b)) < 1e-10


def assert_views_of_flat(tree):
    """Every array of the tree is a contiguous view into tree.flat, laid out
    back to back in _named_arrays order, and the tree's own fields hold the
    arrays at those offsets."""
    base = tree.flat.__array_interface__["data"][0]
    pairs = [tree.state_embed, *tree.cond_embed, *tree.layers, *tree.head_rot,
             *tree.head_trans]
    own = [arr for pair in pairs for arr in pair]
    named = list(vfnet._named_arrays(tree))
    assert len(own) == len(named)
    offset = 0
    for (name, arr), field_arr in zip(named, own):
        for a in (arr, field_arr):
            assert a.flags.c_contiguous and np.shares_memory(a, tree.flat), name
            start = (a.__array_interface__["data"][0] - base) // tree.flat.itemsize
            assert start == offset and a.shape == arr.shape, name
        offset += arr.size
    assert offset == tree.flat.size


class TestFlatBuffer:
    def test_parameters_are_views_in_traversal_order(self):
        net = vfnet.init_params(RNG(16), SMALL_CONFIG)
        assert net.flat.shape == (vfnet.parameter_count(SMALL_CONFIG),)
        assert_views_of_flat(net)
        arrays = list(vfnet._named_arrays(net))
        names = [name for name, _ in arrays]
        start = sum(a.size for _, a in arrays[:names.index("trunk.0.w")])
        net.flat[start + 5] = 123.5
        assert net.layers[0][0].reshape(-1)[5] == 123.5
        net.head_trans[-1][1][2] = -7.25
        assert net.flat[-1] == -7.25

    def test_gradients_are_views_in_traversal_order(self):
        rng = RNG(17)
        net = random_net(rng, SMALL_CONFIG)
        assert_views_of_flat(vfnet.zero_gradients(net))
        _, cache = vfnet.forward_batch(net, rng.standard_normal((3, 6)), rng.uniform(size=3),
                                       rng.standard_normal((3, 5)), keep_cache=True)
        grads = vfnet.backward_batch(net, cache, rng.standard_normal((3, 6)))
        assert_views_of_flat(grads)
        assert np.array_equal(grads.flat, np.concatenate(
            [g.reshape(-1) for _, g in vfnet._named_arrays(grads)]))

    @pytest.mark.parametrize("head_widths", [(8, 8), (5,), ()])
    def test_stacked_heads_view_both_heads(self, head_widths):
        net = random_net(RNG(19), replace(SMALL_CONFIG, head_widths=head_widths))
        assert len(net.heads) == len(net.head_rot) == len(head_widths) + 1
        for stacked, rot, trans in zip(net.heads, net.head_rot, net.head_trans):
            for both, r, t in zip(stacked, rot, trans):
                assert both.shape == (2,) + r.shape and np.shares_memory(both, net.flat)
                assert np.array_equal(both[0], r) and np.array_equal(both[1], t)
        net.heads[-1][1][1, 2] = -7.25
        assert net.head_trans[-1][1][2] == net.flat[-1] == -7.25

    def test_backward_without_a_buffer_returns_fresh_trees(self):
        rng = RNG(20)
        net = random_net(rng, SMALL_CONFIG)
        _, cache = vfnet.forward_batch(net, rng.standard_normal((3, 6)), rng.uniform(size=3),
                                       rng.standard_normal((3, 5)), keep_cache=True)
        upstream = rng.standard_normal((3, 6))
        first = vfnet.backward_batch(net, cache, upstream)
        second = vfnet.backward_batch(net, cache, upstream)
        assert not np.shares_memory(first.flat, second.flat)
        assert not np.shares_memory(first.flat, net.flat)
        assert np.array_equal(first.flat, second.flat)

    def test_backward_overwrites_the_buffer_it_is_given(self):
        rng = RNG(21)
        net = random_net(rng, SMALL_CONFIG)
        _, cache = vfnet.forward_batch(net, rng.standard_normal((3, 6)), rng.uniform(size=3),
                                       rng.standard_normal((3, 5)), keep_cache=True)
        upstream = rng.standard_normal((3, 6))
        grads = vfnet.zero_gradients(net)
        grads.flat[:] = np.nan
        assert vfnet.backward_batch(net, cache, upstream, grads) is grads
        assert np.array_equal(grads.flat, vfnet.backward_batch(net, cache, upstream).flat)


class TestCheckpoint:
    def test_round_trip_is_value_exact(self, tmp_path):
        rng = RNG(11)
        net = random_net(rng, SMALL_CONFIG)
        path = tmp_path / "ckpt.txt"
        vfnet.save_checkpoint(path, net)
        loaded = vfnet.load_checkpoint(path)
        assert loaded.config == net.config
        for (na, a), (nb, b) in zip(vfnet._named_arrays(net),
                                    vfnet._named_arrays(loaded)):
            assert na == nb
            assert np.array_equal(a, b), na

    def test_kept_checkpoint_round_trips_byte_for_byte(self, tmp_path):
        """The layout table reads and rewrites a file an earlier layout wrote."""
        net = vfnet.load_checkpoint(KEPT_CHECKPOINT)
        assert_views_of_flat(net)
        vfnet.save_checkpoint(tmp_path / "again.txt", net)
        assert (tmp_path / "again.txt").read_bytes() == KEPT_CHECKPOINT.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        net = random_net(RNG(12), SMALL_CONFIG)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        vfnet.save_checkpoint(p1, net)
        vfnet.save_checkpoint(p2, net)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        vfnet.save_checkpoint(p1, random_net(RNG(19), SMALL_CONFIG))
        loaded = vfnet.load_checkpoint(p1)
        assert_views_of_flat(loaded)
        vfnet.save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_cells(self, tmp_path, cell):
        path = tmp_path / "ckpt.txt"
        vfnet.save_checkpoint(path, random_net(RNG(20), SMALL_CONFIG))
        lines = path.read_text().splitlines()
        row = lines.index("tensor state_embed.b 1 6") + 1
        lines[row] = " ".join(lines[row].split()[:3] + [cell] + lines[row].split()[4:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError,
                           match=rf"ckpt\.txt:{row + 1}: tensor state_embed\.b .*non-finite"):
            vfnet.load_checkpoint(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            vfnet.load_checkpoint(path)

    def test_rejects_missing_tensor(self, tmp_path):
        net = random_net(RNG(13), SMALL_CONFIG)
        path = tmp_path / "ckpt.txt"
        vfnet.save_checkpoint(path, net)
        lines = path.read_text().splitlines()
        cut = next(i for i, l in enumerate(lines) if l.startswith("tensor head_trans"))
        path.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(ValueError, match="missing"):
            vfnet.load_checkpoint(path)

    def test_rejects_repeated_tensor(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        vfnet.save_checkpoint(path, random_net(RNG(16), SMALL_CONFIG))
        lines = path.read_text().splitlines()
        start = lines.index("tensor state_embed.b 1 6")
        path.write_text("\n".join(lines + lines[start:start + 2]) + "\n")
        with pytest.raises(ValueError,
                           match=rf"ckpt\.txt:{len(lines) + 1}: .*state_embed\.b.*repeated"):
            vfnet.load_checkpoint(path)

    def test_rejects_out_of_order_tensor(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        vfnet.save_checkpoint(path, random_net(RNG(21), SMALL_CONFIG))
        lines = path.read_text().splitlines()
        w = lines.index("tensor cond_embed.0.w 8 5")
        b = lines.index("tensor cond_embed.0.b 1 8")
        swapped = lines[:w] + lines[b:b + 2] + lines[w:b] + lines[b + 2:]
        path.write_text("\n".join(swapped) + "\n")
        with pytest.raises(ValueError, match=rf"ckpt\.txt:{w + 1}: expected tensor "
                                             r"cond_embed\.0\.w, got 'tensor cond_embed\.0\.b"):
            vfnet.load_checkpoint(path)

    def test_rejects_header_sizes_before_allocating(self, tmp_path):
        """Sizes no file of this length can fill are refused, not allocated."""
        path = tmp_path / "ckpt.txt"
        vfnet.save_checkpoint(path, random_net(RNG(23), SMALL_CONFIG))
        text = path.read_text()
        for key, value, match in (
                ("cond_dim", 5, r"cond_embed\.0\.w has shape \(8, 5\), expected \(8, 10+\)"),
                ("cond_hidden_dim", 8, r"ckpt\.txt: .* tensor lines missing")):
            path.write_text(text.replace(f"{key}={value}\n", f"{key}={10 ** 15}\n", 1))
            with pytest.raises(ValueError, match=match):
                vfnet.load_checkpoint(path)

    def test_rejects_repeated_header_key(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        vfnet.save_checkpoint(path, random_net(RNG(24), SMALL_CONFIG))
        text = path.read_text()
        for repeat in ("cond_dim=5", "cond_dim=7"):  # an equal and a conflicting repeat
            path.write_text(text.replace("cond_dim=5\n", f"cond_dim=5\n{repeat}\n", 1))
            with pytest.raises(ValueError, match=r"ckpt\.txt:3: key 'cond_dim' repeated"):
                vfnet.load_checkpoint(path)

    def test_rejects_shape_mismatch(self, tmp_path):
        net = random_net(RNG(14), SMALL_CONFIG)
        path = tmp_path / "ckpt.txt"
        vfnet.save_checkpoint(path, net)
        text = path.read_text().replace("tensor state_embed.w 6 6",
                                        "tensor state_embed.w 6 5")
        path.write_text(text)
        with pytest.raises(ValueError):
            vfnet.load_checkpoint(path)

    def test_bad_cells_report_line(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        vfnet.save_checkpoint(path, random_net(RNG(15), SMALL_CONFIG))
        lines = path.read_text().splitlines()
        shape = lines.index("tensor state_embed.w 6 6")
        first_row = lines[shape + 1].split()
        for index, text, cell in (
                (1, "cond_dim=five", "five"),
                (shape, "tensor state_embed.w x 6", "x"),
                (shape, "tensor state_embed.u 6 6", "tensor state_embed.u 6 6"),
                (shape + 1, " ".join(["zero"] + first_row[1:]), "zero")):
            bad = list(lines)
            bad[index] = text
            path.write_text("\n".join(bad) + "\n")
            with pytest.raises(ValueError, match=rf"ckpt\.txt:{index + 1}: .*'{cell}'"):
                vfnet.load_checkpoint(path)
