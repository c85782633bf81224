"""Training loop tests.

The loss and its gradient are checked against a per-sample forward
oracle and central finite differences.  The optimizer is pinned by the
closed-form behavior of its first update and the constant-gradient
steady state.  Convergence on a single repeated motion uses the shared
session fixture and a floor bound frozen from dedicated probe runs.
"""

import math

import numpy as np
import pytest

from motionflow import flowmatch, se3, vfnet

RNG = np.random.default_rng

SMALL_CONFIG = vfnet.NetConfig(
    cond_dim=5,
    time_embed_dim=4,
    state_embed_dim=6,
    cond_hidden_dim=8,
    cond_embed_dim=6,
    trunk_widths=(8, 8),
    head_widths=(8, 8),
)

# Settled-loss over first-loss bound for the single-motion run.  The
# pinned tanh network cannot drive the conditional-OT residual to zero
# near tau = 1, so the loss has a floor; probe runs across schedules,
# widths, and batch sizes put the ratio near 1.1e-2, and 2e-2 gives slack
# without letting a broken pipeline through (an untrained or misrouted
# network stays near 1.0).
DIRAC_RATIO_BOUND = 2e-2


def random_pair(rng, cond_dim=5):
    rho = rng.uniform(-0.5, 0.5, 3)
    trans = rng.uniform(-0.5, 0.5, 3)
    cond = vfnet.ConditionVector(rng.standard_normal(cond_dim))
    return flowmatch.TrainingPair(se3.MotionState(rho, trans), cond)


def random_batch(rng, net_cfg, size):
    """Path points for random pairs, as the arrays cfm_loss takes:
    (states, taus, conds, target velocities)."""
    pairs = [random_pair(rng, net_cfg.cond_dim) for _ in range(size)]
    taus = rng.uniform(size=size)
    x0 = se3.sample_initial_batch(rng, size)
    x1 = np.stack([p.target.as_vector() for p in pairs])
    states, targets = flowmatch.path_point(x0, x1, taus)
    return states, taus, np.stack([p.cond.values for p in pairs]), targets


class TestTrainingPair:
    def test_rejects_rho_outside_principal_ball(self):
        cond = vfnet.ConditionVector(np.zeros(4))
        with pytest.raises(ValueError):
            flowmatch.TrainingPair(
                se3.MotionState([math.pi + 0.01, 0, 0], [0, 0, 0]), cond)

    def test_rejects_wrong_types(self):
        with pytest.raises(TypeError):
            flowmatch.TrainingPair(np.zeros(6),
                                   vfnet.ConditionVector(np.zeros(4)))
        with pytest.raises(TypeError):
            flowmatch.TrainingPair(se3.MotionState([0, 0, 0], [0, 0, 0]),
                                   np.zeros(4))


class TestSamplePath:
    """Path points and velocities as train places them: reference rows x0
    from se3.sample_initial_batch, target rows x1."""

    def test_endpoints(self):
        rng = RNG(1)
        x0 = se3.sample_initial_batch(rng, 8)
        x1 = rng.uniform(-0.5, 0.5, (8, 6))
        at0, _ = flowmatch.path_point(x0, x1, np.zeros(8))
        at1, _ = flowmatch.path_point(x0, x1, np.ones(8))
        assert np.array_equal(at0, x0)
        assert np.array_equal(at1, x1)

    def test_linear_interpolation_invariant(self):
        rng = RNG(2)
        taus = np.array([0.1, 0.25, 0.5, 0.9])
        x0 = se3.sample_initial_batch(rng, 4)
        x1 = rng.uniform(-0.5, 0.5, (4, 6))
        x_tau, _ = flowmatch.path_point(x0, x1, taus)
        # x_tau - x0 = tau (x1 - x0): the point lies on the segment at tau.
        want = taus[:, None] * (x1 - x0)
        assert np.max(np.abs((x_tau - x0) - want)) < 1e-12

    def test_target_velocity_is_displacement(self):
        rng = RNG(3)
        x0 = se3.sample_initial_batch(rng, 20)
        x1 = rng.uniform(-0.5, 0.5, (20, 6))
        _, velocity = flowmatch.path_point(x0, x1, rng.uniform(size=20))
        assert np.array_equal(velocity, x1 - x0)

    def test_reference_endpoint_statistics(self):
        # E[x1 - x0] = x1 because both the translation reference and the
        # rotation-vector image of uniform rotations have zero mean.
        rng = RNG(5)
        target = random_pair(rng).target.as_vector()
        n = 40_000
        x0 = se3.sample_initial_batch(rng, n)
        _, velocity = flowmatch.path_point(x0, np.tile(target, (n, 1)),
                                           rng.uniform(size=n))
        assert np.max(np.abs(velocity.mean(axis=0) - target)) < 0.04


class TestCfmLoss:
    def test_empty_batch_rejected(self):
        net = vfnet.init_params(RNG(7), SMALL_CONFIG)
        with pytest.raises(ValueError):
            flowmatch.cfm_loss(net, np.empty((0, 6)), np.empty(0),
                               np.empty((0, 5)), np.empty((0, 6)))

    def test_zero_initialized_net_loss_is_target_power(self):
        # Final head layers start at zero, so the field is identically
        # zero and the loss must equal the mean target power.
        rng = RNG(8)
        net = vfnet.init_params(rng, SMALL_CONFIG)
        batch = random_batch(rng, SMALL_CONFIG, 16)
        loss, _ = flowmatch.cfm_loss(net, *batch)
        want = float(np.mean(np.sum(batch[3] ** 2, axis=1)))
        assert abs(loss - want) < 1e-12 * max(1.0, want)

    def test_matches_per_sample_forward_oracle(self):
        rng = RNG(9)
        net = vfnet.init_params(rng, SMALL_CONFIG)
        # Give the heads nonzero weights so the network output matters.
        net.head_rot[-1][0][:] = rng.standard_normal(net.head_rot[-1][0].shape)
        net.head_trans[-1][0][:] = rng.standard_normal(net.head_trans[-1][0].shape)
        states, taus, conds, targets = random_batch(rng, SMALL_CONFIG, 12)
        loss, _ = flowmatch.cfm_loss(net, states, taus, conds, targets)
        acc = 0.0
        for i in range(len(states)):
            out = vfnet.forward_batch(net, states[i:i + 1], taus[i:i + 1],
                                      conds[i:i + 1])[0]
            acc += float(np.sum((out - targets[i]) ** 2))
        want = acc / len(states)
        assert abs(loss - want) < 1e-9 * max(1.0, abs(want))

    def test_gradient_matches_finite_differences(self):
        rng = RNG(11)
        net = vfnet.init_params(rng, SMALL_CONFIG)
        net.head_rot[-1][0][:] = rng.standard_normal(net.head_rot[-1][0].shape) * 0.3
        net.head_trans[-1][0][:] = rng.standard_normal(net.head_trans[-1][0].shape) * 0.3
        batch = random_batch(rng, SMALL_CONFIG, 6)
        _, grads = flowmatch.cfm_loss(net, *batch)

        arrays = dict(vfnet._named_arrays(net))
        grad_arrays = dict(vfnet._named_arrays(grads))
        h = 1e-5
        worst = 0.0
        for name, arr in arrays.items():
            flat = arr.reshape(-1)
            for k in rng.choice(flat.size, size=min(3, flat.size),
                                replace=False):
                orig = flat[k]
                flat[k] = orig + h
                up, _ = flowmatch.cfm_loss(net, *batch)
                flat[k] = orig - h
                dn, _ = flowmatch.cfm_loss(net, *batch)
                flat[k] = orig
                fd = (up - dn) / (2 * h)
                an = grad_arrays[name].reshape(-1)[k]
                worst = max(worst,
                            abs(an - fd) / max(abs(an), abs(fd), 1e-8))
        assert worst < 1e-4


class TestAdam:
    def filled_gradients(self, net, rng, scale=1.0):
        grads = vfnet.zero_gradients(net)
        for _, g in vfnet._named_arrays(grads):
            g[:] = rng.standard_normal(g.shape) * scale
        return grads

    def test_first_step_closed_form(self):
        rng = RNG(12)
        net = vfnet.init_params(rng, SMALL_CONFIG)
        before = {n: a.copy() for n, a in vfnet._named_arrays(net)}
        grads = self.filled_gradients(net, rng)
        state = flowmatch.adam_init(net)
        lr = 1e-3
        flowmatch.adam_step(net, grads, state, lr)
        for (name, after), (_, g) in zip(vfnet._named_arrays(net),
                                         vfnet._named_arrays(grads)):
            want = before[name] - lr * g / (np.abs(g) + flowmatch.ADAM_EPS)
            assert np.max(np.abs(after - want)) < 1e-15

    def test_zero_gradient_leaves_parameters_untouched(self):
        rng = RNG(13)
        net = vfnet.init_params(rng, SMALL_CONFIG)
        before = {n: a.copy() for n, a in vfnet._named_arrays(net)}
        state = flowmatch.adam_init(net)
        flowmatch.adam_step(net, vfnet.zero_gradients(net), state, 1e-2)
        for name, after in vfnet._named_arrays(net):
            assert np.array_equal(after, before[name])

    def test_constant_gradient_steps_are_exact_every_step(self):
        # With a constant gradient, bias correction cancels exactly and
        # every step moves each parameter by lr * g / (|g| + eps).
        rng = RNG(14)
        net = vfnet.init_params(rng, SMALL_CONFIG)
        grads = self.filled_gradients(net, rng)
        state = flowmatch.adam_init(net)
        lr = 5e-4
        for _ in range(10):
            before = {n: a.copy() for n, a in vfnet._named_arrays(net)}
            flowmatch.adam_step(net, grads, state, lr)
            for (name, after), (_, g) in zip(vfnet._named_arrays(net),
                                             vfnet._named_arrays(grads)):
                step = before[name] - after
                want = lr * g / (np.abs(g) + flowmatch.ADAM_EPS)
                assert np.max(np.abs(step - want)) < 1e-12

    def test_matches_per_tensor_reference_bitwise(self):
        # The flat update does the per-tensor arithmetic elementwise in the
        # same order, so it reproduces a loop over the tensors exactly.
        rng = RNG(19)
        net = vfnet.init_params(rng, SMALL_CONFIG)
        ref = {name: a.copy() for name, a in vfnet._named_arrays(net)}
        ref_m = {name: np.zeros_like(a) for name, a in ref.items()}
        ref_v = {name: np.zeros_like(a) for name, a in ref.items()}
        state = flowmatch.adam_init(net)
        b1, b2, eps = flowmatch.ADAM_BETA1, flowmatch.ADAM_BETA2, flowmatch.ADAM_EPS
        for step in range(1, 6):
            grads = self.filled_gradients(net, rng, scale=10.0 ** -step)
            lr = 1e-3 * step
            flowmatch.adam_step(net, grads, state, lr)
            c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for name, g in vfnet._named_arrays(grads):
                m, v, p = ref_m[name], ref_v[name], ref[name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        for name, a in vfnet._named_arrays(net):
            assert np.array_equal(a, ref[name]), name

    def test_moments_are_flat_like_the_parameters(self):
        net = vfnet.init_params(RNG(16), SMALL_CONFIG)
        state = flowmatch.adam_init(net)
        assert state.m.shape == state.v.shape == net.flat.shape
        assert not np.shares_memory(state.m, state.v)

    def test_divergence_maps_flat_index_to_tensor_name(self):
        # Each tensor, at its last entry, is named in the message.
        for name, _ in vfnet._named_arrays(vfnet.init_params(RNG(17), SMALL_CONFIG)):
            rng = RNG(18)
            net = vfnet.init_params(rng, SMALL_CONFIG)
            grads = self.filled_gradients(net, rng)
            dict(vfnet._named_arrays(grads))[name].reshape(-1)[-1] = np.nan
            state = flowmatch.adam_init(net)
            flowmatch.adam_step(net, self.filled_gradients(net, rng), state, 1e-3)
            with np.errstate(all="ignore"):
                with pytest.raises(flowmatch.TrainingDivergedError) as err:
                    flowmatch.adam_step(net, grads, state, 1e-3)
            assert str(err.value) == (
                f"parameter {name} became non-finite at optimizer step 2")

    def test_divergence_names_parameter_and_step(self):
        rng = RNG(15)
        net = vfnet.init_params(rng, SMALL_CONFIG)
        grads = self.filled_gradients(net, rng)
        grads.layers[0][0][0, 0] = np.inf
        state = flowmatch.adam_init(net)
        with np.errstate(all="ignore"):
            with pytest.raises(flowmatch.TrainingDivergedError,
                               match=r"trunk\.0.*step 1"):
                flowmatch.adam_step(net, grads, state, 1e-3)


class TestTrain:
    def small_dataset(self, rng, n=8, cond_dim=5):
        return [random_pair(rng, cond_dim) for _ in range(n)]

    def test_loss_descends(self):
        rng = RNG(16)
        dataset = self.small_dataset(rng)
        config = flowmatch.TrainConfig(batch_size=4, epochs=300, lr=3e-3,
                                       lr_decay_epoch=150, seed=0)
        _, history = flowmatch.train(dataset, config, SMALL_CONFIG)
        losses = [h[2] for h in history]
        head = float(np.mean(losses[:5]))
        tail = float(np.mean(losses[-20:]))
        assert tail < 0.5 * head

    def test_deterministic_across_runs(self):
        rng = RNG(17)
        dataset = self.small_dataset(rng)
        config = flowmatch.TrainConfig(batch_size=4, epochs=10, seed=42)
        net_a, hist_a = flowmatch.train(dataset, config, SMALL_CONFIG)
        net_b, hist_b = flowmatch.train(dataset, config, SMALL_CONFIG)
        assert hist_a == hist_b
        for (_, a), (_, b) in zip(vfnet._named_arrays(net_a),
                                  vfnet._named_arrays(net_b)):
            assert np.array_equal(a, b)

    def test_first_loss_follows_draw_order(self):
        # After the initial parameters, each epoch draws a permutation and
        # each batch draws its taus, then its reference states.  Seeds keep
        # their meaning only while this order holds.
        rng = RNG(24)
        dataset = self.small_dataset(rng)
        config = flowmatch.TrainConfig(batch_size=4, epochs=1, seed=6)
        _, history = flowmatch.train(dataset, config, SMALL_CONFIG)

        rng = RNG(6)
        net = vfnet.init_params(rng, SMALL_CONFIG)
        idx = rng.permutation(len(dataset))[:4]
        taus = rng.uniform(size=4)
        x0 = se3.sample_initial_batch(rng, 4)
        x1 = np.stack([dataset[i].target.as_vector() for i in idx])
        states, targets = flowmatch.path_point(x0, x1, taus)
        conds = np.stack([dataset[i].cond.values for i in idx])
        loss, _ = flowmatch.cfm_loss(net, states, taus, conds, targets)
        assert history[0][2] == loss

    def test_history_reflects_lr_schedule(self):
        rng = RNG(18)
        dataset = self.small_dataset(rng, n=4)
        config = flowmatch.TrainConfig(batch_size=4, epochs=4, lr=1e-3,
                                       lr_decay_factor=0.5, lr_decay_epoch=2,
                                       seed=1)
        _, history = flowmatch.train(dataset, config, SMALL_CONFIG)
        steps = [h[0] for h in history]
        lrs = [h[1] for h in history]
        assert steps == [1, 2, 3, 4]
        assert lrs == [1e-3, 1e-3, 5e-4, 5e-4]

    def test_resume_continues_from_parameters(self):
        rng = RNG(19)
        dataset = self.small_dataset(rng)
        config = flowmatch.TrainConfig(batch_size=4, epochs=5, seed=3)
        net, _ = flowmatch.train(dataset, config, SMALL_CONFIG)
        snapshot = {n: a.copy() for n, a in vfnet._named_arrays(net)}
        resumed, history = flowmatch.train(dataset, config, net=net)
        assert resumed is net
        assert len(history) == 10  # 8 pairs / batch 4 = 2 steps per epoch
        changed = any(not np.array_equal(a, snapshot[n])
                      for n, a in vfnet._named_arrays(resumed))
        assert changed

    def test_rejects_empty_and_inconsistent_datasets(self):
        rng = RNG(20)
        config = flowmatch.TrainConfig(epochs=1)
        with pytest.raises(ValueError):
            flowmatch.train([], config)
        mixed = [random_pair(rng, 5), random_pair(rng, 6)]
        with pytest.raises(ValueError, match="pair 1"):
            flowmatch.train(mixed, config, SMALL_CONFIG)

    def test_rejects_network_condition_mismatch(self):
        rng = RNG(21)
        dataset = self.small_dataset(rng, cond_dim=6)
        net = vfnet.init_params(rng, SMALL_CONFIG)  # expects cond_dim 5
        config = flowmatch.TrainConfig(epochs=1)
        with pytest.raises(ValueError, match="condition dim"):
            flowmatch.train(dataset, config, net=net)

    def test_nonfinite_loss_reports_epoch_and_batch(self):
        # An absurd learning rate sends the parameters to ~1e200 after
        # the first update; the next forward pass overflows, and the
        # diagnostic must say where.
        rng = RNG(22)
        dataset = self.small_dataset(rng, n=4)
        config = flowmatch.TrainConfig(batch_size=4, epochs=3, lr=1e200,
                                       seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(flowmatch.TrainingDivergedError,
                               match="epoch 1, batch 0"):
                flowmatch.train(dataset, config, SMALL_CONFIG)


class TestSingleMotionConvergence:
    def test_loss_ratio_reaches_floor(self, dirac_run):
        losses = [h[2] for h in dirac_run["history"]]
        ratio = float(np.mean(losses[-50:])) / losses[0]
        assert ratio < DIRAC_RATIO_BOUND

    def test_loss_monotone_in_the_large(self, dirac_run):
        # Windowed means must not climb back up after convergence.
        losses = np.array([h[2] for h in dirac_run["history"]])
        early = losses[:100].mean()
        mid = losses[len(losses) // 2:len(losses) // 2 + 100].mean()
        late = losses[-100:].mean()
        assert late < mid < early


class TestConfigFile:
    def test_round_trip_overrides(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "# schedule\n"
            "batch_size = 32\n"
            "epochs = 7\n"
            "lr = 0.005\n"
            "\n"
            "lr_decay_epoch = 3\n"
            "seed = 99\n")
        config = flowmatch.load_train_config(path)
        assert config.batch_size == 32 and isinstance(config.batch_size, int)
        assert config.epochs == 7
        assert config.lr == 0.005
        assert config.lr_decay_epoch == 3
        assert config.seed == 99
        # untouched fields keep their defaults
        assert config.lr_decay_factor == flowmatch.TrainConfig().lr_decay_factor

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("lr = 0.001\nbatch = 8\n")
        with pytest.raises(ValueError, match=":2"):
            flowmatch.load_train_config(path)

    def test_repeated_key_reports_second_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 5\nlr = 0.001\nepochs = 1\n")
        with pytest.raises(ValueError, match=r"train\.cfg:3: key 'epochs' repeated"):
            flowmatch.load_train_config(path)

    def test_bad_value_reports_key_and_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(ValueError, match="epochs"):
            flowmatch.load_train_config(path)

    def test_malformed_line_reports_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("lr 0.001\n")
        with pytest.raises(ValueError, match=":1"):
            flowmatch.load_train_config(path)

    def test_validation_still_applies(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("lr = -1.0\n")
        with pytest.raises(ValueError):
            flowmatch.load_train_config(path)


class TestLossHistoryFile:
    def test_round_trip_is_exact(self, tmp_path):
        rng = RNG(23)
        history = [(i + 1, 1e-3 if i < 5 else 5e-4,
                    float(rng.uniform(0.01, 10.0)))
                   for i in range(10)]
        path = tmp_path / "loss.csv"
        flowmatch.write_loss_history(path, history)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,lr,loss"
        assert [(int(step), float(lr), float(loss))
                for step, lr, loss in (line.split(",") for line in lines[1:])] == history
