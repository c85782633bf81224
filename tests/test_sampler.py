"""ODE solver and pose-sampling tests.

Solver oracles are closed forms: constant fields integrate exactly for
every scheme, and the linear field u(x) = x has solution e * x0 at tau=1
with per-scheme amplification factors that are plain arithmetic to
recompute (for midpoint with 5 steps the factor is 1.22^5).
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from motionflow import sampler, se3, vfnet

RNG = np.random.default_rng

KEPT_CHECKPOINT = (Path(__file__).resolve().parents[1]
                   / "perfbench" / "data" / "figure8_checkpoint.txt")


def small_net(seed=0, head_widths=(8,)):
    cfg = vfnet.NetConfig(cond_dim=4, time_embed_dim=4, state_embed_dim=6,
                          cond_hidden_dim=4, cond_embed_dim=4,
                          trunk_widths=(8,), head_widths=head_widths)
    net = vfnet.init_params(RNG(seed), cfg)
    rng = RNG(seed + 1)
    for _, arr in vfnet._named_arrays(net):
        arr[...] = rng.standard_normal(arr.shape) * 0.3
    return net


def constant_net(velocity, cond_dim=4):
    """Real network whose output is the given constant velocity."""
    cfg = vfnet.NetConfig(cond_dim=cond_dim, time_embed_dim=4, state_embed_dim=6,
                          cond_hidden_dim=4, cond_embed_dim=4,
                          trunk_widths=(8,), head_widths=(8,))
    net = vfnet._zero_net(cfg)
    net.head_rot[-1][1][:] = velocity[:3]
    net.head_trans[-1][1][:] = velocity[3:]
    return net


class TestSolverConfig:
    def test_defaults(self):
        cfg = sampler.SolverConfig()
        assert cfg.method == "midpoint" and cfg.steps == 5

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            sampler.SolverConfig(method="heun")
        with pytest.raises(ValueError):
            sampler.SolverConfig(steps=0)
        for steps in (2.5, 3.0, "3"):
            with pytest.raises(ValueError, match="steps must be an integer"):
                sampler.SolverConfig(steps=steps)
        config = sampler.SolverConfig(steps=np.int64(3))
        assert config.steps == 3 and type(config.steps) is int

    @pytest.mark.parametrize("method", sampler.SOLVER_METHODS)
    def test_nfe_per_sample_counts_field_evaluations(self, method):
        calls = []

        def field(x, tau):
            calls.append(tau)
            return np.zeros_like(x)

        config = sampler.SolverConfig(method, 3)
        sampler.integrate_field(field, np.zeros((2, 6)), config)
        assert config.nfe_per_sample == len(calls)
        assert config.nfe_per_sample == 3 * {"euler": 1, "midpoint": 2, "rk4": 4}[method]


class TestIntegrateField:
    def test_constant_field_exact_all_methods(self):
        v = np.array([0.3, -0.2, 0.1, 1.0, -1.5, 0.25])
        x0 = np.array([0.05, 0.0, -0.1, 0.2, 0.3, -0.4])
        for method in sampler.SOLVER_METHODS:
            for steps in (1, 3, 7):
                out = sampler.integrate_field(
                    lambda x, tau: np.broadcast_to(v, x.shape),
                    x0, sampler.SolverConfig(method=method, steps=steps))
                # sum of steps * (v/steps); bitwise equality is too strict for
                # steps that do not divide 1 exactly, machine epsilon is not
                assert np.max(np.abs(out - (x0 + v))) < 1e-15

    def test_linear_field_known_factors(self):
        # u(x) = x: per-step growth factors are 1+h (euler),
        # 1+h+h^2/2 (midpoint), and the quartic Taylor polynomial (rk4).
        x0 = np.array([1.0, -2.0, 0.5, 0.25, -0.125, 3.0])
        field = lambda x, tau: x
        for method, steps, factor in [
            ("euler", 4, (1 + 0.25) ** 4),
            ("midpoint", 5, (1 + 0.2 + 0.2 ** 2 / 2) ** 5),
            ("rk4", 2, (1 + 0.5 + 0.5 ** 2 / 2 + 0.5 ** 3 / 6 + 0.5 ** 4 / 24) ** 2),
        ]:
            out = sampler.integrate_field(
                field, x0, sampler.SolverConfig(method=method, steps=steps))
            assert np.max(np.abs(out - factor * x0)) < 1e-12

    def test_midpoint_five_step_error_vs_exact(self):
        # Frozen from the arithmetic oracle: midpoint amplification 1.22^5
        # versus the exact e gives relative error 5.7292e-3, and doubling
        # the step count shrinks the error by ~3.7x (second order).
        x0 = np.ones(6)
        field = lambda x, tau: x
        out5 = sampler.integrate_field(field, x0, sampler.SolverConfig("midpoint", 5))
        rel5 = abs(out5[0] - math.e) / math.e
        assert abs(rel5 - 5.729231272488752e-3) < 1e-12
        out10 = sampler.integrate_field(field, x0, sampler.SolverConfig("midpoint", 10))
        rel10 = abs(out10[0] - math.e) / math.e
        assert 3.4 < rel5 / rel10 < 4.1

    def test_convergence_orders(self):
        # Log-log slope of error vs steps on u(x) = x; frozen slope values
        # from the arithmetic oracle, checked against the nominal order
        # with the +/-0.3 band used by the acceptance suite.
        x0 = np.ones(1)
        field = lambda x, tau: x

        def slope(method, steps_list):
            errs = []
            for s in steps_list:
                out = sampler.integrate_field(
                    field, x0, sampler.SolverConfig(method, s))
                errs.append(abs(float(out[0]) - math.e) / math.e)
            logs = np.log(steps_list)
            loge = np.log(errs)
            return -np.polyfit(logs, loge, 1)[0]

        assert abs(slope("euler", [8, 16, 32, 64]) - 1.0) < 0.3
        assert abs(slope("midpoint", [2, 4, 8, 16]) - 2.0) < 0.3
        assert abs(slope("rk4", [2, 4, 8, 16]) - 4.0) < 0.3

    def test_non_finite_aborts_with_step_index(self):
        calls = {"n": 0}

        def field(x, tau):
            calls["n"] += 1
            if calls["n"] >= 3:
                return np.full_like(x, np.inf)
            return x

        with pytest.raises(sampler.IntegrationDivergedError, match="step 3"):
            sampler.integrate_field(field, np.ones(6),
                                    sampler.SolverConfig("euler", 8))


def integrate_net(net, x0, cond, config):
    """One flow trajectory per row of x0, integrated as estimate_pose
    integrates its rows: as a one-element stack."""
    x0 = np.asarray(x0, dtype=np.float64)
    stack = x0.reshape(1, -1, 6)
    return sampler._integrate(net, vfnet.embed_conditions(net, [cond]), stack,
                              config).reshape(x0.shape)


class TestIntegrateNet:
    def test_single_euler_step_is_one_forward_eval(self):
        net = small_net(2)
        cond = vfnet.ConditionVector(np.array([0.1, -0.2, 0.3, 0.4]))
        x0 = np.array([0.1, 0.0, -0.1, 0.5, -0.5, 0.25])
        got = integrate_net(net, x0, cond, sampler.SolverConfig("euler", 1))
        want = x0 + vfnet.forward_batch(net, x0[None, :], np.zeros(1),
                                        cond.values[None, :])[0]
        assert np.max(np.abs(got - want)) < 1e-15

    def test_constant_net_exact_for_all_schemes(self):
        v = np.array([0.02, -0.01, 0.03, 0.4, 0.1, -0.2])
        net = constant_net(v)
        cond = vfnet.ConditionVector(np.zeros(4))
        x0 = np.array([0.2, -0.1, 0.0, 1.0, 2.0, -1.0])
        for method in sampler.SOLVER_METHODS:
            for steps in (1, 2, 5, 9):
                got = integrate_net(net, x0, cond, sampler.SolverConfig(method, steps))
                assert np.max(np.abs(got - (x0 + v))) < 1e-15

    @pytest.mark.parametrize("method", sampler.SOLVER_METHODS)
    def test_condition_branch_runs_once_per_estimate(self, method, monkeypatch):
        net = small_net(25)
        cond = vfnet.ConditionVector(np.array([0.3, -0.1, 0.2, 0.5]))
        config = sampler.SolverConfig(method, 3)
        calls = {"fold": 0, "branch": 0, "forward": 0}
        real_fold, real_chain = vfnet.embed_conditions, vfnet._forward_chain
        real_forward = vfnet.forward_batch

        def fold(net_, conds):
            calls["fold"] += 1
            return real_fold(net_, conds)

        def chain(layers, x, linear_last):
            calls["branch"] += layers is net.cond_embed
            return real_chain(layers, x, linear_last)

        def forward(*args, **kwargs):
            calls["forward"] += 1
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(vfnet, "embed_conditions", fold)
        monkeypatch.setattr(vfnet, "_forward_chain", chain)
        monkeypatch.setattr(vfnet, "forward_batch", forward)
        sampler.estimate_pose(net, cond, config, 5, RNG(26))
        assert calls == {"fold": 1, "branch": 1, "forward": config.nfe_per_sample}
        # A sequence folds the net under all its conditions in one call,
        # which runs the condition branch once for them all, and evaluates
        # the field once per stage per block of elements.
        for m, blocks in ((5, 1), (sampler.BLOCK_ROWS // 2, 2), (sampler.BLOCK_ROWS + 1, 4)):
            calls.update(fold=0, branch=0, forward=0)
            sampler.estimate_sequence(net, [cond] * 4, config, m, RNG(26))
            assert calls == {"fold": 1, "branch": 1,
                             "forward": blocks * config.nfe_per_sample}

    def test_chart_converts_each_block_once(self, monkeypatch):
        # A sequence takes each block's integrated samples to their chart
        # rows with one call of each chart map, and estimate_pose runs once
        # per element to record them; per-sample conversion would call the
        # maps m times per element.  Each block's reference rows are one
        # draw over its elements' generators, which takes their quaternions
        # through pose_to_state once as well.
        net = small_net(25)
        cond = vfnet.ConditionVector(np.array([0.3, -0.1, 0.2, 0.5]))
        config = sampler.SolverConfig("midpoint", 3)
        calls = {}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((se3, "state_to_pose"), (se3, "pose_to_state"),
                             (se3, "sample_initial_batch"), (sampler, "estimate_pose")):
            counted(module, name)
        sampler.estimate_pose(net, cond, config, 5, RNG(26))
        assert calls == {"estimate_pose": 1, "sample_initial_batch": 1, "state_to_pose": 1,
                         "pose_to_state": 2}
        for m, blocks in ((5, 1), (sampler.BLOCK_ROWS // 2, 2), (sampler.BLOCK_ROWS + 1, 4)):
            calls.clear()
            results = sampler.estimate_sequence(net, [cond] * 4, config, m, RNG(26))
            assert calls == {"estimate_pose": 4, "sample_initial_batch": blocks,
                             "state_to_pose": blocks, "pose_to_state": 2 * blocks}
            # samples are built on access, one state_to_pose call each time
            assert len(results[0].samples) == m and calls["state_to_pose"] == blocks + 1

    @pytest.mark.parametrize("method, m", [("midpoint", 10), ("rk4", 32)])
    def test_batched_rows_match_single_rows_to_tolerance(self, method, m):
        # BLAS rounding depends on the row count, so a row integrated in a
        # batch of m agrees with the same row integrated alone only to
        # rounding, not bit for bit.
        net = vfnet.load_checkpoint(KEPT_CHECKPOINT)
        cond = vfnet.ConditionVector(RNG(27).standard_normal(net.config.cond_dim))
        config = sampler.SolverConfig(method, 5)
        x0 = se3.sample_initial_batch([RNG(28)], m)
        batched = integrate_net(net, x0, cond, config)
        single = np.stack([integrate_net(net, row, cond, config) for row in x0])
        assert np.max(np.abs(batched - single)) <= 1e-14

    def test_rejects_mismatched_condition(self):
        net = small_net(3)
        with pytest.raises(ValueError, match="condition dim"):
            sampler.estimate_pose(net, vfnet.ConditionVector(np.zeros(7)),
                                  sampler.SolverConfig(), 1, RNG(0))


def chart_rows(poses) -> np.ndarray:
    """The poses' principal chart rows, one se3.pose_to_state call."""
    return se3.pose_to_state(np.stack([p.rotation.q for p in poses]),
                             np.stack([p.translation for p in poses]))


def same_estimate(a, b) -> bool:
    """Whether two PoseSampleSets hold the same bits: samples, mean and std."""
    def bits(result):
        return ([p.rotation.q.tobytes() + p.translation.tobytes() for p in result.samples],
                result.mean_state.as_vector().tobytes(), result.std_state.tobytes())
    return bits(a) == bits(b)


class TestEstimatePose:
    def test_single_sample_has_zero_std(self):
        net = small_net(4)
        cond = vfnet.ConditionVector(np.array([0.4, 0.3, -0.2, 0.1]))
        result = sampler.estimate_pose(net, cond, sampler.SolverConfig(), 1, RNG(5))
        assert np.array_equal(result.std_state, np.zeros(6))
        assert len(result.samples) == 1

    @pytest.mark.parametrize("m", [1, 2, 10, 32])
    def test_mean_and_std_match_samples(self, m):
        net = small_net(6)
        cond = vfnet.ConditionVector(np.array([0.4, 0.3, -0.2, 0.1]))
        result = sampler.estimate_pose(net, cond, sampler.SolverConfig(), m, RNG(7))
        states = chart_rows(result.samples)
        assert np.array_equal(result.mean_state.as_vector(), states.mean(axis=0))
        assert np.array_equal(result.std_state, states.std(axis=0, ddof=0))

    def test_samples_and_mean_hold_read_only_arrays(self):
        # The samples share the rows of the sample set's states: writing
        # through one must fail, not change the estimate.
        net = small_net(6)
        cond = vfnet.ConditionVector(np.array([0.4, 0.3, -0.2, 0.1]))
        result = sampler.estimate_pose(net, cond, sampler.SolverConfig(), 3, RNG(7))
        arrays = [result.states, result.mean_state.rho, result.mean_state.trans,
                  result.std_state]
        for pose in result.samples:
            arrays += [pose.rotation.q, pose.translation]
        assert not any(a.flags.writeable for a in arrays)

    def test_rejects_bad_m(self):
        net = small_net(8)
        cond = vfnet.ConditionVector(np.zeros(4))
        with pytest.raises(ValueError):
            sampler.estimate_pose(net, cond, sampler.SolverConfig(), 0, RNG(9))
        for m in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="sample count m must be an integer"):
                sampler.estimate_pose(net, cond, sampler.SolverConfig(), m, RNG(9))
        assert len(sampler.estimate_pose(net, cond, sampler.SolverConfig(), np.int64(2),
                                         RNG(9)).samples) == 2

    def test_deterministic_given_seed(self):
        net = small_net(10)
        cond = vfnet.ConditionVector(np.array([1.0, 0.5, 0.0, -0.5]))
        a = sampler.estimate_pose(net, cond, sampler.SolverConfig(), 8, RNG(11))
        b = sampler.estimate_pose(net, cond, sampler.SolverConfig(), 8, RNG(11))
        assert np.array_equal(a.mean_state.as_vector(), b.mean_state.as_vector())
        assert np.array_equal(a.std_state, b.std_state)

    def test_reads_parameters_updated_in_place(self):
        # The fold of net under cond is rebuilt on every call, and its
        # condition-free part on every estimate_sequence call, so an
        # in-place update, as the optimizer makes, is never read stale.
        net = small_net(27)
        cond = vfnet.ConditionVector(np.array([1.0, 0.5, 0.0, -0.5]))
        config = sampler.SolverConfig("rk4", 3)
        before = sampler.estimate_pose(net, cond, config, 8, RNG(28))
        sampler.estimate_sequence(net, [cond] * 2, config, 8, RNG(29))
        net.flat *= 0.5
        after = sampler.estimate_pose(net, cond, config, 8, RNG(28))
        fresh = vfnet._zero_net(net.config)
        fresh.flat[:] = net.flat
        want = sampler.estimate_pose(fresh, cond, config, 8, RNG(28))
        assert np.array_equal(after.mean_state.as_vector(), want.mean_state.as_vector())
        assert np.array_equal(after.std_state, want.std_state)
        assert not np.array_equal(after.std_state, before.std_state)
        got = sampler.estimate_sequence(net, [cond] * 2, config, 8, RNG(29))
        want = sampler.estimate_sequence(fresh, [cond] * 2, config, 8, RNG(29))
        for a, b in zip(got, want):
            assert same_estimate(a, b)

    @pytest.mark.parametrize("head, overflows", [
        ("head_rot", "rho norm overflows"), ("head_trans", "std_state must be finite")])
    def test_overflowing_samples_diverge_without_a_warning(self, head, overflows):
        # Final weights of 1e160 keep every integrated state finite, but a
        # rotation vector's norm or the squared deviations of the std
        # overflow the float range (euler keeps the first step's spread of
        # about 1e159); any warning fails the suite.
        net = small_net(44)
        getattr(net, head)[-1][0][...] = 1e160
        cond = vfnet.ConditionVector(np.array([0.4, 0.3, -0.2, 0.1]))
        with pytest.raises(sampler.IntegrationDivergedError, match=overflows):
            sampler.estimate_pose(net, cond, sampler.SolverConfig("euler", 5), 10, RNG(45))

    def test_untrained_net_returns_reference_draws(self):
        # Zero-initialized final layers make the field identically zero, so
        # integration is the identity and samples equal their x0 draws.
        net = vfnet.init_params(RNG(12), vfnet.NetConfig(cond_dim=4))
        cond = vfnet.ConditionVector(np.ones(4))
        result = sampler.estimate_pose(net, cond, sampler.SolverConfig(), 6, RNG(13))
        x0 = se3.sample_initial_batch([RNG(13)], 6)
        got = chart_rows(result.samples)
        assert np.max(np.abs(got - x0)) < 1e-12


class TestEstimateSequence:
    @pytest.mark.parametrize("method", sampler.SOLVER_METHODS)
    @pytest.mark.parametrize("kept", [False, True], ids=["small", "kept"])
    def test_element_equals_estimate_pose_on_its_child(self, method, kept):
        # The sequence folds the net under all its conditions in one call
        # and integrates blocks of elements as stacks, with the same bits
        # as a fold and an integration per estimate_pose call: in one
        # block, and in three or more blocks at m = 1 and m = 32.  At m = 1
        # every element is one row, which BLAS takes down its vector path.
        net = vfnet.load_checkpoint(KEPT_CHECKPOINT) if kept else small_net(29)
        config = sampler.SolverConfig(method, 3)
        for length, m in ((4, 5), (2 * sampler.BLOCK_ROWS + 1, 1),
                          (3 * (sampler.BLOCK_ROWS // 32) + 1, 32)):
            rng = RNG(30)
            conds = [vfnet.ConditionVector(rng.standard_normal(net.config.cond_dim))
                     for _ in range(length)]
            results = sampler.estimate_sequence(net, conds, config, m, RNG(31))
            assert len(results) == length
            children = RNG(31).spawn(len(conds))
            for cond, child, got in zip(conds, children, results):
                assert same_estimate(got, sampler.estimate_pose(net, cond, config, m, child))

    @pytest.mark.parametrize("method", sampler.SOLVER_METHODS)
    @pytest.mark.parametrize("m", [1, 2, 3, 10, 32, 51, 200])
    def test_block_statistics_match_each_elements_reductions(self, method, m):
        # The mean and std of a block are one np.add.reduce per statistic
        # over the stack; each element's must equal ndarray.mean and
        # ndarray.std over its own chart rows, bit for bit, in blocks of
        # one to five elements (three blocks at m = 200).
        net = vfnet.load_checkpoint(KEPT_CHECKPOINT)
        rng = RNG(55)
        conds = [vfnet.ConditionVector(rng.standard_normal(net.config.cond_dim))
                 for _ in range(5)]
        results = sampler.estimate_sequence(net, conds, sampler.SolverConfig(method, 3), m,
                                            RNG(56))
        for result in results:
            states = chart_rows(result.samples)
            assert np.array_equal(result.mean_state.as_vector(), states.mean(axis=0))
            assert np.array_equal(result.std_state, states.std(axis=0))

    def test_order_and_prefix_stability(self):
        net = small_net(14)
        rng = RNG(15)
        conds = [vfnet.ConditionVector(rng.standard_normal(4)) for _ in range(5)]
        full = sampler.estimate_sequence(net, conds, sampler.SolverConfig(), 4, RNG(16))
        prefix = sampler.estimate_sequence(net, conds[:3], sampler.SolverConfig(), 4, RNG(16))
        assert len(full) == 5 and len(prefix) == 3
        for a, b in zip(prefix, full[:3]):
            assert np.array_equal(a.mean_state.as_vector(), b.mean_state.as_vector())
            assert np.array_equal(a.std_state, b.std_state)

    def test_empty_sequence_checks_m(self):
        # m is checked before any draw, whatever the sequence's length; an
        # empty sequence with a valid m has no estimates.
        net = small_net(53)
        for conds in ([], [vfnet.ConditionVector(np.zeros(4))]):
            for m in (0, 2.5):
                with pytest.raises(ValueError, match="sample count m must be"):
                    sampler.estimate_sequence(net, conds, sampler.SolverConfig(), m, RNG(54))
        assert sampler.estimate_sequence(net, [], sampler.SolverConfig(), 3, RNG(54)) == []
        assert sampler.estimate_sequence(net, iter([]), sampler.SolverConfig(), 3,
                                         RNG(54)) == []

    def test_failure_reports_element_indices(self, monkeypatch):
        # Inject a non-finite field evaluation for one element and check
        # the aggregate error carries that element's index.
        net = small_net(17)
        rng = RNG(18)
        conds = [vfnet.ConditionVector(rng.standard_normal(4)) for _ in range(3)]
        real_forward = vfnet.forward_batch

        def tampered(net_, states, taus, conds=None, keep_cache=False, *, embedded=None):
            out = real_forward(net_, states, taus, conds, keep_cache, embedded=embedded)
            out[1] = np.nan  # the three elements are one block: poison element 1's slice
            return out

        monkeypatch.setattr(vfnet, "forward_batch", tampered)
        with pytest.raises(sampler.IntegrationDivergedError, match=r"\[1\]"):
            sampler.estimate_sequence(net, conds, sampler.SolverConfig(), 2, RNG(19))

    def test_divergence_names_every_element_and_quotes_the_first(self, monkeypatch):
        # Elements 1 and 4 leave the finite range at steps 3 and 4 of 5
        # (rows 7 and 3), in different blocks of 200-row elements;
        # element 2's states stay finite, but its rotation vectors of
        # about 2e299 overflow their norm.  Every element runs to its own
        # end, the error names all three and quotes element 1's failure,
        # and no warning is raised (any warning fails the suite).
        net = small_net(50)
        rng = RNG(51)
        conds = [vfnet.ConditionVector(rng.standard_normal(4)) for _ in range(6)]
        m, width = 200, net.config.trunk_widths[0]
        assert 1 // (sampler.BLOCK_ROWS // m) != 4 // (sampler.BLOCK_ROWS // m)
        rows = vfnet.embed_conditions(net, conds).bias[:, 0]
        # element -> (first poisoned tau, the sample rows and components hit, value)
        poison = {1: (0.45, (7, slice(None)), np.nan),
                  4: (0.65, (3, slice(None)), np.inf),
                  2: (0.85, (slice(None), slice(0, 3)), 1e300)}
        real_forward = vfnet.forward_batch

        def tampered(net_, states, taus, conds=None, keep_cache=False, *, embedded=None):
            out = real_forward(net_, states, taus, conds, keep_cache, embedded=embedded)
            elements = out.reshape(-1, m, 6)
            for k, bias in enumerate(embedded.bias.reshape(-1, width)):
                i = int(np.flatnonzero((rows == bias).all(axis=1))[0])
                if i in poison and taus >= poison[i][0]:
                    elements[k][poison[i][1]] = poison[i][2]
            return out

        monkeypatch.setattr(vfnet, "forward_batch", tampered)
        with pytest.raises(sampler.IntegrationDivergedError) as err:
            sampler.estimate_sequence(net, conds, sampler.SolverConfig(), m, RNG(52))
        assert str(err.value) == (
            "integration diverged for sequence elements [1, 2, 4]; first failure: "
            "non-finite state after step 3/5 (sample 7, method midpoint)")


# sha256 over the samples, means and stds of estimate_sequence on three
# conditions (steps 1 and 5, m 1 and 10 per solver) and of one standalone
# estimate_pose, taken before the fold builder was merged into one, and of
# the SPANNING sequences, taken before the reference draws and the
# condition branch ran once per block: refactors of inference must keep
# every bit of every estimate.
INFERENCE_DIGESTS = {
    ("kept", "euler"): "5c1ff24e6711f0ee958b5855a51806929e9da10a2b66f51ce78b2318d989c003",
    ("kept", "midpoint"): "31d054fb4301b68f9357c2004ee757eccf5c4a158416cd5a6d4b3224bd1c4059",
    ("kept", "rk4"): "886516c18a0e5546588a787059d292b2e5368168e20948af2a1e40647ac50fe8",
    ("no-heads", "euler"): "4b9f3fc75037aea02bb8b809e56119397681cda6d76e04e110951d0f6266b250",
    ("no-heads", "midpoint"): "152242287593dc9168d982ddd694334262692f113bdf6269dba1a3b8d18fe162",
    ("no-heads", "rk4"): "829aeb76b42e4862846827f69ca388fcfed81455564d373ce031233c30fd33ff",
    ("kept", "standalone"): "2083eea5d75d5335f89fd5333702984884f71d96125389caaeac8997859c73a7",
    ("kept", "7x200"): "9083e9a0a9250826734ca72a50ba3a1343df41275874ff8abd5fba4f508f7b2c",
    ("kept", "600x1"): "5f3aac91c3c142cc455f8b73f2513779b02cd244512fdcc0bdaf789aedeb35ab",
    ("no-heads", "25x51"): "3995c7a08f53484a65f6660f73019f4031b3507db918e70bfcba1f1eb895a0ef",
}

# Sequences that span several blocks and end with a short one, as
# (conditions, m, solver): 2 elements a block at m = 200, 512 at m = 1
# and 10 at m = 51.
SPANNING = {"7x200": (7, 200, sampler.SolverConfig("midpoint", 5)),
            "600x1": (600, 1, sampler.SolverConfig("euler", 1)),
            "25x51": (25, 51, sampler.SolverConfig("rk4", 2))}


@pytest.mark.parametrize("case", INFERENCE_DIGESTS)
def test_inference_keeps_its_bits(case):
    name, method = case
    net = (vfnet.load_checkpoint(KEPT_CHECKPOINT) if name == "kept"
           else small_net(40, head_widths=()))
    length, m, config = SPANNING.get(method, (3, None, None))
    rng = RNG(41)
    conds = [vfnet.ConditionVector(rng.standard_normal(net.config.cond_dim))
             for _ in range(length)]
    if config is not None:
        assert length > sampler.BLOCK_ROWS // m and length % (sampler.BLOCK_ROWS // m)
        results = sampler.estimate_sequence(net, conds, config, m, RNG(43))
    elif method == "standalone":
        results = [sampler.estimate_pose(net, conds[0], sampler.SolverConfig("rk4", 5),
                                         10, RNG(42))]
    else:
        results = [result for steps in (1, 5) for m in (1, 10)
                   for result in sampler.estimate_sequence(
                       net, conds, sampler.SolverConfig(method, steps), m, RNG(43))]
    digest = hashlib.sha256()
    for result in results:
        for pose in result.samples:
            digest.update(pose.rotation.q.tobytes() + pose.translation.tobytes())
        digest.update(result.mean_state.as_vector().tobytes() + result.std_state.tobytes())
    assert digest.hexdigest() == INFERENCE_DIGESTS[case]


class TestEstimatesCsv:
    def test_round_trip(self, tmp_path):
        net = small_net(20)
        rng = RNG(21)
        conds = [vfnet.ConditionVector(rng.standard_normal(4)) for _ in range(4)]
        results = sampler.estimate_sequence(net, conds, sampler.SolverConfig(), 3, RNG(22))
        path = tmp_path / "estimates.csv"
        sampler.write_estimates_csv(path, results)
        means, stds = sampler.read_estimates_csv(path)
        assert means.shape == stds.shape == (4, 6)
        for mean, std, res in zip(means, stds, results):
            assert np.array_equal(mean, res.mean_state.as_vector())
            assert np.array_equal(std, res.std_state)

    def test_header_and_row_shape(self, tmp_path):
        net = small_net(23)
        conds = [vfnet.ConditionVector(np.ones(4))]
        results = sampler.estimate_sequence(net, conds, sampler.SolverConfig(), 2, RNG(24))
        path = tmp_path / "estimates.csv"
        sampler.write_estimates_csv(path, results)
        lines = path.read_text().splitlines()
        assert lines[0] == ("pair_index,rho_x,rho_y,rho_z,t_x,t_y,t_z,"
                            "std_1,std_2,std_3,std_4,std_5,std_6")
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "0"

    def test_non_numeric_cell_reports_line(self, tmp_path):
        net = small_net(25)
        conds = [vfnet.ConditionVector(np.ones(4))] * 2
        results = sampler.estimate_sequence(net, conds, sampler.SolverConfig(), 2, RNG(26))
        path = tmp_path / "estimates.csv"
        sampler.write_estimates_csv(path, results)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[4] = "wide"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"estimates\.csv:3: .*'wide'"):
            sampler.read_estimates_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("1" + ",0.5" * 12, "pair_index '1'"),
        ("0" + ",0.5" * 11 + ",-5", "std_state must be finite and non-negative"),
        ("0" + ",0.5" * 11 + ",nan", "std_state must be finite and non-negative"),
        ("0,nan" + ",0.5" * 11, "mean_state must be finite"),
    ])
    def test_bad_index_or_spread_reports_line(self, tmp_path, row, message):
        path = tmp_path / "estimates.csv"
        path.write_text(sampler.ESTIMATES_HEADER + "\n" + row + "\n")
        with pytest.raises(ValueError, match=rf"estimates\.csv:2: {message}"):
            sampler.read_estimates_csv(path)
