"""The four workloads: their inputs, unit operations and output checks.

Each workload builds its inputs from the run's seed in ``setup``, runs one
round of unit operations per ``round`` call (timing each operation, with
the benchmark's span around it when traced) and, after the timed phase,
checks every output against ``reference`` and reports its quality
figures (``ate_m``, ``fm_loss``).

Quality figures must not swing with the seed more than their bound, so
the seed moves only inputs whose effect on them averages out:

- ``train`` and ``infer-*`` use the fixed figure8 scenario of
  ``make_checkpoint`` with seeded condition noise.  With the training
  seed free, a 50-epoch net's ATE ranged 4.6-6.7 m over five seeds; with
  seeded noise it ranged 5.56-5.91 m.
- ``pipeline`` pins the seeds it gives the CLI.  Over five random-walk
  scenarios its ATE ranged 3.0-5.4 m, and over five sampling seeds on one
  scenario 3.6-6.3 m: dead-reckoned drift is itself a random walk.  The
  run's seed draws the benchmark's loss sample.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import make_checkpoint
import reference
import spans
from motionflow import cli, flowmatch, sampler, synthworld, vfnet

CHECKPOINT = make_checkpoint.CHECKPOINT
COND_NOISE = 0.01      # condition noise sigma on the fixed figure8 scenario
# (tau, x0) draws in the benchmark's loss.  Its residuals are heavy-tailed
# (the top 1% carry about 40% of the loss on the kept checkpoint), so it
# takes tens of thousands of draws to steady it to a few percent.
FM_DRAWS = 51200

# Sub-seed tags: each input stream gets its own SeedSequence([seed, tag]).
NOISE_TAG, LOSS_TAG, SAMPLE_TAG, WARMUP_TAG = 1, 2, 3, 4


def stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


@dataclass
class Round:
    """What one round did: per-operation seconds, counts and work items,
    and the host-speed factor the benchmark sets after the round."""

    op_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    items: int = 0
    scale: float = 1.0


def _timed(tracer, fn, *args):
    """Run one unit operation; return (seconds, result)."""
    ctx = tracer.span(spans.OP) if tracer is not None else contextlib.nullcontext()
    with ctx:
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
    return dt, out


def fm_sample(seed: int, targets: np.ndarray, conds: np.ndarray):
    """The seeded draws of the benchmark's loss over a dataset, and their conditions."""
    per_pair = math.ceil(FM_DRAWS / len(targets))
    draws = reference.fm_draws(stream(seed, LOSS_TAG), targets, per_pair)
    return draws, np.repeat(conds, per_pair, axis=0)


def chart_ate(means: np.ndarray, gt_positions: np.ndarray) -> float:
    """sim3 ATE of the trajectory chained from per-pair chart means."""
    q = reference.quat_exp(means[:, :3])
    _, t = reference.chain(np.array([1.0, 0, 0, 0]), np.zeros(3), q, means[:, 3:])
    return reference.umeyama_sim3_rmse(t, gt_positions)


def check_sample_sets(results, problems: list, label: str) -> None:
    """mean_state/std_state against the samples' own chart coordinates."""
    worst = 0.0
    for r in results:
        q = np.stack([s.rotation.q for s in r.samples])
        t = np.stack([s.translation for s in r.samples])
        states = np.concatenate([reference.quat_log(q), t], axis=1)
        worst = max(worst,
                    float(np.max(np.abs(states.mean(axis=0) - r.mean_state.as_vector()))),
                    float(np.max(np.abs(states.std(axis=0) - r.std_state))))
    if not worst <= 1e-12:
        problems.append(f"{label}: sample-set mean/std off by {worst:.3g}")


class Train:
    """Repeated ``flowmatch.train`` calls on the seeded figure8 scenario."""

    name = "train"
    TRAIN_SEED = 3     # training is pinned; the seed moves the condition noise
    INFER_SEED = 17    # the fixed, untimed inference behind ate_m

    def __init__(self, seed, run_dir, tiny):
        self.seed, self.run_dir = seed, run_dir
        self.poses, epochs = (41, 30) if tiny else (make_checkpoint.FIGURE8_POSES, 50)
        self.config = flowmatch.TrainConfig(batch_size=64, epochs=epochs,
                                            seed=self.TRAIN_SEED)

    def setup(self):
        self.scenario = make_checkpoint.figure8_scenario(
            COND_NOISE, stream(self.seed, NOISE_TAG), poses=self.poses)
        self.pairs = self.scenario.pairs
        self.histories = []

    def warmup(self):
        flowmatch.train(self.pairs[:8], flowmatch.TrainConfig(epochs=2))

    def round(self, tracer) -> Round:
        dt, (self.net, history) = _timed(tracer, flowmatch.train, self.pairs, self.config)
        self.histories.append(history)
        return Round([dt], 1, 0, self.config.epochs * len(self.pairs))

    def finish(self, problems: list) -> dict:
        targets = np.stack([p.target.as_vector() for p in self.pairs])
        conds = np.stack([p.cond.values for p in self.pairs])
        draws, conds = fm_sample(self.seed, targets, conds)
        loss = reference.fm_loss(vfnet, self.net, draws, conds)
        fresh = vfnet.init_params(np.random.default_rng(self.config.seed), self.net.config)
        loss0 = reference.fm_loss(vfnet, fresh, draws, conds)
        if not loss < 0.8 * loss0:
            problems.append(f"train: fm_loss {loss:.4g} not well below initial {loss0:.4g}")
        gap = reference.gradient_check(vfnet, self.net, tuple(a[:4096] for a in draws),
                                       conds[:4096])
        if not gap < 1e-5:
            problems.append(f"train: backward_batch differs from finite differences by {gap:.3g}")
        steps = self.config.epochs * math.ceil(len(self.pairs) / self.config.batch_size)
        for history in self.histories:
            if len(history) != steps or not all(math.isfinite(h[2]) for h in history):
                problems.append(f"train: history has {len(history)} rows, "
                                f"expected {steps}, or a non-finite loss")
                break
            if history != self.histories[0]:
                problems.append("train: repeated calls with one seed differ")
                break
        results = sampler.estimate_sequence(
            self.net, [p.cond for p in self.pairs], sampler.SolverConfig("midpoint", 5), 10,
            np.random.default_rng(self.INFER_SEED))
        means = np.stack([r.mean_state.as_vector() for r in results])
        return {"ate_m": chart_ate(means, self.scenario.gt_trajectory.positions()),
                "fm_loss": loss}


class _Infer:
    """Shared inputs of the inference workloads: the kept checkpoint and
    the seeded figure8 conditions, read back from a dataset file."""

    def __init__(self, seed, run_dir, tiny):
        self.seed, self.run_dir = seed, run_dir
        self.pairs_used = 40 if tiny else make_checkpoint.FIGURE8_POSES - 1

    def setup(self):
        scenario = make_checkpoint.figure8_scenario(COND_NOISE, stream(self.seed, NOISE_TAG))
        path = self.run_dir / "dataset.csv"
        synthworld.write_scenario_dataset(path, scenario)
        rows = synthworld.ingest_features(path)[:self.pairs_used]
        self.conds = [cond for cond, _ in rows]
        self.targets = np.stack([pair.target.as_vector() for _, pair in rows])
        self.gt = scenario.gt_trajectory.positions()[:self.pairs_used + 1]
        self.net = vfnet.load_checkpoint(CHECKPOINT)
        self.rng = stream(self.seed, SAMPLE_TAG)
        self.means = []     # chart means of every estimated sequence
        self.first = None   # the first sequence's sample sets, for the checks

    def warmup(self):
        sampler.estimate_pose(self.net, self.conds[0], self.solver, self.m,
                              stream(self.seed, WARMUP_TAG))

    def finish(self, problems: list) -> dict:
        check_sample_sets(self.first, problems, self.name)
        ates = [chart_ate(m, self.gt) for m in self.means]
        zero = vfnet.init_params(np.random.default_rng(0), self.net.config)
        baseline = sampler.estimate_sequence(zero, self.conds, self.solver, self.m,
                                             stream(self.seed, WARMUP_TAG))
        zero_ate = chart_ate(np.stack([r.mean_state.as_vector() for r in baseline]), self.gt)
        ate = float(np.median(ates))
        if not ate < 0.6 * zero_ate:
            problems.append(f"{self.name}: ATE {ate:.4g} not far below the "
                            f"zero-velocity net's {zero_ate:.4g}")
        draws, conds = fm_sample(self.seed, self.targets,
                                 np.stack([c.values for c in self.conds]))
        return {"ate_m": ate, "fm_loss": reference.fm_loss(vfnet, self.net, draws, conds)}


class InferBatch(_Infer):
    """``sampler.estimate_sequence`` over the whole sequence, infer defaults."""

    name = "infer-batch"
    solver = sampler.SolverConfig("midpoint", 5)
    m = 10

    def round(self, tracer) -> Round:
        child = self.rng.spawn(1)[0]
        dt, results = _timed(tracer, sampler.estimate_sequence,
                             self.net, self.conds, self.solver, self.m, child)
        self.means.append(np.stack([r.mean_state.as_vector() for r in results]))
        if self.first is None:
            self.first = results
        return Round([dt], 1, 0, len(self.conds) * self.m)


class InferStream(_Infer):
    """One closed-loop caller: one ``estimate_pose`` per arriving pair, rk4."""

    name = "infer-stream"
    solver = sampler.SolverConfig("rk4", 5)
    m = 32

    def round(self, tracer) -> Round:
        out = Round()
        results = []
        for cond in self.conds:
            child = self.rng.spawn(1)[0]
            dt, r = _timed(tracer, sampler.estimate_pose, self.net, cond,
                           self.solver, self.m, child)
            out.op_s.append(dt)
            results.append(r)
        out.attempted = len(self.conds)
        out.items = len(self.conds) * self.m
        self.means.append(np.stack([r.mean_state.as_vector() for r in results]))
        if self.first is None:
            self.first = results
        return out

    def finish(self, problems: list) -> dict:
        # Call i of the first pass used child i of the stream, which is what
        # estimate_sequence gives element i.
        batch = sampler.estimate_sequence(self.net, self.conds, self.solver, self.m,
                                          stream(self.seed, SAMPLE_TAG))
        gap = max(max(float(np.max(np.abs(a.mean_state.as_vector() - b.mean_state.as_vector()))),
                      float(np.max(np.abs(a.std_state - b.std_state))))
                  for a, b in zip(self.first, batch))
        if not gap <= 1e-12:
            problems.append(f"infer-stream: estimate_pose differs from estimate_sequence by {gap:.3g}")
        return super().finish(problems)


class Pipeline:
    """``cli.main`` in-process: gen -> train -> infer -> eval -> ablate-steps,
    then the two malformed invocations the README says exit 2.

    A pass covers 500 poses.  Passes of 2000 poses took 8-9 s, three to a
    run, and their run-to-run spread was 13-22%; at 500 poses nine passes
    fit in a run and the spread of the median pass was 7%.
    """

    name = "pipeline"
    GEN_SEED, TRAIN_SEED, SAMPLE_SEED = 11, 5, 13
    MALFORMED_EXIT = 2

    def __init__(self, seed, run_dir, tiny):
        self.seed, self.run_dir = seed, run_dir
        self.poses = 200 if tiny else 500

    def setup(self):
        d = self.run_dir
        (d / "train.cfg").write_text(f"epochs=3\nbatch_size=64\nseed={self.TRAIN_SEED}\n")
        # A dataset without its #key=value header, and a checkpoint cut off
        # inside its first tensor: both are usage errors.
        row = ",".join(["0.5"] * synthworld.DEFAULT_COND_DIM) + "\n"
        (d / "headerless.csv").write_text("0.1,0,0,0.2,0,0," + row)
        (d / "conds.csv").write_text(
            f"#k={synthworld.DEFAULT_COND_DIM}\n#lift_seed=0\n#ambiguity=0\n#noise=0\n" + row)
        lines = CHECKPOINT.read_text().splitlines(keepends=True)
        (d / "truncated.txt").write_text("".join(lines[:20]))
        self.passes = 0
        self.hashes = None
        self.phases = {}
        self.problems = []

    def warmup(self):
        pass  # one-off costs of the first pass fall outside the median

    def _argv(self, out: Path):
        d = self.run_dir
        gen, train, infer = out / "gen", out / "train", out / "infer"
        seed = str(self.SAMPLE_SEED)
        return [
            ["gen", "--kind", "random-walk", "--n", str(self.poses),
             "--seed", str(self.GEN_SEED), "--out", str(gen)],
            ["train", "--dataset", str(gen / "dataset.csv"), "--config", str(d / "train.cfg"),
             "--out", str(train)],
            ["infer", "--checkpoint", str(train / "checkpoint.txt"),
             "--dataset", str(gen / "dataset.csv"), "--samples", "2", "--steps", "2",
             "--seed", seed, "--out", str(infer)],
            ["eval", str(infer / "est.tum"), str(gen / "gt.tum"),
             "--estimates", str(infer / "estimates.csv"), "--scale", "per_pair",
             "--out", str(out / "eval")],
            ["ablate-steps", "--checkpoint", str(train / "checkpoint.txt"),
             "--dataset", str(gen / "dataset.csv"), "--gt", str(gen / "gt.tum"),
             "--steps", "1,2", "--samples", "1", "--seed", seed, "--out", str(out / "ablate")],
        ]

    def _malformed(self):
        d = self.run_dir
        return [
            ["train", "--dataset", str(d / "headerless.csv"), "--out", str(d / "bad-train")],
            ["infer", "--checkpoint", str(d / "truncated.txt"),
             "--dataset", str(d / "conds.csv"), "--out", str(d / "bad-infer")],
        ]

    @staticmethod
    def _main(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def _pass(self, out):
        return [self._main(argv) for argv in self._argv(out)]

    def round(self, tracer) -> Round:
        out = self.run_dir / f"pass{self.passes}"
        dt, codes = _timed(tracer, self._pass, out)
        bad = [self._main(argv) for argv in self._malformed()]
        result = Round([dt], 7, sum(c != 0 for c in codes)
                       + sum(c != self.MALFORMED_EXIT for c in bad), self.poses)
        if any(codes):
            self.problems.append(f"pipeline: subcommand exit codes {codes}")
        for argv, code in zip(self._argv(out), codes):
            if code != 0:
                continue
            timings = json.loads((Path(argv[-1]) / "manifest.json").read_text())["timings"]
            for phase, seconds in timings.items():
                if phase != "total":
                    self.phases.setdefault(f"cli.{argv[0]}.{phase}_s", []).append(seconds)
        hashes = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.rglob("*"))
                  if p.is_file() and p.name != "manifest.json"}
        if self.hashes is None:
            self.hashes = hashes
        else:
            if hashes != self.hashes:
                self.problems.append(f"pipeline: pass {self.passes} artifacts differ from pass 0")
            shutil.rmtree(out)
        self.passes += 1
        return result

    def finish(self, problems: list) -> dict:
        problems.extend(self.problems)
        try:
            return self._check(self.run_dir / "pass0", problems)
        except (OSError, ValueError) as err:
            problems.append(f"pipeline: artifacts of the first pass unreadable: {err}")
            return {"ate_m": None, "fm_loss": None}

    def _check(self, out: Path, problems: list) -> dict:
        _, gt_t, gt_q = reference.read_tum(out / "gen" / "gt.tum")
        _, est_t, est_q = reference.read_tum(out / "infer" / "est.tum")
        means, _ = reference.read_estimates(out / "infer" / "estimates.csv")
        q, t = reference.chain(np.array([1.0, 0, 0, 0]), np.zeros(3),
                               reference.quat_exp(means[:, :3]), means[:, 3:])
        if not (np.allclose(t, est_t, rtol=0, atol=1e-8)
                and reference.same_rotations(q, est_q) < 1e-12):
            problems.append("pipeline: est.tum is not the composition of estimates.csv")
        _, gt_rel_t = reference.relative(gt_q, gt_t)
        _, scaled_t = reference.per_pair_scaled(est_q, est_t, gt_rel_t)
        ate = reference.read_metrics_ate(out / "eval" / "metrics.csv")
        expected = reference.umeyama_sim3_rmse(scaled_t, gt_t)
        if not abs(ate - expected) <= 1e-8 * expected:
            problems.append(f"pipeline: eval ATE {ate!r} differs from closed-form {expected!r}")
        data = np.loadtxt(out / "gen" / "dataset.csv", delimiter=",", comments="#", ndmin=2)
        net = vfnet.load_checkpoint(out / "train" / "checkpoint.txt")
        draws, conds = fm_sample(self.seed, data[:, :6], data[:, 6:])
        loss = reference.fm_loss(vfnet, net, draws, conds)
        return {"ate_m": ate, "fm_loss": loss}


WORKLOADS = {w.name: w for w in (Train, InferBatch, InferStream, Pipeline)}
