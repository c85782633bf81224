"""Command-line front end tying the pipeline together.

One binary, five subcommands:

  gen           synthesize a scenario: dataset CSV + ground-truth TUM file
  train         fit a vector field on a dataset, write checkpoint + loss CSV
  infer         sample relative poses for every condition, write estimates
  eval          ATE of an estimated trajectory against ground truth
  ablate-steps  ATE as a function of the integrator step count

Every command takes --out; main makes it, runs the command and writes the
manifest.json it returns: what ran (configs, seed, every input file by
flag name, eval --estimates too, artifact paths, counts, phase timings,
and the Python, numpy and platform), and maps errors to one exit-code
contract: 0 success, 2 usage or argument error, 1 runtime failure.  Every
command but eval, which draws nothing and records seed 0, also takes
--seed.  All randomness derives from that single seed, so rerunning a
command with the manifest's inputs, config and seed reproduces its
artifacts byte for byte (the manifest itself records wall-clock timings
and is the one file excluded from that guarantee).
"""

import argparse
import dataclasses
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, flowmatch, sampler, se3, synthworld, textio, trajeval, vfnet


class UsageError(Exception):
    """Bad arguments or missing/invalid input files; exits with code 2."""


# --- manifest -----------------------------------------------------------------


def _environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


@dataclass
class RunManifest:
    """Everything needed to reproduce a run, plus what it produced.

    The seed is recorded at construction time, before any randomness is
    consumed; outputs, counts and timings are filled in as the command
    runs.  counts holds the work a run did that its config implies, such
    as the field evaluations per flow sample of infer and ablate-steps.
    timings holds each phase's seconds, timed by lap() from construction
    or from the previous lap.
    """

    command: str
    seed: int
    config: dict
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    environment: dict = field(default_factory=_environment)
    version: str = __version__

    def __post_init__(self):
        self._lap_start = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.timings[name] = now - self._lap_start
        self._lap_start = now

    def write(self, out: Path) -> None:
        """Write out/manifest.json with the phase timings and their total."""
        record = dataclasses.asdict(self)
        record["timings"]["total"] = sum(self.timings.values())
        with open(out / "manifest.json", "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")


# --- argument plumbing ---------------------------------------------------------


def _number(kind, low, high=None):
    """argparse type: a finite kind (int or float) value in [low, high]."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and low <= value and (high is None or value <= high)):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it for unparsable text
    return parse


def _step_list(text: str) -> list:
    steps = [_number(int, 1)(cell) for cell in text.split(",")]
    repeated = [k for i, k in enumerate(steps) if k in steps[:i]]
    if repeated:
        raise argparse.ArgumentTypeError(f"step count {repeated[0]} repeated in {text}")
    return steps


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as err:
        raise UsageError(f"--out {out} is not a directory: {err.strerror}")
    return out


def _inputs(args, *flags) -> dict:
    """The input files given under flags, by flag name, each spelled as Path does."""
    return {flag: str(Path(getattr(args, flag))) for flag in flags
            if getattr(args, flag) is not None}


def _read_input(path, what: str, reader):
    """reader(path), with a missing file or a ValueError from the reader
    turned into a usage error."""
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"{what} not found: {path}")
    try:
        return reader(path)
    except ValueError as err:
        raise UsageError(f"bad {what}: {err}")


def _check_cond_dim(net, cond_dim: int) -> None:
    if net.config.cond_dim != cond_dim:
        raise UsageError(f"checkpoint expects condition dim {net.config.cond_dim}, "
                         f"dataset has {cond_dim}")


def _read_model(args):
    """(net, conds): the checkpoint, and the conditions of a nonempty
    dataset of the checkpoint's condition dim."""
    net = _read_input(args.checkpoint, "checkpoint", vfnet.load_checkpoint)
    rows = _read_input(args.dataset, "dataset", synthworld.ingest_features)
    if not rows:
        raise UsageError(f"dataset has no rows: {args.dataset}")
    _check_cond_dim(net, rows[0][0].dim)
    return net, [cond for cond, _ in rows]


def _sample(net, conds, solver, samples: int, seed: int):
    """(estimates for conds, the trajectory their chart means chain to from
    the identity), sampled from a generator seeded afresh with seed.  So
    every step count of ablate-steps and scripts/demo_pipeline.py draws
    what infer draws with that seed, and rows differ only in the integrator."""
    estimates = sampler.estimate_sequence(
        net, conds, solver, samples, np.random.default_rng(np.random.SeedSequence(seed)))
    means = np.stack([e.mean_state.as_vector() for e in estimates])
    return estimates, trajeval.compose_trajectory(se3.IDENTITY, se3.state_to_pose(means))


def _motions(traj, path):
    """traj's relative motions; one that overflows makes path, traj's file, a bad input."""
    try:
        return synthworld.relative_motions(traj)
    except ValueError as err:
        raise UsageError(f"bad trajectory: {path}: a relative motion overflows: {err}")


def _ate(est, gt, args, est_path=None) -> float:
    """ATE of est (read from est_path, or computed) against gt, read from
    args.gt, after rescaling est's relative translations by args.scale.
    An overflow makes the input files bad, unless est was computed and
    lies further from the origin than gt: then the integration diverged.
    Files that cannot be aligned are bad too; a computed est keeps its error."""
    try:
        if args.scale != "none":
            est_q, est_t = _motions(est, est_path) if est_path else synthworld.relative_motions(est)
            scaled = trajeval.scale_align(est_t, _motions(gt, args.gt)[1], args.scale)
            est = trajeval.compose_trajectory((est.q[:1], est.t[:1]), (est_q, scaled))
        return trajeval.ate(est, gt, args.align)
    except trajeval.DegenerateTrajectoryError as err:
        if est_path is None:
            raise
        raise UsageError(f"bad trajectories: {est_path} and {args.gt} cannot be aligned: {err}")
    except FloatingPointError as err:
        if est_path is None and np.abs(est.positions()).max() > np.abs(gt.positions()).max():
            raise sampler.IntegrationDivergedError(
                f"integration diverged: the ATE of the estimates against {args.gt} "
                f"overflows the float range: {err}")
        raise UsageError(f"bad trajectories: the ATE of {est_path or 'the estimates'} "
                         f"against {args.gt} overflows the float range: {err}")


# --- subcommands ----------------------------------------------------------------


def cmd_gen(args, out: Path) -> RunManifest:
    manifest = RunManifest(
        command=args.command,
        seed=args.seed,
        config={
            "kind": args.kind,
            "n": args.n,
            "ambiguity": args.ambiguity,
            "noise_sigma": args.noise,
            "cond_dim": args.cond_dim,
            "name": args.name or args.kind,
        },
    )

    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    try:
        scenario = synthworld.make_scenario(
            manifest.config["name"], args.kind, args.n, args.ambiguity,
            args.noise, rng, cond_dim=args.cond_dim,
        )
    except ValueError as err:  # argparse bounds every other flag; the noise can overflow
        raise UsageError(f"bad --noise {args.noise}: {err}")
    manifest.config["lift_seed"] = scenario.lift_seed
    manifest.lap("generate")

    dataset_path = out / "dataset.csv"
    gt_path = out / "gt.tum"
    synthworld.write_scenario_dataset(dataset_path, scenario)
    trajeval.write_tum(gt_path, scenario.gt_trajectory)
    manifest.lap("write")

    manifest.outputs = {"dataset": str(dataset_path), "gt": str(gt_path)}
    print(f"wrote {len(scenario.pairs)} pairs to {dataset_path}")
    return manifest


def cmd_train(args, out: Path) -> RunManifest:
    dataset_path = Path(args.dataset)
    rows = _read_input(dataset_path, "dataset", synthworld.ingest_features)

    config = flowmatch.TrainConfig()
    if args.config is not None:
        config = _read_input(args.config, "config file", flowmatch.load_train_config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    pairs = [pair for _, pair in rows if pair is not None]
    if not pairs:
        raise UsageError(f"dataset has no ground-truth rows: {dataset_path}")

    net = None
    if args.checkpoint is not None:
        net = _read_input(args.checkpoint, "checkpoint", vfnet.load_checkpoint)
        _check_cond_dim(net, pairs[0].cond.dim)

    manifest = RunManifest(
        command=args.command,
        seed=config.seed,
        config={"train": dataclasses.asdict(config), "resumed": args.checkpoint is not None},
        inputs=_inputs(args, "dataset", "config", "checkpoint"),
    )

    net, history = flowmatch.train(pairs, config, net=net)
    manifest.config["net"] = dataclasses.asdict(net.config)
    manifest.lap("train")

    checkpoint_path = out / "checkpoint.txt"
    loss_path = out / "loss.csv"
    vfnet.save_checkpoint(checkpoint_path, net)
    flowmatch.write_loss_history(loss_path, history)
    manifest.lap("write")

    manifest.outputs = {"checkpoint": str(checkpoint_path), "loss": str(loss_path)}
    print(f"trained {len(history)} steps, final loss {history[-1][2]:.6g}, "
          f"checkpoint at {checkpoint_path}")
    return manifest


def cmd_infer(args, out: Path) -> RunManifest:
    net, conds = _read_model(args)

    solver = sampler.SolverConfig(method=args.method, steps=args.steps)
    manifest = RunManifest(
        command=args.command,
        seed=args.seed,
        config={
            "solver": dataclasses.asdict(solver),
            "samples": args.samples,
        },
        inputs=_inputs(args, "checkpoint", "dataset"),
        counts={"nfe_per_sample": solver.nfe_per_sample},
    )

    estimates, traj = _sample(net, conds, solver, args.samples, args.seed)
    # Every ATE squares the positions: estimates that overflow there are a
    # diverged model, not files eval should reject.
    positions = traj.positions()
    with np.errstate(over="ignore"):  # an overflow is inf, raised below
        finite = np.isfinite(np.sum(positions * positions, axis=1))
    if not finite.all():
        k = int(np.argmin(finite))
        raise sampler.IntegrationDivergedError(
            f"integration diverged: estimated position {k} overflows the float range "
            f"once squared: {positions[k]}")
    manifest.lap("sample")

    estimates_path = out / "estimates.csv"
    est_traj_path = out / "est.tum"
    sampler.write_estimates_csv(estimates_path, estimates)
    trajeval.write_tum(est_traj_path, traj)
    manifest.lap("write")

    manifest.outputs = {"estimates": str(estimates_path), "trajectory": str(est_traj_path)}
    print(f"estimated {len(estimates)} motions ({args.samples} samples each) "
          f"to {estimates_path}")
    return manifest


def cmd_eval(args, out: Path) -> RunManifest:
    est = _read_input(args.est, "estimated trajectory", trajeval.read_tum)
    gt = _read_input(args.gt, "ground-truth trajectory", trajeval.read_tum)
    if len(est) != len(gt):
        raise UsageError(
            f"trajectory length mismatch: estimate has {len(est)} poses, "
            f"ground truth has {len(gt)}")
    unequal = np.flatnonzero(est.stamps != gt.stamps)
    if unequal.size:
        i = unequal[0]
        raise UsageError(f"trajectory stamp mismatch at pose {i}: estimate has "
                         f"{textio.fmt([est.stamps[i]])}, ground truth has "
                         f"{textio.fmt([gt.stamps[i]])}")

    name = args.name or Path(args.est).stem
    if any(char in name for char in ",\r\n"):
        raise UsageError(f"scenario name {name!r} holds a comma or a line break; "
                         "set --name to one without")
    manifest = RunManifest(
        command=args.command,
        seed=0,
        config={"align": args.align, "scale": args.scale, "name": name},
        inputs=_inputs(args, "est", "gt", "estimates"),
    )

    ate_rmse = _ate(est, gt, args, args.est)
    std_rot, std_trans = float("nan"), float("nan")
    if args.estimates is not None:
        _, stds = _read_input(args.estimates, "estimates file", sampler.read_estimates_csv)
        if len(stds) != len(est) - 1:
            raise UsageError(
                f"bad estimates file: {args.estimates} has {len(stds)} rows, but the "
                f"trajectories have {len(est)} poses; expected {len(est) - 1}")
        if len(stds):  # mean sampling std, split into rotation/translation
            std_rot, std_trans = float(np.mean(stds[:, :3])), float(np.mean(stds[:, 3:]))
    manifest.lap("evaluate")

    metrics_path = out / "metrics.csv"
    trajeval.write_metrics_csv(metrics_path, [
        (name, args.align, args.scale, ate_rmse, std_rot, std_trans),
    ])
    manifest.lap("write")

    manifest.outputs = {"metrics": str(metrics_path)}
    print(f"ate_rmse {textio.fmt([ate_rmse])} (align={args.align}, scale={args.scale})")
    return manifest


def cmd_ablate_steps(args, out: Path) -> RunManifest:
    net, conds = _read_model(args)
    gt = _read_input(args.gt, "ground-truth trajectory", trajeval.read_tum)
    if len(conds) != len(gt) - 1:
        raise UsageError(
            f"dataset has {len(conds)} motions but ground truth has "
            f"{len(gt)} poses; expected {len(gt) - 1}")

    manifest = RunManifest(
        command=args.command,
        seed=args.seed,
        config={
            "method": args.method,
            "steps": args.steps,
            "samples": args.samples,
            "align": args.align,
            "scale": args.scale,
        },
        inputs=_inputs(args, "checkpoint", "dataset", "gt"),
        counts={"nfe_per_sample": [sampler.SolverConfig(args.method, steps).nfe_per_sample
                                   for steps in args.steps]},
    )

    table = []
    for steps in args.steps:
        solver = sampler.SolverConfig(method=args.method, steps=steps)
        # No row's samples stay alive while the next row samples.
        table.append((steps, _ate(_sample(net, conds, solver, args.samples, args.seed)[1],
                                  gt, args)))
        manifest.lap(f"steps_{steps}")

    ablation_path = out / "ablation.csv"
    textio.write_lines(ablation_path, ["steps,ate_rmse"] + [
        f"{steps}," + textio.fmt([ate_rmse]) for steps, ate_rmse in table])

    manifest.outputs = {"ablation": str(ablation_path)}
    for steps, ate_rmse in table:
        print(f"steps {steps:4d}: ate_rmse {textio.fmt([ate_rmse])}")
    return manifest


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionflow",
        description="Generative relative-pose estimation pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="synthesize a scenario dataset")
    train = sub.add_parser("train", help="fit a vector field on a dataset")
    infer = sub.add_parser("infer", help="sample motions for every condition")
    ev = sub.add_parser("eval", help="trajectory error against ground truth")
    ablate = sub.add_parser("ablate-steps",
                            help="ATE versus integrator step count")

    # A flag that several commands share with one meaning is declared once.
    for command in (infer, ablate):
        command.add_argument("--checkpoint", required=True)
        command.add_argument("--dataset", required=True,
                             help="conditions to estimate (ground truth ignored)")
        command.add_argument("--method", choices=sampler.SOLVER_METHODS,
                             default="midpoint")
        command.add_argument("--samples", type=_number(int, 1), default=10,
                             help="flow samples per condition")
    for command in (gen, infer, ablate):
        command.add_argument("--seed", type=_number(int, 0), default=0)
    for command in (ev, ablate):
        command.add_argument("--align", choices=trajeval.ALIGN_MODES, default="sim3")
        command.add_argument("--scale", choices=trajeval.SCALE_MODES, default="none",
                             help="relative-translation rescaling")

    gen.add_argument("--kind", choices=synthworld.TRAJECTORY_KINDS, default="figure8")
    gen.add_argument("--n", type=_number(int, 2), default=200,
                     help="number of trajectory poses (pairs = n - 1)")
    gen.add_argument("--ambiguity", type=_number(float, 0.0, 1.0), default=0.0,
                     help="scale-observability suppression in [0, 1]")
    gen.add_argument("--noise", type=_number(float, 0.0), default=0.0,
                     help="condition noise sigma")
    gen.add_argument("--cond-dim", type=_number(int, 1),
                     default=synthworld.DEFAULT_COND_DIM)
    gen.add_argument("--name", help="scenario name (default: kind)")
    gen.set_defaults(func=cmd_gen)

    train.add_argument("--dataset", required=True)
    train.add_argument("--config", help="key=value training config file")
    train.add_argument("--checkpoint", help="resume from this checkpoint")
    train.add_argument("--seed", type=_number(int, 0), help="overrides the config seed")
    train.set_defaults(func=cmd_train)

    infer.add_argument("--steps", type=_number(int, 1), default=5)
    infer.set_defaults(func=cmd_infer)

    ev.add_argument("est", help="estimated trajectory (TUM format)")
    ev.add_argument("gt", help="ground-truth trajectory (TUM format)")
    ev.add_argument("--estimates", help="estimates CSV for sampling-spread columns")
    ev.add_argument("--name", help="scenario column value")
    ev.set_defaults(func=cmd_eval)

    ablate.add_argument("--gt", required=True,
                        help="ground-truth trajectory (TUM format)")
    ablate.add_argument("--steps", type=_step_list, default=[2, 5, 10],
                        help="comma-separated step counts")
    ablate.set_defaults(func=cmd_ablate_steps)

    for command in sub.choices.values():
        command.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = _out_dir(args)
        args.func(args, out).write(out)
        return 0
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (flowmatch.TrainingDivergedError, sampler.IntegrationDivergedError,
            ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
