"""Benchmark of motionflow: training, batch and streaming inference, the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout.  One run sets up the workload's inputs
from the seed, measures whole rounds of its unit operation for S seconds,
checks every output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``--selfcheck`` runs every workload at tiny sizes with
every output check and no timing, and compares the metric names with
``BENCHMARK.json``.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One process and one BLAS thread: the machine has two cores, and small
# matrices gain nothing from a second BLAS thread but noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 11

# Per-layer metrics: (span name, statistics).  calls and self_ms are per
# unit operation of the traced rounds; rows is the mean per call; ms and
# ms_p95 are over every call in ops and set-up.  A workload that does not
# reach a layer reports 0 for it.
LAYERS = [
    ("se3.sample_initial_batch", ("calls", "rows", "self_ms")),
    ("se3.compose", ("calls", "self_ms")),
    ("se3.state_to_pose", ("calls", "self_ms")),
    ("se3.pose_to_state", ("calls", "self_ms")),
    ("vfnet.forward_batch", ("calls", "rows", "self_ms")),
    ("vfnet.backward_batch", ("calls", "self_ms")),
    ("vfnet.load_checkpoint", ("ms",)),
    ("vfnet.save_checkpoint", ("ms",)),
    ("flowmatch.adam_step", ("calls", "self_ms")),
    ("flowmatch.train", ("self_ms",)),
    ("sampler.integrate_field.midpoint", ("calls", "self_ms")),
    ("sampler.integrate_field.rk4", ("calls", "self_ms")),
    ("sampler.estimate_pose", ("calls", "self_ms", "ms_p95")),
    ("sampler.estimate_sequence", ("self_ms",)),
    ("synthworld.make_scenario", ("ms",)),
    ("synthworld.relative_motions", ("calls", "self_ms")),
    ("synthworld.ingest_features", ("ms", "rows")),
    ("trajeval.compose_trajectory", ("calls", "self_ms")),
    ("trajeval.scale_align", ("calls", "self_ms")),
    ("trajeval.umeyama_align", ("calls", "self_ms")),
    ("trajeval.read_tum", ("calls", "self_ms")),
    ("trajeval.write_tum", ("calls", "self_ms")),
    ("cli.main.gen", ("ms",)),
    ("cli.main.train", ("ms",)),
    ("cli.main.infer", ("ms",)),
    ("cli.main.eval", ("ms",)),
    ("cli.main.ablate-steps", ("ms",)),
]
STAT_UNITS = {"calls": ("count", "lower"), "rows": ("count", "higher"),
              "self_ms": ("ms", "lower"), "ms": ("ms", "lower"), "ms_p95": ("ms", "lower")}
# Layers each workload reaches, as the README's map documents them.  The
# self-check fails when any per-layer metric of one of them reads 0, so a
# layer that stops being reached does not read as a gain.
_INFER = ["se3.sample_initial_batch", "se3.state_to_pose", "se3.pose_to_state",
          "vfnet.forward_batch", "vfnet.load_checkpoint", "sampler.estimate_pose",
          "synthworld.ingest_features"]
REACHES = {
    "train": ["se3.sample_initial_batch", "vfnet.forward_batch", "vfnet.backward_batch",
              "flowmatch.adam_step", "flowmatch.train"],
    "infer-batch": _INFER + ["sampler.integrate_field.midpoint", "sampler.estimate_sequence"],
    "infer-stream": _INFER + ["sampler.integrate_field.rk4"],
    "pipeline": [name for name, _ in LAYERS if name != "sampler.integrate_field.rk4"],
}
# Phase timings the CLI writes to each manifest.json, median over passes.
PHASES = ["cli.gen.generate_s", "cli.gen.write_s", "cli.train.train_s", "cli.train.write_s",
          "cli.infer.sample_s", "cli.infer.write_s", "cli.eval.evaluate_s",
          "cli.ablate-steps.steps_1_s", "cli.ablate-steps.steps_2_s"]
END_TO_END = [("setup_s", "s"), ("items_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("peak_rss_mb", "MB"), ("ate_m", "m"), ("fm_loss", "1")]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [("trace.overhead_pct", "%", "lower"), ("sampler.nfe_per_sample", "count", "lower")]
    for name, stats in LAYERS:
        spec += [(f"{name}.{stat}",) + STAT_UNITS[stat] for stat in stats]
    return spec + [(phase, "s", "lower") for phase in PHASES]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    return args


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def reached_metrics(workload: str) -> list:
    """Per-layer metrics that must not read 0 on a workload."""
    stats = dict(LAYERS)
    names = [f"{layer}.{stat}" for layer in REACHES[workload] for stat in stats[layer]]
    if workload != "train":
        names.append("sampler.nfe_per_sample")
    return names + (PHASES if workload == "pipeline" else [])


def median(values):
    values = sorted(values)
    n = len(values)
    return 0.0 if n == 0 else 0.5 * (values[(n - 1) // 2] + values[n // 2])


def measure_setup(args) -> float:
    """Median time from process start to ready-to-run over fresh processes,
    each scaled by the host speed around it."""
    import hostspeed

    times = []
    before = hostspeed.kernel_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, __file__, "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
        after = hostspeed.kernel_s()
        times.append(elapsed * hostspeed.scale(before, after))
        before = after
    return median(times)


def run_rounds(workload, seconds, tracer):
    """Whole rounds until the time is up; traced runs alternate traced and
    untraced rounds, so the two can be compared within one run.  The
    calibration kernel runs between rounds and sets each round's scale."""
    import hostspeed

    rounds, traced = [], []
    deadline = time.perf_counter() + seconds
    gc.collect()
    before = hostspeed.kernel_s()
    while True:
        on = tracer is not None and len(rounds) % 2 == 0
        if on:
            tracer.install()
        gc.disable()
        try:
            rounds.append(workload.round(tracer if on else None))
        finally:
            gc.enable()
            if on:
                tracer.remove()
        traced.append(on)
        gc.collect()
        after = hostspeed.kernel_s()
        rounds[-1].scale = hostspeed.scale(before, after)
        before = after
        if time.perf_counter() >= deadline and (tracer is None or len(rounds) >= 2):
            return rounds, traced


def scaled_op_s(rounds):
    """Operation times scaled to the reference host."""
    return [s * r.scale for r in rounds for s in r.op_s]


def end_to_end(rounds, setup_s, rss_mb, quality):
    op_s = scaled_op_s(rounds)
    return {
        "setup_s": setup_s,
        "items_per_s": median([r.items / sum(r.op_s) / r.scale for r in rounds]),
        "op_ms_p50": 1e3 * median(op_s),
        "peak_rss_mb": rss_mb,
        "ate_m": quality["ate_m"],
        "fm_loss": quality["fm_loss"],
    }


def _layer_stat(layer, stat: str, ops: int, scale: float) -> float:
    import numpy as np

    if layer is None or not len(layer["durations"]):
        return 0.0
    if stat == "calls":
        return layer["calls"] / ops
    if stat == "self_ms":
        return 1e3 * scale * layer["self_s"] / ops
    if stat == "rows":
        return float(np.mean(layer["rows"]))
    return 1e3 * scale * float(np.percentile(layer["durations"], 95 if stat == "ms_p95" else 50))


def per_layer(rounds, traced, tracer, phases):
    """Per-layer metrics; times are scaled by the median scale of the
    traced rounds."""
    layers = tracer.layers()
    ops = max(layers["_ops"], 1)
    on = scaled_op_s([r for r, t in zip(rounds, traced) if t])
    off = scaled_op_s([r for r, t in zip(rounds, traced) if not t])
    scale = median([r.scale for r, t in zip(rounds, traced) if t])
    out = {"trace.overhead_pct": 100.0 * (median(on) / median(off) - 1.0) if off else 0.0,
           "sampler.nfe_per_sample": layers["_nfe_per_sample"]}
    for name, stats in LAYERS:
        for stat in stats:
            out[f"{name}.{stat}"] = _layer_stat(layers.get(name), stat, ops, scale)
    for phase in PHASES:
        out[phase] = scale * median(phases.get(phase, []))
    return out


def with_units(values, spec):
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in spec}


def tail_line(rounds) -> str:
    """Median and the highest percentile with at least ten operations
    beyond it, scaled; then the wall-time median and the median scale."""
    op_s = sorted(scaled_op_s(rounds))
    n = len(op_s)
    line = f"# {n} operations, p50 {1e3 * median(op_s):.3f} ms"
    if n >= 40:
        pct = int(100 * (n - 10) / n)
        line += f", p{pct} {1e3 * op_s[min(n - 1, pct * n // 100)]:.3f} ms"
    wall = [s for r in rounds for s in r.op_s]
    return line + (f" (scaled); wall p50 {1e3 * median(wall):.3f} ms, "
                   f"host scale {median([r.scale for r in rounds]):.3f}")


def run_workload(workload, seconds, tracer):
    """Set up (traced when tracing), warm up and measure.  Returns the
    rounds, which of them were traced, and the peak resident memory in MB
    up to the end of the timed phase."""
    import spans

    if tracer is not None:
        tracer.install()
        with tracer.span(spans.SETUP):
            workload.setup()
        tracer.remove()
    else:
        workload.setup()
    workload.warmup()
    rounds, traced = run_rounds(workload, seconds, tracer)
    return rounds, traced, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def selfcheck() -> int:
    import spans
    import workloads

    spec = declared()
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the benchmark's")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != END_TO_END:
        failures.append("BENCHMARK.json end_to_end metrics differ from the benchmark's")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != per_layer_spec():
        failures.append("BENCHMARK.json per_layer metrics differ from the benchmark's")
    RUNS.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        t0 = time.perf_counter()
        run_dir = Path(tempfile.mkdtemp(prefix=f"selfcheck-{name}-", dir=RUNS))
        try:
            workload = cls(7, run_dir, tiny=True)
            tracer = spans.Tracer(_modules())
            rounds, traced, rss_mb = run_workload(workload, 0.0, tracer)
            problems = []
            quality = workload.finish(problems)
            e2e = end_to_end(rounds, 0.0, rss_mb, quality)
            layers = per_layer(rounds, traced, tracer, getattr(workload, "phases", {}))
            zero = [m for m in reached_metrics(name) if not layers[m] > 0]
            problems += [f"{name}: per-layer metric {m} reads 0" for m in zero]
            attempted = sum(r.attempted for r in rounds)
            failed = sum(r.failed for r in rounds)
            print(f"{name}: {'ok' if not problems else 'FAILED'} in "
                  f"{time.perf_counter() - t0:.1f} s, {attempted} attempted, {failed} failed, "
                  f"ate_m {e2e['ate_m']}, fm_loss {e2e['fm_loss']}")
            failures += problems
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    for problem in failures:
        print("FAILED:", problem)
    return 1 if failures else 0


def _modules():
    from motionflow import cli, flowmatch, sampler, se3, synthworld, trajeval, vfnet

    return {"se3": se3, "vfnet": vfnet, "flowmatch": flowmatch, "sampler": sampler,
            "synthworld": synthworld, "trajeval": trajeval, "cli": cli}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "motionflow" / "__init__.py").is_file():
        print(f"error: no motionflow sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selfcheck:
        return selfcheck()
    if args.seconds is None:
        args.seconds = declared()["run_seconds"]

    RUNS.mkdir(exist_ok=True)
    setup_s = None
    if not args.setup_only and args.trace == 0:
        setup_s = measure_setup(args)

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=RUNS))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, run_dir, tiny=False)
        if args.setup_only:
            workload.setup()
            print("ready", flush=True)
            return 0
        tracer = spans.Tracer(_modules()) if args.trace else None
        rounds, traced, rss_mb = run_workload(workload, args.seconds, tracer)
        problems = []
        quality = workload.finish(problems)
        if tracer is None:
            metrics = with_units(end_to_end(rounds, setup_s, rss_mb, quality), END_TO_END)
        else:
            metrics = with_units(per_layer(rounds, traced, tracer,
                                           getattr(workload, "phases", {})), per_layer_spec())
            trace_path = RUNS / f"trace-{args.workload}-s{args.seed}-{os.getpid()}.json.gz"
            tracer.write(trace_path)
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print("FAILED:", problem, file=sys.stderr)
    print(tail_line(rounds))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
