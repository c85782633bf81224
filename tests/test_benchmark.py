"""Smoke test of the benchmark in perfbench/.

Its self-check runs every workload at tiny sizes with all output checks,
and fails when a function the benchmark traces is missing or reads 0.
Running it here makes a rename or removal of such a function fail the
suite, not only the benchmark.  No timing is asserted.

The quality outputs are pinned: every estimate, checkpoint and loss the
self-check computes follows from its seeds, so a change meant to keep them
bit-identical must print these exact numbers.  A BLAS that rounds its
products differently would print others.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# workload -> (ate_m, fm_loss) as the self-check prints them
PINNED = {
    "train": ("1.752290070770668", "6.21473426742449"),
    "infer-batch": ("0.0832535373781228", "0.10252290919271491"),
    "infer-stream": ("0.1177342167036392", "0.10252290919271491"),
    "pipeline": ("1.3143940451867926", "7.823873180964948"),
}


def test_selfcheck_passes_with_no_failed_operations():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--selfcheck"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    workloads = [line for line in proc.stdout.splitlines() if " attempted, " in line]
    assert len(workloads) == 4, proc.stdout
    for line in workloads:
        assert " 0 failed," in line, line
        ate_m, fm_loss = PINNED[line.split(":")[0]]
        assert line.endswith(f", ate_m {ate_m}, fm_loss {fm_loss}"), line
