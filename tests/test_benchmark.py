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

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# workload -> (ate_m, fm_loss) as the self-check prints them
PINNED = {
    "train": ("1.7522900707706681", "6.21473426742449"),
    "infer-batch": ("0.08325353737812272", "0.10252290919271491"),
    "infer-stream": ("0.11773421670363818", "0.10252290919271491"),
    "pipeline": ("1.314394045186641", "7.823873180964948"),
}


def test_selfcheck_passes_with_no_failed_operations():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--selfcheck"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    workloads = [line for line in proc.stdout.splitlines() if " attempted, " in line]
    assert len(workloads) == 4, proc.stdout
    moved = []
    for line in workloads:
        assert " 0 failed," in line, line
        name = line.split(":")[0]
        printed = re.search(r", ate_m (\S+), fm_loss (\S+)$", line)
        printed = printed.groups() if printed else ("?", "?")
        if printed != PINNED[name]:
            moved.append((name, *PINNED[name], *printed))
    # Every moved pin at once, so one run shows all that a change moved.
    table = [("workload", "pinned ate_m", "pinned fm_loss", "printed ate_m", "printed fm_loss"),
             *moved]
    assert not moved, "pinned outputs moved:\n" + "\n".join(
        "".join(f"{cell:<22}" for cell in row).rstrip() for row in table)
