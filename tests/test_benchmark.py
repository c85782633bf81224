"""Smoke test of the benchmark in perfbench/.

Its self-check runs every workload at tiny sizes with all output checks,
and fails when a function the benchmark traces is missing or reads 0.
Running it here makes a rename or removal of such a function fail the
suite, not only the benchmark.  No timing is asserted.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_selfcheck_passes_with_no_failed_operations():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--selfcheck"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    workloads = [line for line in proc.stdout.splitlines() if " attempted, " in line]
    assert len(workloads) == 4, proc.stdout
    for line in workloads:
        assert " 0 failed," in line, line
