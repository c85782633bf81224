"""Smoke test of the scripts in scripts/ at tiny sizes.

They run estimate_sequence, PoseSampleSet.estimate and pose_to_state end
to end, which no other test reaches through a script.  Only the exit code
is checked; the numbers at these sizes mean nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["scripts/demo_pipeline.py", "--n", "11", "--epochs", "2"],
    ["scripts/ablation_steps.py", "--n", "11", "--epochs", "2", "--steps", "1,2"],
    ["scripts/ambiguity_sweep.py", "--epochs", "2", "--samples", "2"],
], ids=lambda argv: Path(argv[0]).stem)
def test_script_exits_0(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
