"""The route-agreement and survey scripts run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, last_line", [
    (["scripts/method_agreement.py", "--max-n", "5", "--weyl-max-n", "4"],
     "n=5: 120 permutations agree"),
    (["scripts/survey_zero_one.py", "--max-n", "5"], "  5       120       115         0"),
])
def test_script_exits_zero(argv, last_line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last_line)
