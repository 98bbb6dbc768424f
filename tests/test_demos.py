import os
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitzlab

SRC = Path(hurwitzlab.__file__).parent.parent
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
