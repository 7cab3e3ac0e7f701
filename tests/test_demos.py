"""Every demo script runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import multicate

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# the directory that holds the imported package, so a demo run from another
# working directory imports the same code
PACKAGE_ROOT = str(Path(multicate.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # demos write their CSV and DOT outputs into the working directory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
