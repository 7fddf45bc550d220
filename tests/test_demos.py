"""Every demo script runs to completion in a fresh process and prints its
results. Each runs in its own temporary directory, since the ensemble demo
writes demo_output/ into its working directory."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, child_env):
    proc = subprocess.run([sys.executable, str(demo)], env=child_env(1), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
