"""Shared test settings: hypothesis runs derandomized and without a
per-example deadline, so property tests are reproducible and slow hosts
cannot fail them on timing. child_env is the environment of a fresh process
that imports the package under test; run_child runs a snippet in one."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import oaasim

settings.register_profile("oaasim", derandomize=True, deadline=None)
settings.load_profile("oaasim")


@pytest.fixture
def child_env():
    """env(threads) is the environment of a child process with `threads`
    BLAS threads (never test more than two) and the package under test
    first on its path."""
    path = [str(Path(oaasim.__file__).resolve().parent.parent)]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]

    def env(threads: int) -> dict:
        return dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                    OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
                    PYTHONPATH=os.pathsep.join(path))

    return env


@pytest.fixture
def run_child(child_env):
    """run(script, threads) runs the Python source `script` in a child
    process with the environment of child_env(threads) and returns its
    stdout."""

    def run(script: str, threads: int) -> str:
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(threads),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
