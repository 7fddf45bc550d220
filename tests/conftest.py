"""Shared test settings: hypothesis runs derandomized and without a
per-example deadline, so property tests are reproducible and slow hosts
cannot fail them on timing. run_child runs a snippet in a fresh process."""

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
def run_child():
    """run(script, threads) runs the Python source `script` in a child
    process with `threads` BLAS threads (never test more than two) and the
    package under test first on its path, and returns its stdout."""
    path = [str(Path(oaasim.__file__).resolve().parent.parent)]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]

    def run(script: str, threads: int) -> str:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
