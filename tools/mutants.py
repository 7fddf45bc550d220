"""Check that the fast tests kill a fixed list of one-line mutants of the
package: each loosens a documented threshold, breaks a kernel term,
changes the matrix file format or drops a refusal.

    python tools/mutants.py

Each mutant replaces one exact piece of source text, which must occur
once, in a copy of this checkout made in a temporary directory. The copy
then runs `pytest -x tests --ignore=tests/test_acceptance.py` with one
BLAS thread, one mutant at a time. The script prints `killed` for a
mutant when a test fails, `survived` when every test passes and `error`
when pytest stops for another reason. Exits 1 unless every mutant is
killed. A SIGTERM stops the run and removes the copy. The run takes a
few minutes, so it is not part of tier-1; tests/test_tools.py checks that
each pattern still matches its source once.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, source text, mutated text)
MUTANTS = [
    ("norm guard loosened 1000x", "src/oaasim/circuit.py",
     "<= NORM_DRIFT_TOL * max(1.0, before)", "<= 1000 * NORM_DRIFT_TOL * max(1.0, before)"),
    ("SYMMETRY_TOL 1e-12 -> 1e-9", "src/oaasim/linalg.py",
     "SYMMETRY_TOL = 1e-12", "SYMMETRY_TOL = 1e-9"),
    ("SYMMETRY_TOL 1e-12 -> 1e-11", "src/oaasim/linalg.py",
     "SYMMETRY_TOL = 1e-12", "SYMMETRY_TOL = 1e-11"),
    ("ROW_NORM_CLAMP 1e-12 -> 1e-6", "src/oaasim/embedding.py",
     "ROW_NORM_CLAMP = 1e-12", "ROW_NORM_CLAMP = 1e-6"),
    ("GOOD_MASS_FLOOR 1e-24 -> 1e-20", "src/oaasim/circuit.py",
     "GOOD_MASS_FLOOR = NORM_DRIFT_TOL ** 2", "GOOD_MASS_FLOOR = 1e-20"),
    ("HOUSEHOLDER_DEGENERATE 1e-12 -> 1e-8", "src/oaasim/linalg.py",
     "HOUSEHOLDER_DEGENERATE = 1e-12", "HOUSEHOLDER_DEGENERATE = 1e-8"),
    ("adjoint norm drops its a_0 sum(w) Gram term", "src/oaasim/circuit.py",
     "+ a[0] * w.sum(), 0.0))", ", 0.0))"),
    ("peak takes the latest of tied records", "src/oaasim/amplification.py",
     "(r.probability, -r.iteration)", "(r.probability, r.iteration)"),
    ("unit-norm check loosened to 1e-6", "src/oaasim/linalg.py",
     "tol: float = 1e-12) -> None:", "tol: float = 1e-6) -> None:"),
    ("matrix files written at 16 significant digits", "src/oaasim/linalg.py",
     'fmt="%.16e"', 'fmt="%.15e"'),
    ("matrix body split on whitespace, not lines", "src/oaasim/linalg.py",
     'head[2].split("\\n")', "head[2].split()"),
    ("plan skips its symmetry check", "src/oaasim/matfunc.py",
     "check_symmetric(w)", "w"),
    ("LCU list skips its orthogonality check", "src/oaasim/circuit.py",
     '_check_orthogonal(mat, f"unitaries[{i}]")', "mat"),
    ("choice check accepts a non-string", "src/oaasim/linalg.py",
     "isinstance(value, str) and ", ""),
]
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests",
          "--ignore=tests/test_acceptance.py"]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "perfbench")


def mutate(copy: Path, path: str, old: str, new: str) -> None:
    target = copy / path
    text = target.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: {old!r} occurs {text.count(old)} times, not once")
    target.write_text(text.replace(old, new))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    # a SIGTERM unwinds like Ctrl-C: subprocess.run kills its pytest child
    # and the temporary directory takes the copy with it
    signal.signal(signal.SIGTERM, _terminate)
    killed = 0
    for name, path, old, new in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "tree"
            shutil.copytree(ROOT, copy, ignore=IGNORED)
            mutate(copy, path, old, new)
            env = dict(os.environ, PYTHONPATH=str(copy / "src"), OPENBLAS_NUM_THREADS="1",
                       OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
            code = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True).returncode
        outcome = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
        killed += code == 1
        print(f"{outcome}: {name}", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
