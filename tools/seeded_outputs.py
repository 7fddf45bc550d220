"""Run a fixed list of seeded oaasim CLI calls and keep everything they print
and write, so two checkouts can be compared with `diff -r`.

    python tools/seeded_outputs.py OUTDIR

The package is imported from the `src` directory next to this script, so
each checkout runs its own code. Input files are drawn from numpy's PCG64
generator (stable across numpy versions) and written to OUTDIR/inputs
without going through the package. Each call runs in process from its own
directory OUTDIR/<name>, with relative paths, so nothing printed depends
on where OUTDIR is; naming it by the call alone keeps the other calls
aligned under `diff -r` when one is added or removed. That directory
receives the files the call wrote plus `exit`, `stdout` and `stderr`. Run
it with OPENBLAS_NUM_THREADS=1 for outputs independent of the BLAS thread
count.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oaasim.cli import main  # noqa: E402

AMPLIFY = [
    (f"amplify-{variant}-{mode}",
     ["amplify", "--matrix", "../inputs/a16.txt", "--input", "../inputs/v16.txt",
      "--variant", variant, "--fidelity", mode, "--out", "trace.csv"])
    for variant in ("literal", "adjoint") for mode in ("embedded", "projected")
]
EXPERIMENTS = [
    (f"experiment-{kind}-{variant}",
     ["experiment", "--kind", kind, "--dims", "16,32", "--trials", "3", "--seed", "7",
      "--variant", variant, "--out", "."])
    for kind in ("ensemble", "fixed", "trace") for variant in ("literal", "adjoint")
] + [
    (f"experiment-{kind}-{variant}-projected",
     ["experiment", "--kind", kind, "--dims", "16,32", "--trials", "3", "--seed", "7",
      "--variant", variant, "--fidelity", "projected", "--out", "."])
    for kind in ("ensemble", "fixed", "trace") for variant in ("literal", "adjoint")
]
CALLS = [
    ("embed-estimated", ["embed", "--matrix", "../inputs/a16.txt", "--out", "u.txt"]),
    *AMPLIFY,
    *EXPERIMENTS,
    ("product", ["product", "--factors", "../inputs/w0.txt", "../inputs/w1.txt",
                 "--input", "../inputs/v4.txt", "--out", "."]),
    ("matfunc-exp", ["matfunc", "--fn", "exp", "--matrix", "../inputs/small4.txt",
                     "--trunc", "3", "--input", "../inputs/v4.txt", "--out", "."]),
    ("matfunc-cos", ["matfunc", "--fn", "cos", "--matrix", "../inputs/small4.txt",
                     "--trunc", "2", "--out", "."]),
    # embedded order 128: the largest closeness of the acceptance ensemble
    ("embed-estimated-64", ["embed", "--matrix", "../inputs/a64.txt", "--out", "u.txt"]),
    # chains whose classical result, as a matrix, overflows or underflows
    ("matfunc-exp-diag-neg", ["matfunc", "--fn", "exp", "--matrix", "../inputs/diag-neg.txt",
                              "--trunc", "4", "--variant", "adjoint", "--out", "."]),
    ("matfunc-exp-diag-big", ["matfunc", "--fn", "exp", "--matrix", "../inputs/diag-big.txt",
                              "--trunc", "4", "--variant", "adjoint", "--out", "."]),
    # e1 lies in the eigenspace of -1000 alone: exp(-1000) e1 underflows
    ("matfunc-exp-diag-zero-neg", ["matfunc", "--fn", "exp", "--matrix",
                                   "../inputs/diag-zero-neg.txt", "--trunc", "4",
                                   "--input", "../inputs/e1.txt", "--variant", "adjoint",
                                   "--out", "."]),
    ("product-diag-tiny", ["product", "--factors", "../inputs/diag-tiny.txt",
                           "../inputs/diag-tiny.txt", "--variant", "adjoint", "--out", "."]),
    ("product-diag-huge", ["product", "--factors", "../inputs/diag-huge.txt",
                           "../inputs/diag-huge.txt", "--variant", "adjoint", "--out", "."]),
]


def _write(path: Path, m) -> None:
    """The package's matrix file format: "rows cols", then one row per line."""
    m = np.atleast_2d(m)
    rows = [" ".join(f"{x:.16e}" for x in row) for row in m]
    path.write_text("\n".join([f"{m.shape[0]} {m.shape[1]}", *rows]) + "\n")


def write_inputs(inputs: Path) -> None:
    rng = np.random.default_rng(20161)
    inputs.mkdir(parents=True)

    def sym(n):
        g = rng.uniform(-1.0, 1.0, (n, n))
        return np.triu(g) + np.triu(g, 1).T

    _write(inputs / "a16.txt", sym(16))
    _write(inputs / "v16.txt", rng.uniform(-1.0, 1.0, 16))
    rng.uniform(-1.0, 1.0, 8 + 33)  # draws of two retired inputs: later inputs keep their values
    _write(inputs / "w0.txt", sym(4))
    _write(inputs / "w1.txt", sym(4))
    _write(inputs / "v4.txt", rng.uniform(-1.0, 1.0, 4))
    _write(inputs / "small4.txt", 0.25 * sym(4))
    _write(inputs / "a64.txt", sym(64))  # drawn last: earlier inputs keep their values
    for name, diagonal in (("diag-neg", [-1000.0, -2000.0]), ("diag-big", [800.0, 1.0]),
                           ("diag-zero-neg", [0.0, -1000.0]), ("diag-tiny", [1e-200, 2e-200]),
                           ("diag-huge", [1e200, 1.0])):
        _write(inputs / f"{name}.txt", np.diag(diagonal))
    _write(inputs / "e1.txt", np.array([0.0, 1.0]))


def run_call(workdir: Path, argv: list) -> None:
    workdir.mkdir()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
    finally:
        os.chdir(cwd)
    (workdir / "exit").write_text(f"{code}\n")
    (workdir / "stdout").write_text(out.getvalue())
    (workdir / "stderr").write_text(err.getvalue())


def run_all(outdir: Path) -> None:
    """Write the inputs and every call's record under outdir, which must
    not exist yet."""
    outdir.mkdir(parents=True)
    write_inputs(outdir / "inputs")
    for name, argv in CALLS:
        run_call(outdir / name, argv)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: seeded_outputs.py OUTDIR")
    run_all(Path(sys.argv[1]))
