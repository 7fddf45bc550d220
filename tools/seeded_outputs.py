"""Run a fixed list of seeded oaasim CLI calls and keep everything they print
and write, so two checkouts can be compared with `diff -r`.

    python tools/seeded_outputs.py OUTDIR
    python tools/seeded_outputs.py --compare A B --rtol R --atol F

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

The compare form checks two such directories when a numerical route
changes: every file must be in both, its text outside numbers must match
exactly, and each number may differ from its counterpart by at most F,
or else by at most R relative to the larger magnitude. It prints one line
per file that is not identical and exits 1 if any file breaks these rules.

tests/seeded holds this script's output at the current code, without
`inputs` and the order-128 `u.txt`; tests/test_tools.py compares a fresh
run with it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oaasim.cli import main  # noqa: E402
from oaasim.experiments import EXPERIMENT_KINDS  # noqa: E402

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
    for kind in EXPERIMENT_KINDS for variant in ("literal", "adjoint")
] + [
    (f"experiment-{kind}-{variant}-projected",
     ["experiment", "--kind", kind, "--dims", "16,32", "--trials", "3", "--seed", "7",
      "--variant", variant, "--fidelity", "projected", "--out", "."])
    for kind in EXPERIMENT_KINDS for variant in ("literal", "adjoint")
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
    # embedded order 256, k = 12: the benchmark's amplify call
    *[(f"amplify-{variant}-128",
       ["amplify", "--matrix", "../inputs/a128.txt", "--input", "../inputs/v128.txt",
        "--k", "12", "--variant", variant, "--out", "trace.csv"])
      for variant in ("literal", "adjoint")],
    # order 1, k = 20: the literal iterate empties the good states, leaving
    # rounding residue that the good-mass floor records as zero
    ("amplify-literal-emptied", ["amplify", "--matrix", "../inputs/a1.txt", "--input",
                                 "../inputs/v1.txt", "--k", "20", "--variant", "literal",
                                 "--out", "trace.csv"]),
]


def _write(path: Path, m) -> None:
    """The package's matrix file format: "rows cols", then one row per line."""
    m = np.atleast_2d(m)
    np.savetxt(path, m, fmt="%.16e", header=f"{m.shape[0]} {m.shape[1]}", comments="")


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
    # each later input is drawn after those above, so they keep their values
    _write(inputs / "a64.txt", sym(64))
    _write(inputs / "a128.txt", sym(128))
    _write(inputs / "v128.txt", rng.uniform(-1.0, 1.0, 128))
    for name, diagonal in (("diag-neg", [-1000.0, -2000.0]), ("diag-big", [800.0, 1.0]),
                           ("diag-zero-neg", [0.0, -1000.0]), ("diag-tiny", [1e-200, 2e-200]),
                           ("diag-huge", [1e200, 1.0])):
        _write(inputs / f"{name}.txt", np.diag(diagonal))
    _write(inputs / "e1.txt", np.array([0.0, 1.0]))
    # positive: only then does the literal iterate empty the good states
    _write(inputs / "a1.txt", abs(sym(1)))
    _write(inputs / "v1.txt", np.array([1.0]))


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


# a decimal number as the package prints it, not the digits of a name such as
# c2 or dim16; the text between numbers must match
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan))")


def relative_drift(a: str, b: str, atol: float = 0.0) -> float | None:
    """The largest relative difference |x - y| / max(|x|, |y|) between the
    numbers of a and b, taken in order, over the pairs with |x - y| > atol,
    or None when the text around them differs. Numbers written alike count
    as equal, nan included; a non-finite number against another number
    drifts by inf."""
    parts_a, parts_b = NUMBER.split(a), NUMBER.split(b)
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return None
    worst = 0.0
    for x, y in zip(parts_a[1::2], parts_b[1::2]):
        if x != y and float(x) != float(y):
            x, y = float(x), float(y)
            if abs(x - y) <= atol:
                continue
            drift = abs(x - y) / max(abs(x), abs(y))
            worst = max(worst, math.inf if math.isnan(drift) else drift)
    return worst


def compare(a: Path, b: Path, rtol: float, atol: float = 0.0) -> tuple[list, bool]:
    """(report lines, ok) for the directories a and b: a line per file that
    is missing on one side, differs outside its numbers, or differs in a
    number (with its largest relative drift beyond atol); ok unless such a
    drift exceeds rtol or a file is missing or differs as text."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    lines, ok = [], True
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            lines.append(f"{rel}: only in {a if rel in files_a else b}")
            ok = False
            continue
        text_a, text_b = (a / rel).read_text(), (b / rel).read_text()
        if text_a == text_b:
            continue
        drift = relative_drift(text_a, text_b, atol)
        if drift is None:
            lines.append(f"{rel}: text differs")
            ok = False
        else:
            lines.append(f"{rel}: numbers drift by at most {drift:.3g}")
            ok = ok and drift <= rtol
    return lines, ok


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", nargs="?", type=Path, help="directory to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--rtol", type=float, default=0.0)
    parser.add_argument("--atol", type=float, default=0.0)
    args = parser.parse_args()
    if args.compare:
        report, ok = compare(*args.compare, args.rtol, args.atol)
        verdict = f"{'within' if ok else 'NOT within'} rtol {args.rtol:g} atol {args.atol:g}"
        print("\n".join(report + [verdict]))
        sys.exit(0 if ok else 1)
    if args.outdir is None:
        parser.error("give OUTDIR, or --compare A B")
    run_all(args.outdir)
