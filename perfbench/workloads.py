"""The benchmark's three workloads: inputs, timed calls and output checks.

Each workload makes its inputs from the seed with the benchmark's own
code, calls public ``oaasim`` entry points (looked up on the module at call
time, so a traced run sees its wrappers), reads back what the call wrote,
and checks it against numpy references outside the timed region.

* ``ensemble``: ``run_ensemble`` + ``emit_outputs`` (CSV and SVG) over dims
  16, 32, 64 and 128, one trial per dim per call, alternating variants.
  One op is one trial.
* ``amplify``: ``oaasim.cli.main(["amplify", ...])`` on order-128 matrix and
  vector files (embedded dim 256, k = 12), alternating variants. One op is
  one CLI call.
* ``matfunc``: ``oaasim.cli.main(["matfunc", ...])`` alternating
  ``exp --trunc 16`` and ``cos --trunc 8`` on order-32 matrices scaled to
  spectral norm 1. One op is one 16-stage chain.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oaasim
import oaasim.cli

# Tolerance where the numerical route may change (an eigen route agrees to
# about 1e-14); probabilities and fidelities may exceed 1 by rounding only.
TOL = 1e-9
RANGE_SLACK = 1e-12
VARIANTS = ("literal", "adjoint")


@dataclass
class Call:
    """One timed call and what it produced."""

    index: int
    seconds: float
    ops: int
    text: str = ""  # everything the call wrote, compared across runs
    data: object = None  # parsed outputs the checks read
    error: str = ""
    failed: int = 0
    problems: list = field(default_factory=list)


def _write_matrix_file(path: Path, a: np.ndarray) -> None:
    """Plain-text matrix file: "rows cols" then one row per line, with
    17 significant digits so every value round-trips."""
    a = np.atleast_2d(a)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    lines += [" ".join(f"{x:.17g}" for x in row) for row in a]
    path.write_text("\n".join(lines) + "\n")


def _read_matrix_text(text: str) -> np.ndarray:
    tokens = text.split()
    rows, cols = int(tokens[0]), int(tokens[1])
    return np.array([float(t) for t in tokens[2:]]).reshape(rows, cols)


def _symmetric(rng: np.random.Generator, order: int) -> np.ndarray:
    a = rng.uniform(-1.0, 1.0, (order, order))
    return np.triu(a) + np.triu(a, 1).T


def _embedded(a: np.ndarray) -> np.ndarray:
    """U = [[A/mu, D], [D, -A/mu]] with mu the largest row norm and D the
    row-norm defect, built independently of oaasim."""
    ap = a / math.sqrt(float((a * a).sum(axis=1).max()))
    d = np.diag(np.sqrt(np.clip(1.0 - (ap * ap).sum(axis=1), 0.0, None)))
    return np.block([[ap, d], [d, -ap]])


def _in_unit_range(x: float) -> bool:
    return -RANGE_SLACK <= x <= 1.0 + RANGE_SLACK


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = oaasim.cli.main(argv)
    return code, out.getvalue()


class Workload:
    """A workload makes inputs in `prepare`, runs call `i` in `run` (the
    timed part), and reads and checks outputs in `collect` and `check`."""

    name = ""
    warmup_calls = 2
    # latency samples wanted before a run may stop; the 90th percentile
    # then has at least ten samples beyond it
    min_samples = 100

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)

    def prepare(self, seed: int) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.seed = seed
        self._make_inputs(np.random.default_rng(seed))

    def _make_inputs(self, rng) -> None:
        pass

    def ops_per_call(self) -> int:
        return 1

    def run(self, i: int):
        raise NotImplementedError

    def collect(self, call: Call, raw) -> None:
        raise NotImplementedError

    def check(self, call: Call) -> None:
        raise NotImplementedError

    def latency_samples(self, calls) -> list:
        """Seconds per op. Calls alternate between two kinds that differ in
        cost, so each sample is the mean of one pair of calls on the same
        input; the samples then have a single mode and a stable median."""
        return [(a.seconds + b.seconds) / 2.0 for a, b in zip(calls[0::2], calls[1::2])]

    def reference_view(self, call: Call):
        """Numbers compared against the reference captured for seed 0."""
        return call.data


class Ensemble(Workload):
    name = "ensemble"
    warmup_calls = 1
    min_samples = 0

    def __init__(self, workdir, dims=(16, 32, 64, 128), trials=1):
        super().__init__(workdir)
        self.dims = tuple(dims)
        self.trials = trials

    def ops_per_call(self) -> int:
        return len(self.dims) * self.trials

    def config_seed(self, i: int) -> int:
        return (self.seed << 20) + i

    def run(self, i):
        cfg = oaasim.ExperimentConfig(dims=self.dims, trials=self.trials,
                                      seed=self.config_seed(i),
                                      variant=VARIANTS[i % 2])
        records = oaasim.run_ensemble(cfg)
        written = oaasim.emit_outputs(records, "csv", self.workdir / "ensemble.csv")
        written += oaasim.emit_outputs(records, "svg", self.workdir)
        return written

    def collect(self, call, raw):
        texts = {Path(p).name: Path(p).read_text() for p in raw}
        call.text = "".join(f"== {name}\n{text}" for name, text in texts.items())
        rows = csv.DictReader(io.StringIO(texts[Path(raw[0]).name]))
        call.data = {
            "records": [[int(r["trial"]), int(r["dim"]), float(r["c2"]), float(r["ef"]),
                         float(r["final_fidelity"]), float(r["final_probability"]),
                         int(r["k_used"])] for r in rows],
            "plotted": [d for d in self.dims
                        if "</svg>" in texts.get(f"ensemble_dim{d}.svg", "")],
        }

    def check(self, call):
        seed = self.config_seed(call.index)
        expected = {(t, d) for d in self.dims for t in range(self.trials)}
        seen = set()
        for trial, dim, c2, ef, fid, prob, k_used in call.data["records"]:
            seen.add((trial, dim))
            a = oaasim.random_symmetric(
                dim // 2, oaasim.SplitMix64(oaasim.derive_seed(seed, dim, trial, 0)))
            lam = np.abs(np.linalg.eigvalsh(_embedded(a)))
            c2_ref = float(np.abs(lam - 1.0).max() ** 2 / lam.max() ** 2)
            bad = []
            if not _close(c2, c2_ref):
                bad.append(f"c2 {c2!r} vs eigvalsh {c2_ref!r}")
            if not _close(ef, (1.0 - c2_ref) ** 2):
                bad.append(f"ef {ef!r} vs {(1.0 - c2_ref) ** 2!r}")
            if k_used != math.floor(math.pi / 4.0 * math.sqrt(dim)):
                bad.append(f"k_used {k_used}")
            if not (_in_unit_range(fid) and _in_unit_range(prob)):
                bad.append(f"fidelity {fid!r} or probability {prob!r} outside [0, 1]")
            if bad:
                call.failed += 1
                call.problems.append(f"trial {trial} dim {dim}: " + "; ".join(bad))
        missing = expected - seen
        for dim in set(self.dims) - set(call.data["plotted"]):
            call.problems.append(f"no complete SVG for dim {dim}")
            missing |= {(t, dim) for t in range(self.trials)}
        if missing:
            call.failed += len(missing)
            call.problems.append(f"missing or unplotted trials {sorted(missing)}")
        call.failed = min(call.failed, call.ops)

    def reference_view(self, call):
        return call.data["records"]

    def latency_samples(self, calls):
        # trials run on pool threads and are not timed one by one here, so
        # a sample is one call's time per trial
        return [c.seconds / c.ops for c in calls]


class Amplify(Workload):
    name = "amplify"

    def __init__(self, workdir, order=128, k=12, inputs=4):
        super().__init__(workdir)
        self.order, self.k, self.inputs = order, k, inputs

    def _make_inputs(self, rng):
        self.files, self._p0 = [], {}
        for j in range(self.inputs):
            a = _symmetric(rng, self.order)
            v = rng.uniform(-1.0, 1.0, self.order)
            mpath, vpath = self.workdir / f"a{j}.txt", self.workdir / f"in{j}.txt"
            _write_matrix_file(mpath, a)
            _write_matrix_file(vpath, v[:, None])
            self.files.append((mpath, vpath))

    def _first_probability(self, j: int) -> float:
        """||U in||^2 / M for input pair j, the iteration-0 probability."""
        if j not in self._p0:
            mpath, vpath = self.files[j]
            a = _read_matrix_text(mpath.read_text())
            v = _read_matrix_text(vpath.read_text()).ravel()
            padded = np.concatenate([v / np.linalg.norm(v), np.zeros(self.order)])
            self._p0[j] = float(np.sum((_embedded(a) @ padded) ** 2)) / (2 * self.order)
        return self._p0[j]

    def argv(self, i):
        mpath, vpath = self.files[(i // 2) % self.inputs]
        return ["amplify", "--matrix", str(mpath), "--input", str(vpath),
                "--k", str(self.k), "--variant", VARIANTS[i % 2]]

    def run(self, i):
        return _cli(self.argv(i))

    def collect(self, call, raw):
        code, out = raw
        call.text = f"exit={code}\n{out}"
        rows = list(csv.DictReader(io.StringIO(out))) if code == 0 else []
        call.data = {"exit": code, "rows": [[int(r["iteration"]), float(r["probability"]),
                                             float(r["fidelity"])] for r in rows]}

    def check(self, call):
        rows = call.data["rows"]
        bad = []
        if call.data["exit"] != 0:
            bad.append(f"exit code {call.data['exit']}")
        elif [r[0] for r in rows] != list(range(self.k + 1)):
            bad.append(f"trace has {len(rows)} rows, want {self.k + 1}")
        else:
            p0 = self._first_probability((call.index // 2) % self.inputs)
            if not _close(rows[0][1], p0):
                bad.append(f"iteration-0 probability {rows[0][1]!r} vs {p0!r}")
            if not _close(rows[0][2], 1.0):
                bad.append(f"iteration-0 fidelity {rows[0][2]!r}")
            if not all(_in_unit_range(x) for r in rows for x in r[1:]):
                bad.append("probability or fidelity outside [0, 1]")
        if bad:
            call.failed = 1
            call.problems.append(f"call {call.index}: " + "; ".join(bad))


class Matfunc(Workload):
    name = "matfunc"

    # many inputs: the oracle's Jacobi sweeps depend on the matrix, and a few
    # inputs would split the latency samples into clusters
    def __init__(self, workdir, order=32, exp_trunc=16, cos_trunc=8, inputs=32):
        super().__init__(workdir)
        self.order, self.exp_trunc, self.cos_trunc = order, exp_trunc, cos_trunc
        self.inputs = inputs

    def _make_inputs(self, rng):
        self.files = []
        for j in range(self.inputs):
            a = _symmetric(rng, self.order)
            a /= np.abs(np.linalg.eigvalsh(a)).max()
            path = self.workdir / f"a{j}.txt"
            _write_matrix_file(path, a)
            self.files.append(path)

    def plan(self, i):
        return ("exp", self.exp_trunc) if i % 2 == 0 else ("cos", self.cos_trunc)

    def run(self, i):
        fn, trunc = self.plan(i)
        return _cli(["matfunc", "--fn", fn, "--matrix", str(self.files[(i // 2) % self.inputs]),
                     "--trunc", str(trunc), "--out", str(self.workdir / "out")])

    def collect(self, call, raw):
        code, out = raw
        data = {"exit": code, "stages": [], "vector": [], "fidelity": None}
        stage_text = vector_text = ""
        if code == 0:
            stage_text = (self.workdir / "out" / "stages.csv").read_text()
            vector_text = (self.workdir / "out" / "final_vector.txt").read_text()
            data["stages"] = [[int(r["stage"]), float(r["probability"]), float(r["fidelity"]),
                               float(r["mu_scale"])]
                              for r in csv.DictReader(io.StringIO(stage_text))]
            data["vector"] = _read_matrix_text(vector_text).ravel().tolist()
            for line in out.splitlines():
                if line.startswith("final_fidelity_vs_oracle="):
                    data["fidelity"] = float(line.split("=", 1)[1])
        call.text = f"exit={code}\n{out}{stage_text}{vector_text}"
        call.data = data

    def check(self, call):
        data, bad = call.data, []
        fn, trunc = self.plan(call.index)
        stages = trunc if fn == "exp" else 2 * trunc
        if data["exit"] != 0:
            bad.append(f"exit code {data['exit']}")
        elif [s[0] for s in data["stages"]] != list(range(stages)):
            bad.append(f"{len(data['stages'])} stages, want {stages}")
        elif data["fidelity"] is None:
            bad.append("no final_fidelity_vs_oracle line")
        else:
            a = _read_matrix_text(self.files[(call.index // 2) % self.inputs].read_text())
            lam, q = np.linalg.eigh(a)
            mapped = np.exp(lam) if fn == "exp" else np.cos(np.pi * lam)
            ref = np.concatenate([(q * mapped) @ q[0], np.zeros(self.order)])
            vec = np.asarray(data["vector"])
            fid = abs(float(vec @ ref)) / (np.linalg.norm(vec) * np.linalg.norm(ref))
            if not _close(data["fidelity"], fid):
                bad.append(f"final fidelity {data['fidelity']!r} vs oracle {fid!r}")
            if not all(_in_unit_range(x) for s in data["stages"] for x in s[1:3]):
                bad.append("stage probability or fidelity outside [0, 1]")
        if bad:
            call.failed = 1
            call.problems.append(f"call {call.index}: " + "; ".join(bad))

    def reference_view(self, call):
        return {k: call.data[k] for k in ("exit", "stages", "fidelity")}


WORKLOADS = {w.name: w for w in (Ensemble, Amplify, Matfunc)}
