"""oaasim benchmark: one workload per process, timed end to end or traced
per layer.

    python3 perfbench/run.py --workload ensemble|amplify|matfunc
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ./src. With
``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1`` it
runs the workload untraced for half the time, then again from the same
first op with every public oaasim function wrapped (see spans.py) for the
other half, checks that both produced identical outputs, and reports the
per-layer metrics. Outputs are checked outside the timed region; for seed 0
they are also compared with reference/seed0.json. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference" / "seed0.json"
REFERENCE_SEED = 0
REFERENCE_CALLS = 4
SETUP_REPEATS = 3
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def highest_percentile(samples: int, beyond: int = 10):
    """Highest percentile of PERCENTILE_LADDER that has at least `beyond`
    samples above it, or None when even the median has fewer."""
    for q in PERCENTILE_LADDER:
        if round(samples * (100.0 - q) / 100.0, 9) >= beyond:
            return q
    return None


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, as numpy's default computes it."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _limit_threads() -> str:
    """Leave OAA_THREADS at its default (the CPU count) unless that exceeds
    the CPUs this process may use, and keep BLAS single-threaded so the
    trial pool alone decides how many threads run. Returns the resolved
    OAA_THREADS. Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("OAA_THREADS", None)
    if (os.cpu_count() or 1) > _nproc():
        os.environ["OAA_THREADS"] = str(_nproc())
        return f"{_nproc()} (set to nproc)"
    return f"{os.cpu_count()} (default: cpu_count)"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def environment(oaa_threads: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": _nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "oaa_threads": oaa_threads,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


def measure(workload, first: int, seconds: float, min_samples: int, tracer=None) -> list:
    """Run calls first, first+1, ... until `seconds` of call time have
    passed and `min_samples` latency samples exist (the latter given up
    after 3 * seconds of wall time). Only the calls themselves are timed."""
    from workloads import Call

    calls = []
    busy, wall0, i = 0.0, time.perf_counter(), first
    while True:
        if tracer is not None:
            tracer.op_id = i
        call = Call(index=i, seconds=0.0, ops=workload.ops_per_call())
        start = time.perf_counter()
        try:
            raw = workload.run(i)
        except Exception as exc:  # an op that raises is a failed op
            raw, call.error = None, f"{type(exc).__name__}: {exc}"
        call.seconds = time.perf_counter() - start
        busy += call.seconds
        calls.append(call)
        i += 1
        if raw is not None:
            try:
                workload.collect(call, raw)
            except Exception as exc:  # unreadable output is a failed op
                call.error = f"{type(exc).__name__}: {exc}"
        if busy >= seconds and (
            len(workload.latency_samples(calls)) >= min_samples
            or time.perf_counter() - wall0 >= 3 * seconds
        ):
            return calls


def check_calls(workload, calls) -> None:
    for call in calls:
        if not call.error:
            try:
                workload.check(call)
            except Exception as exc:  # a check that cannot run fails the op
                call.error = f"check: {type(exc).__name__}: {exc}"
        if call.error:
            call.failed = call.ops
            call.problems.append(f"call {call.index}: {call.error}")


def compare_reference(workload, calls) -> list:
    """Differences between the first calls' outputs and the reference
    captured for seed 0, beyond the workload tolerance."""
    from workloads import TOL

    want = json.loads(REFERENCE.read_text())[workload.name]
    got = [workload.reference_view(c) for c in calls[:REFERENCE_CALLS]]
    problems = []

    def walk(a, b, where):
        if isinstance(b, dict) and isinstance(a, dict) and a.keys() == b.keys():
            for key in b:
                walk(a[key], b[key], f"{where}.{key}")
        elif isinstance(b, list) and isinstance(a, list) and len(a) == len(b):
            for n, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{where}[{n}]")
        elif isinstance(b, float) and isinstance(a, (int, float)):
            if abs(a - b) > TOL * max(1.0, abs(b)):
                problems.append(f"{where}: {a!r} vs reference {b!r}")
        elif a != b:
            problems.append(f"{where}: {a!r} vs reference {b!r}")

    walk(got, want[: len(got)], "reference")
    return problems


def end_to_end(workload, calls, setup_s: float) -> tuple:
    ops = sum(c.ops for c in calls)
    failed = sum(c.failed for c in calls)
    samples = workload.latency_samples(calls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / sum(c.seconds for c in calls), "1/s"),
        "op_p50_ms": (1e3 * percentile(samples, 50.0), "ms"),
        "op_p90_ms": (1e3 * percentile(samples, 90.0), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_frac": ((ops - failed) / ops, "fraction"),
    }
    info = {"latency_samples": len(samples),
            "highest_percentile_with_10_beyond": highest_percentile(len(samples))}
    return metrics, info


def set_up(workload, seed: int) -> list:
    """Make the inputs and warm up, SETUP_REPEATS times; seconds of each."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.prepare(seed)
        for i in range(workload.warmup_calls):
            try:
                workload.run(i)
            except Exception:  # the timed calls count and report failures
                pass
        setups.append(time.perf_counter() - start)
    return setups


def traced_run(workload, args, package) -> tuple:
    """Half the time untraced, then the same calls again traced; returns
    all calls, the per-layer metrics, run info and output differences."""
    import layers
    import spans

    plain = measure(workload, 0, args.seconds / 2, 0)
    tracer = spans.Tracer()
    tracer.install(package)
    try:
        traced = measure(workload, 0, args.seconds / 2, 0, tracer)
    finally:
        tracer.uninstall()
    check_calls(workload, plain)
    check_calls(workload, traced)
    problems = [f"call {a.index}: traced output differs from untraced"
                for a, b in zip(plain, traced) if a.text != b.text or a.error != b.error]
    rate = [sum(c.ops for c in cs) / sum(c.seconds for c in cs) for cs in (plain, traced)]
    values = layers.layer_metrics(tracer.spans, sum(c.ops for c in traced), rate[1] / rate[0])
    units = layers.metric_units()
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write_jsonl(spans_path)
    info = {"untraced_ops_per_s": rate[0], "traced_ops_per_s": rate[1],
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
            "wrapped": len(tracer.wrapped), "absent": tracer.absent}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    return plain + traced, metrics, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("ensemble", "amplify", "matfunc"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = ROOT / "src"
    if not (src / "oaasim" / "__init__.py").is_file():
        print(f"error: no oaasim package under {src}", file=sys.stderr)
        return 2
    oaa_threads = _limit_threads()
    sys.path[:0] = [str(src), str(BENCH_DIR)]

    start = time.perf_counter()
    import oaasim
    import oaasim.cli  # noqa: F401  (timed with the package: two workloads use it)

    import_s = time.perf_counter() - start
    if Path(oaasim.__file__).resolve().parent != (src / "oaasim").resolve():
        print(f"error: oaasim imported from {oaasim.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](OUT_DIR / "work" / args.workload)
    setups = set_up(workload, args.seed)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "import_s": import_s, "setup_repeats_s": setups}
    problems = []
    if args.trace == 0:
        timed = measure(workload, 0, args.seconds, workload.min_samples)
        check_calls(workload, timed)
        metrics, extra = end_to_end(workload, timed, import_s + statistics.median(setups))
    else:
        timed, metrics, extra, problems = traced_run(workload, args, oaasim)
    info.update(extra)
    if args.seed == REFERENCE_SEED:
        problems += compare_reference(workload, timed)

    attempted = sum(c.ops for c in timed)
    failed = sum(c.failed for c in timed)
    problems = [p for c in timed for p in c.problems] + problems
    info["problems"] = problems[:20]
    info["environment"] = environment(oaa_threads)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
