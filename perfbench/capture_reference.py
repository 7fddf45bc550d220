"""Write reference/seed0.json: the outputs of the first calls of every
workload at seed 0, which later runs at seed 0 are compared against.

    python3 perfbench/capture_reference.py

Run it only when the benchmark's workloads change, never to absorb a
change in the program's results.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run._limit_threads()
    sys.path[:0] = [str(run.ROOT / "src"), str(run.BENCH_DIR)]
    import workloads

    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(run.OUT_DIR / "work" / name)
        workload.prepare(run.REFERENCE_SEED)
        calls = []
        for i in range(run.REFERENCE_CALLS):
            call = workloads.Call(index=i, seconds=0.0, ops=workload.ops_per_call())
            workload.collect(call, workload.run(i))
            workload.check(call)
            if call.problems:
                raise SystemExit(f"{name}: {call.problems}")
            calls.append(workload.reference_view(call))
        reference[name] = calls
    run.REFERENCE.parent.mkdir(exist_ok=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"written={run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
