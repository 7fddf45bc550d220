"""Run a small random-matrix experiment and emit its CSV and SVG outputs.

Every trial draws a symmetric matrix with entries uniform in [-1, 1],
embeds it, amplifies a random input for the standard iteration count, and
records the closeness measures next to the probability and fidelity at
the peak-probability iteration.
Seeds are derived per (dimension, trial), so rerunning this script
reproduces identical files byte for byte.
"""

from pathlib import Path

import numpy as np

from oaasim import ExperimentConfig, emit_outputs, run_ensemble, run_trace

out_dir = Path("demo_output")
cfg = ExperimentConfig(
    dims=(16, 32), trials=10, seed=7, variant="adjoint", experiment="ensemble"
)
records = run_ensemble(cfg)
for dim in cfg.dims:
    rows = [r for r in records if r.dim == dim]
    fid = float(np.mean([r.final_fidelity for r in rows]))
    prob = float(np.mean([r.final_probability for r in rows]))
    ef = float(np.mean([r.ef for r in rows]))
    print(f"dim {dim:3d}: mean fidelity {fid:.4f}, mean probability "
          f"{prob:.4f}, mean predicted floor {ef:.4f}")

written = emit_outputs(records, "csv", out_dir / "ensemble.csv")
written += emit_outputs(records, "svg", out_dir)
trace_cfg = ExperimentConfig(
    dims=(16, 32), trials=1, seed=7, variant="adjoint", experiment="trace"
)
traces = run_trace(trace_cfg)
written += emit_outputs(traces, "csv", out_dir / "trace.csv")
written += emit_outputs(traces, "svg", out_dir)
for path in written:
    print(f"wrote {path}")
print("the trace plots mark the standard iteration count with a dashed line;")
print("probability and fidelity both fall off when amplifying past it")
