"""Per-layer metrics computed from the spans of a traced run.

Names follow ``<module>.<layer>``; a ``.d<dim>`` suffix marks a value for
one embedded dimension (for ``linalg.sym_eigen`` the order of the matrix it
was given). Every workload reports every name, so a layer or dimension a
workload never reaches reads 0. Times per call are means over the calls
made; shares and per-op counts divide by the traced ops.
"""

from __future__ import annotations

from collections import defaultdict

from spans import self_times, uncovered

ENSEMBLE_DIMS = (16, 32, 64, 128)
ALL_DIMS = ENSEMBLE_DIMS + (256,)

# metric family -> (span names, "incl" or "self", dims)
PER_DIM = {
    "embedding.closeness_ms": (("embedding.closeness",), "incl", ENSEMBLE_DIMS),
    "linalg.sym_eigen_ms": (("linalg.sym_eigen",), "incl", ENSEMBLE_DIMS),
    "circuit.apply_fwd_ms": (("circuit.apply_fwd",), "incl", ALL_DIMS),
    "circuit.apply_inv_ms": (("circuit.apply_inv",), "incl", ALL_DIMS),
    "circuit.reflection_ms": (("circuit.apply_good_reflection",), "incl", ALL_DIMS),
    "circuit.collapse_ms": (("circuit.collapse_good",), "incl", ALL_DIMS),
    "circuit.build_row_encoding_ms": (("circuit.build_row_encoding",), "incl", ALL_DIMS),
    "amplification.oblivious_aa_ms": (("amplification.oblivious_aa",), "incl", ALL_DIMS),
    "amplification.self_ms": (("amplification.oblivious_aa",), "self", ALL_DIMS),
}

# metric -> (span names, "incl" or "self"), mean milliseconds per call
PER_CALL = {
    "experiments.emit_outputs_ms": (("experiments.emit_outputs",), "incl"),
    "svgplot.line_chart_ms": (("svgplot.line_chart",), "incl"),
    "rng.draw_ms": (("experiments.random_symmetric", "experiments.random_input"), "incl"),
    "linalg.read_matrix_ms": (("linalg.read_matrix",), "incl"),
    "linalg.write_matrix_ms": (("linalg.write_matrix",), "incl"),
    "cli.self_ms": (("cli.main",), "self"),
    "matfunc.plan_ms": (("matfunc.exp_product_factors", "matfunc.cos_product_factors",
                         "matfunc.custom_product_plan"), "incl"),
    "embedding.mu_normalize_ms": (("embedding.mu_normalize",), "incl"),
    "embedding.build_estimated_ms": (("embedding.build_estimated_embedding",), "incl"),
    "metrics.fidelity_ms": (("metrics.fidelity",), "incl"),
}

APPLY = ("circuit.apply_fwd", "circuit.apply_inv")
TRIAL = "experiments._run_trial"


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for family, (_, _, dims) in PER_DIM.items():
        for dim in dims:
            units[f"{family}.d{dim}"] = "ms/call"
    for dim in ALL_DIMS:
        units[f"circuit.apply_bytes.d{dim}"] = "B/call"
    for name in PER_CALL:
        units[name] = "ms/call"
    units.update({
        "embedding.closeness_share": "fraction",
        **{f"embedding.closeness_share.d{d}": "fraction" for d in ENSEMBLE_DIMS},
        "linalg.sym_eigen_calls": "1/op",
        "circuit.apply_calls": "1/op",
        "amplification.iterations": "1/op",
        "experiments.run_ensemble_self_s": "s/call",
        "matfunc.stage_ms": "ms/stage",
        "trace.ops_per_s_ratio": "ratio",
    })
    return units


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans, ops: int, ops_per_s_ratio: float) -> dict:
    """Per-layer metric values from the spans of `ops` traced ops.
    `ops_per_s_ratio` is traced over untraced ops per second."""
    spans = [s for s in spans if s is not None]
    own = self_times(spans)
    # (name, dim) and name -> [calls, inclusive seconds, self seconds]
    by_dim = defaultdict(lambda: [0, 0.0, 0.0])
    by_name = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        for acc in (by_dim[(s.name, s.dim)], by_name[s.name]):
            acc[0] += 1
            acc[1] += s.duration
            acc[2] += own[s.id]

    def agg(names, kind, dim=None):
        """(calls, seconds) over the named spans, inclusive or self time."""
        rows = [by_name[n] if dim is None else by_dim[(n, dim)] for n in names]
        return sum(r[0] for r in rows), sum(r[1 if kind == "incl" else 2] for r in rows)

    def ms_per_call(names, kind, dim=None):
        calls, seconds = agg(names, kind, dim)
        return 1e3 * _mean(seconds, calls)

    out = {}
    for family, (names, kind, dims) in PER_DIM.items():
        for dim in dims:
            out[f"{family}.d{dim}"] = ms_per_call(names, kind, dim)
    apply_spans = [s for s in spans if s.name in APPLY and s.count]
    for dim in ALL_DIMS:
        sizes = [s.count for s in apply_spans if s.dim == dim]
        out[f"circuit.apply_bytes.d{dim}"] = float(_mean(sum(sizes), len(sizes)))
    for name, (names, kind) in PER_CALL.items():
        out[name] = ms_per_call(names, kind)

    out["embedding.closeness_share"] = _mean(agg(("embedding.closeness",), "incl")[1],
                                             agg((TRIAL,), "incl")[1])
    for dim in ENSEMBLE_DIMS:
        out[f"embedding.closeness_share.d{dim}"] = _mean(
            agg(("embedding.closeness",), "incl", dim)[1], agg((TRIAL,), "incl", dim)[1])
    out["linalg.sym_eigen_calls"] = _mean(by_name["linalg.sym_eigen"][0], ops)
    out["circuit.apply_calls"] = _mean(agg(APPLY, "incl")[0], ops)
    out["amplification.iterations"] = _mean(
        sum(s.count or 0 for s in spans if s.name == "amplification.oblivious_aa"), ops)

    # pool dispatch and waiting: run_ensemble time covered by no trial span,
    # on any thread
    trials_by_op = defaultdict(list)
    for s in spans:
        if s.name == TRIAL:
            trials_by_op[s.op].append(s)
    ensembles = [s for s in spans if s.name == "experiments.run_ensemble"]
    out["experiments.run_ensemble_self_s"] = _mean(
        sum(uncovered(s, trials_by_op[s.op]) for s in ensembles), len(ensembles))

    chains = [s for s in spans if s.name == "matfunc.chained_product_circuit"]
    out["matfunc.stage_ms"] = 1e3 * _mean(sum(s.duration for s in chains),
                                          sum(s.count or 0 for s in chains))
    out["trace.ops_per_s_ratio"] = ops_per_s_ratio
    return {name: float(out[name]) for name in metric_units()}
