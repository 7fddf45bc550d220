"""Random-matrix amplification experiments.

Three experiment kinds share one trial mechanic:

* ``ensemble``: every trial draws a fresh random symmetric matrix and a
  fresh random input, amplifies, and records closeness plus the
  probability and fidelity at the peak-probability iteration.
* ``fixed-matrix``: one matrix per dimension (trial index 0 of the same
  draw scheme), fresh random inputs per trial.
* ``trace``: one matrix and one input per dimension, recording probability
  and fidelity at every amplification step up to two past the standard
  iteration count.

A trial at embedded dimension ``dim`` draws the symmetric matrix at order
``dim // 2``, scales it by the row-sum bound, embeds with the estimated
diagonal blocks, builds the row-encoding circuit, and amplifies for
``iteration_count(dim)`` steps. Per-trial generator seeds are derived from
(seed, dim, trial, purpose) so results are independent of execution order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .amplification import VARIANTS, IterationTrace, iteration_count, oblivious_aa
from .circuit import Encoded, _is_power_of_two, encode
from .embedding import ClosenessReport, closeness
from .errors import NumericalError, ValidationError
from .metrics import check_fidelity_mode
from .rng import SplitMix64, derive_seed
from .svgplot import line_chart

EXPERIMENT_KINDS = ("ensemble", "fixed-matrix", "trace")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated settings for one experiment run."""

    dims: tuple = (16, 32, 64, 128)
    trials: int = 100
    seed: int = 0
    variant: str = "literal"
    fidelity_mode: str = "embedded"
    experiment: str = "ensemble"

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValidationError("dims must be nonempty")
        for d in dims:
            if d < 2 or not _is_power_of_two(d):
                raise ValidationError(
                    f"embedded dimension {d} must be an even power of two"
                )
        if self.trials < 1:
            raise ValidationError("trials must be at least 1")
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        check_fidelity_mode(self.fidelity_mode)
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValidationError(
                f"experiment must be one of {EXPERIMENT_KINDS}, got {self.experiment!r}"
            )


@dataclass(frozen=True)
class EnsembleRecord:
    """One amplified trial: closeness of the embedding plus the
    probability and fidelity at the peak-probability iteration, which is
    where a run stops measuring. k_used is the number of iterations run.
    The fields, in order, are the columns of the ensemble CSV table."""

    trial: int
    dim: int
    c2: float
    ef: float
    final_fidelity: float
    final_probability: float
    k_used: int


@dataclass(frozen=True)
class TraceResult:
    """Per-iteration probability and fidelity for one dimension. Its CSV
    table has one row per trace record: dim, the TraceRecord fields, then
    k_marker."""

    dim: int
    k_marker: int
    trace: IterationTrace


def random_symmetric(order: int, rng: SplitMix64) -> np.ndarray:
    """Symmetric matrix with independent entries uniform in [-1, 1]: the
    upper triangle including the diagonal is drawn row by row and mirrored."""
    if order < 1:
        raise ValidationError("matrix order must be positive")
    draws = rng.uniform_signed_array(order * (order + 1) // 2)
    a = np.zeros((order, order))
    rows, cols = np.triu_indices(order)
    a[rows, cols] = draws
    a[cols, rows] = draws
    return a


def random_input(length: int, rng: SplitMix64) -> np.ndarray:
    """Unit vector with entries drawn uniform in [-1, 1] then normalized.
    An all-zero draw is redrawn once; a second zero draw raises."""
    for _ in range(2):
        vec = rng.uniform_signed_array(length)
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            return vec / norm
    raise NumericalError("random input drew the zero vector twice")


def _trial_matrix(cfg: ExperimentConfig, dim: int, trial: int) -> np.ndarray:
    return random_symmetric(dim // 2, SplitMix64(derive_seed(cfg.seed, dim, trial, 0)))


def _encode_trial(cfg: ExperimentConfig, a: np.ndarray, dim: int, trial: int) -> Encoded:
    """Encode `a` with the trial's random input: embedded-order in embedded
    mode, matrix-order in projected mode."""
    rng_in = SplitMix64(derive_seed(cfg.seed, dim, trial, 1))
    length = dim if cfg.fidelity_mode == "embedded" else dim // 2
    return encode(a, random_input(length, rng_in), cfg.fidelity_mode)


def _run_trial(
    cfg: ExperimentConfig,
    dim: int,
    trial: int,
    fixed_report: ClosenessReport | None = None,
) -> EnsembleRecord:
    """One trial. The fixed-matrix experiment reuses trial 0's matrix and
    the dimension's closeness report in every trial."""
    matrix_trial = 0 if cfg.experiment == "fixed-matrix" else trial
    enc = _encode_trial(cfg, _trial_matrix(cfg, dim, matrix_trial), dim, trial)
    report = fixed_report if fixed_report is not None else closeness(enc.embedding.u)
    k = iteration_count(dim)
    trace = oblivious_aa(
        enc.circuit, enc.state, k, cfg.variant, enc.target,
        project_system_zero=enc.project,
    )
    best = trace.peak
    return EnsembleRecord(
        trial=trial,
        dim=dim,
        c2=report.c2,
        ef=report.ef,
        final_fidelity=best.fidelity,
        final_probability=best.probability,
        k_used=k,
    )


def run_ensemble(cfg: ExperimentConfig) -> list:
    """Run the ensemble or fixed-matrix experiment and return records in
    (dim, trial) order."""
    if cfg.experiment not in ("ensemble", "fixed-matrix"):
        raise ValidationError(f"not an ensemble experiment: {cfg.experiment!r}")
    reports: dict = {}
    if cfg.experiment == "fixed-matrix":
        for dim in cfg.dims:
            enc = _encode_trial(cfg, _trial_matrix(cfg, dim, 0), dim, 0)
            reports[dim] = closeness(enc.embedding.u)
    return [
        _run_trial(cfg, dim, trial, reports.get(dim))
        for dim in cfg.dims
        for trial in range(cfg.trials)
    ]


def run_trace(cfg: ExperimentConfig) -> list:
    """Run the per-iteration trace experiment: one matrix and input per
    dimension, recorded through two iterations past the standard count."""
    if cfg.experiment != "trace":
        raise ValidationError(f"not a trace experiment: {cfg.experiment!r}")
    results = []
    for dim in cfg.dims:
        enc = _encode_trial(cfg, _trial_matrix(cfg, dim, 0), dim, 0)
        k_marker = iteration_count(dim)
        trace = oblivious_aa(
            enc.circuit, enc.state, k_marker + 2, cfg.variant, enc.target,
            project_system_zero=enc.project,
        )
        results.append(TraceResult(dim=dim, k_marker=k_marker, trace=trace))
    return results


def csv_lines(rows: Sequence[dict]) -> list:
    """CSV table of nonempty dict rows: the header is the first row's keys,
    and every value is written with repr, so floats round-trip exactly."""
    return [",".join(rows[0])] + [",".join(map(repr, row.values())) for row in rows]


def _series(rows: Sequence, x_field: str, fields: Sequence[str], mode: str) -> list:
    """One chart series per record field, plotted against x_field."""
    xs = [float(getattr(r, x_field)) for r in rows]
    return [
        {"label": name, "xs": xs, "ys": [getattr(r, name) for r in rows], "mode": mode}
        for name in fields
    ]


def _ensemble_svg(records: Sequence[EnsembleRecord], dim: int) -> str:
    rows = [r for r in records if r.dim == dim]
    return line_chart(
        _series(rows, "trial", ("final_fidelity", "final_probability", "ef"), "scatter"),
        title=f"amplified trials, dim {dim}",
        xlabel="trial",
        ylabel="value",
    )


def _trace_svg(result: TraceResult) -> str:
    return line_chart(
        _series(result.trace.records, "iteration", ("probability", "fidelity"), "line"),
        title=f"amplification trace, dim {result.dim}",
        xlabel="iteration",
        ylabel="value",
        vline=float(result.k_marker),
        vline_label="k",
    )


def emit_outputs(results, fmt: str, path) -> list:
    """Write experiment results as CSV (path names the file) or SVG (path
    names a directory, one file per dimension). Returns written paths.

    The CSV columns are the record fields (see EnsembleRecord and
    TraceResult); each chart plots record fields named in its legend."""
    if fmt not in ("csv", "svg"):
        raise ValidationError(f"format must be csv or svg, got {fmt!r}")
    results = list(results)
    if not results:
        raise ValidationError("no results to emit")
    is_trace = isinstance(results[0], TraceResult)
    path = Path(path)
    written = []
    if fmt == "csv":
        if is_trace:
            rows = [{"dim": res.dim, **asdict(rec), "k_marker": res.k_marker}
                    for res in results for rec in res.trace.records]
        else:
            rows = [asdict(r) for r in results]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(csv_lines(rows)) + "\n")
        written.append(path)
        return written
    path.mkdir(parents=True, exist_ok=True)
    if is_trace:
        for res in results:
            out = path / f"trace_dim{res.dim}.svg"
            out.write_text(_trace_svg(res))
            written.append(out)
    else:
        dims = sorted({r.dim for r in results})
        for dim in dims:
            out = path / f"ensemble_dim{dim}.svg"
            out.write_text(_ensemble_svg(results, dim))
            written.append(out)
    return written
