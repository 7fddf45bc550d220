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

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .amplification import VARIANTS, IterationTrace, iteration_count, oblivious_aa
from .circuit import Encoded, _is_power_of_two, encode
from .embedding import ClosenessReport, build_estimated_embedding, closeness, mu_normalize
from .errors import NumericalError, ValidationError
from .metrics import check_fidelity_mode
from .rng import SplitMix64, derive_seed
from .svgplot import line_chart

EXPERIMENT_KINDS = ("ensemble", "fixed-matrix", "trace")

ENSEMBLE_CSV_HEADER = "trial,dim,c2,ef,final_fidelity,final_probability,k_used"
TRACE_CSV_HEADER = "dim,iteration,probability,fidelity,k_marker"


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
    where a run stops measuring. k_used is the number of iterations run."""

    trial: int
    dim: int
    c2: float
    ef: float
    final_fidelity: float
    final_probability: float
    k_used: int

    def csv_row(self) -> str:
        return ",".join(
            [
                str(self.trial),
                str(self.dim),
                repr(self.c2),
                repr(self.ef),
                repr(self.final_fidelity),
                repr(self.final_probability),
                str(self.k_used),
            ]
        )


@dataclass(frozen=True)
class TraceResult:
    """Per-iteration probability and fidelity for one dimension."""

    dim: int
    k_marker: int
    trace: IterationTrace

    def csv_rows(self) -> list:
        rows = []
        for rec in self.trace.records:
            rows.append(
                ",".join(
                    [
                        str(self.dim),
                        str(rec.iteration),
                        repr(rec.probability),
                        repr(rec.fidelity),
                        str(self.k_marker),
                    ]
                )
            )
        return rows


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
    fixed_matrix: np.ndarray | None = None,
    fixed_report: ClosenessReport | None = None,
) -> EnsembleRecord:
    a = _trial_matrix(cfg, dim, trial) if fixed_matrix is None else fixed_matrix
    enc = _encode_trial(cfg, a, dim, trial)
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
    fixed: dict = {}
    if cfg.experiment == "fixed-matrix":
        for dim in cfg.dims:
            a = _trial_matrix(cfg, dim, 0)
            normalized, mu = mu_normalize(a)
            emb = build_estimated_embedding(normalized, mu)
            fixed[dim] = (a, closeness(emb.u))
    return [
        _run_trial(cfg, dim, trial, *fixed.get(dim, (None, None)))
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


def ensemble_csv_lines(records: Sequence[EnsembleRecord]) -> list:
    return [ENSEMBLE_CSV_HEADER] + [r.csv_row() for r in records]


def trace_csv_lines(results: Sequence[TraceResult]) -> list:
    lines = [TRACE_CSV_HEADER]
    for res in results:
        lines.extend(res.csv_rows())
    return lines


def _ensemble_svg(records: Sequence[EnsembleRecord], dim: int) -> str:
    rows = [r for r in records if r.dim == dim]
    xs = [float(r.trial) for r in rows]
    series = [
        {"label": "final_fidelity", "xs": xs, "ys": [r.final_fidelity for r in rows], "mode": "scatter"},
        {"label": "final_probability", "xs": xs, "ys": [r.final_probability for r in rows], "mode": "scatter"},
        {"label": "ef", "xs": xs, "ys": [r.ef for r in rows], "mode": "scatter"},
    ]
    return line_chart(
        series,
        title=f"amplified trials, dim {dim}",
        xlabel="trial",
        ylabel="value",
    )


def _trace_svg(result: TraceResult) -> str:
    xs = [float(r.iteration) for r in result.trace.records]
    series = [
        {"label": "probability", "xs": xs, "ys": [r.probability for r in result.trace.records], "mode": "line"},
        {"label": "fidelity", "xs": xs, "ys": [r.fidelity for r in result.trace.records], "mode": "line"},
    ]
    return line_chart(
        series,
        title=f"amplification trace, dim {result.dim}",
        xlabel="iteration",
        ylabel="value",
        vline=float(result.k_marker),
        vline_label="k",
    )


def emit_outputs(results, fmt: str, path) -> list:
    """Write experiment results as CSV (path names the file) or SVG (path
    names a directory, one file per dimension). Returns written paths."""
    if fmt not in ("csv", "svg"):
        raise ValidationError(f"format must be csv or svg, got {fmt!r}")
    results = list(results)
    if not results:
        raise ValidationError("no results to emit")
    is_trace = isinstance(results[0], TraceResult)
    path = Path(path)
    written = []
    if fmt == "csv":
        lines = trace_csv_lines(results) if is_trace else ensemble_csv_lines(results)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
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
