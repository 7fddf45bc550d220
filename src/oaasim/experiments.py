"""Random-matrix amplification experiments.

The three experiment kinds, EXPERIMENT_KINDS, share one trial mechanic.
The tuple is the only list of their names: ExperimentConfig checks
against it, each runner accepts its own entries of it, and the command
line's --kind takes it as its choices.

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
``iteration_count(dim)`` steps. ``_trial_matrix`` runs encode's matrix
half once per ensemble trial, or once per dimension for the other kinds,
whose trials share the circuit; ``_encode_trial`` runs its input half per
trial. emit_outputs writes files in one loop. Per-trial generator seeds
are derived from (seed, dim, trial, purpose) so results are independent
of execution order. A NumericalError raised in a trial keeps its class,
and its message starts with `dim D trial T (seed S): `, the values that
re-run the trial alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .amplification import VARIANTS, IterationTrace, iteration_count, oblivious_aa
from .circuit import Encoded, _check_fits, _encode_input, _encode_matrix, _is_power_of_two
from .embedding import closeness
from .errors import NumericalError, ValidationError, _located
from .linalg import _check_choice, _check_count, _items
from .metrics import FIDELITY_MODES
from .rng import SplitMix64, _check_seed, derive_seed
from .svgplot import line_chart

EXPERIMENT_KINDS = ("ensemble", "fixed-matrix", "trace")  # the first is the default


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated settings for one experiment run. variant, fidelity_mode and
    experiment are entries of VARIANTS, FIDELITY_MODES and EXPERIMENT_KINDS,
    the first of each by default."""

    dims: tuple = (16, 32, 64, 128)
    trials: int = 100
    seed: int = 0
    variant: str = VARIANTS[0]
    fidelity_mode: str = FIDELITY_MODES[0]
    experiment: str = EXPERIMENT_KINDS[0]

    def __post_init__(self):
        dims = self.dims
        if isinstance(dims, (str, bytes)) or not isinstance(dims, (Sequence, np.ndarray)):
            raise ValidationError(f"dims must be a sequence of integers, got {dims!r}")
        dims = tuple(_check_count(d, "embedded dimension", 2) for d in dims)
        if not dims or len(set(dims)) != len(dims):
            raise ValidationError(f"dims must be nonempty and distinct, got {dims}")
        for d in dims:
            if not _is_power_of_two(d):
                raise ValidationError(f"embedded dimension {d} must be a power of two")
        _check_fits(max(dims))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "trials", _check_count(self.trials, "trials", 1))
        object.__setattr__(self, "seed", _check_seed(self.seed, "seed"))
        _check_choice(self.variant, VARIANTS, "variant")
        _check_choice(self.fidelity_mode, FIDELITY_MODES, "fidelity_mode")
        _check_choice(self.experiment, EXPERIMENT_KINDS, "experiment")


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
    order = _check_count(order, "matrix order", 1)
    draws = rng.uniform_signed_array(order * (order + 1) // 2)
    a = np.zeros((order, order))
    rows, cols = np.triu_indices(order)
    a[rows, cols] = draws
    a[cols, rows] = draws
    return a


def random_input(length: int, rng: SplitMix64) -> np.ndarray:
    """Unit vector with entries drawn uniform in [-1, 1] then normalized.
    An all-zero draw is redrawn once; a second zero draw raises."""
    length = _check_count(length, "input length", 1)
    for _ in range(2):
        vec = rng.uniform_signed_array(length)
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            return vec / norm
    raise NumericalError("random input drew the zero vector twice")


def _trial_matrix(cfg: ExperimentConfig, dim: int, trial: int) -> tuple:
    """encode's matrix half on the random matrix of trial `trial`."""
    rng = SplitMix64(derive_seed(cfg.seed, dim, trial, 0))
    return _encode_matrix(random_symmetric(dim // 2, rng))


def _encode_trial(cfg: ExperimentConfig, dim: int, trial: int, matrix: tuple) -> Encoded:
    """encode's input half: the trial's random input on an encoded matrix.
    The input has embedded order in embedded mode, matrix order in
    projected mode."""
    rng = SplitMix64(derive_seed(cfg.seed, dim, trial, 1))
    length = dim if cfg.fidelity_mode == "embedded" else dim // 2
    return _encode_input(matrix, random_input(length, rng), cfg.fidelity_mode)


def _matrix_and_report(cfg: ExperimentConfig, dim: int, trial: int) -> tuple:
    """_trial_matrix and the closeness report of its embedding."""
    matrix = _trial_matrix(cfg, dim, trial)
    return matrix, closeness(matrix[0].u)


def _run_trial(cfg: ExperimentConfig, dim: int, trial: int,
               shared: tuple | None) -> EnsembleRecord:
    """One trial. A fixed-matrix trial gets its dimension's
    _matrix_and_report pair; an ensemble trial gets None and makes its own."""
    matrix, report = shared or _matrix_and_report(cfg, dim, trial)
    enc = _encode_trial(cfg, dim, trial, matrix)
    k = iteration_count(dim)
    best = oblivious_aa(enc.circuit, enc.state, k, cfg.variant, enc.target).peak
    return EnsembleRecord(trial=trial, dim=dim, c2=report.c2, ef=report.ef,
                          final_fidelity=best.fidelity, final_probability=best.probability,
                          k_used=k)


def run_ensemble(cfg: ExperimentConfig) -> list:
    """Run the ensemble or fixed-matrix experiment and return records in
    (dim, trial) order. A trial's NumericalError names its dim, trial and
    seed; a fixed-matrix dimension's shared matrix counts as trial 0."""
    _check_choice(cfg.experiment, EXPERIMENT_KINDS[:2], "experiment")
    records = []
    for dim in cfg.dims:
        shared = None
        for trial in range(cfg.trials):
            with _located(f"dim {dim} trial {trial} (seed {cfg.seed})"):
                if trial == 0 and cfg.experiment == "fixed-matrix":
                    shared = _matrix_and_report(cfg, dim, 0)
                records.append(_run_trial(cfg, dim, trial, shared))
    return records


def run_trace(cfg: ExperimentConfig) -> list:
    """Run the per-iteration trace experiment: one matrix and input per
    dimension, recorded through two iterations past the standard count."""
    _check_choice(cfg.experiment, EXPERIMENT_KINDS[2:], "experiment")
    results = []
    for dim in cfg.dims:
        with _located(f"dim {dim} trial 0 (seed {cfg.seed})"):
            enc = _encode_trial(cfg, dim, 0, _trial_matrix(cfg, dim, 0))
            k_marker = iteration_count(dim)
            trace = oblivious_aa(enc.circuit, enc.state, k_marker + 2, cfg.variant, enc.target)
        results.append(TraceResult(dim=dim, k_marker=k_marker, trace=trace))
    return results


def csv_lines(rows: Sequence[dict]) -> list:
    """CSV table of nonempty dict rows: the header is the first row's keys,
    and every value is written with repr, so floats round-trip exactly."""
    return [",".join(rows[0])] + [",".join(map(repr, row.values())) for row in rows]


def _chart(rows: Sequence, x_field: str, fields: Sequence[str], mode: str, title: str,
           **marker) -> str:
    """Chart of the record fields `fields` against x_field, one series per
    field; marker is line_chart's optional vline and vline_label."""
    xs = [float(getattr(r, x_field)) for r in rows]
    series = [{"label": name, "xs": xs, "ys": [getattr(r, name) for r in rows], "mode": mode}
              for name in fields]
    return line_chart(series, title=title, xlabel=x_field, ylabel="value", **marker)


def emit_outputs(results, fmt: str, path) -> list:
    """Write experiment results as CSV (path names the file) or SVG (path
    names a directory, one file per dimension). Returns written paths.

    The CSV columns are the record fields (see EnsembleRecord and
    TraceResult); each chart plots record fields named in its legend."""
    _check_choice(fmt, ("csv", "svg"), "format")
    results = _items(results, "results")
    kinds = {type(r) for r in results}
    if kinds not in ({EnsembleRecord}, {TraceResult}):
        raise ValidationError("results must be nonempty, all EnsembleRecord or all TraceResult")
    is_trace = kinds == {TraceResult}
    path = Path(path)
    if fmt == "csv":
        if is_trace:
            rows = [{"dim": res.dim, **asdict(rec), "k_marker": res.k_marker}
                    for res in results for rec in res.trace.records]
        else:
            rows = [asdict(r) for r in results]
        files = [(path, "\n".join(csv_lines(rows)) + "\n")]
    elif is_trace:
        files = [(path / f"trace_dim{res.dim}.svg",
                  _chart(res.trace.records, "iteration", ("probability", "fidelity"), "line",
                         f"amplification trace, dim {res.dim}",
                         vline=float(res.k_marker), vline_label="k"))
                 for res in results]
    else:
        files = [(path / f"ensemble_dim{dim}.svg",
                  _chart([r for r in results if r.dim == dim], "trial",
                         ("final_fidelity", "final_probability", "ef"), "scatter",
                         f"amplified trials, dim {dim}"))
                 for dim in sorted({r.dim for r in results})]
    files[0][0].parent.mkdir(parents=True, exist_ok=True)  # one directory holds every file
    for out, text in files:
        out.write_text(text)
    return [out for out, _ in files]
