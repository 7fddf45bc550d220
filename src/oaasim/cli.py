"""Command line interface.

Subcommands: embed (build an embedded operator and report closeness),
amplify (run amplification on one matrix and input, emitting the iteration
trace as CSV), experiment (random-matrix experiment families with CSV and
SVG output), product (chained circuits for an explicit factor list), and
matfunc (chained circuits for exp or cos truncations).

Exit codes: 0 on success, 1 for invalid arguments or inputs (including
unreadable files and sizes too large to allocate), 2 for numerical
failures (non-convergence, degenerate spectra, lost amplitude).
The resolved configuration, including seeds, is printed to stderr before
any computation; result payloads go to stdout or files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .amplification import VARIANTS, iteration_count, oblivious_aa
from .circuit import encode
from .embedding import build_estimated_embedding, closeness, mu_normalize
from .errors import NumericalError, ValidationError
from .experiments import (EXPERIMENT_KINDS, ExperimentConfig, csv_lines, emit_outputs,
                          run_ensemble, run_trace)
from .linalg import _read_vector, _unit_vector, read_matrix, write_matrix
from .matfunc import (
    FUNCTIONS,
    _function_reference,
    _product_reference,
    chained_product_circuit,
    cos_product_factors,
    custom_product_plan,
    exp_product_factors,
)
from .metrics import FIDELITY_MODES, fidelity


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with status 1 instead of argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oaasim",
        description="simulate embedded-matrix circuits with amplitude amplification",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("embed", help="embed a symmetric matrix and report closeness")
    p.add_argument("--matrix", required=True, help="matrix file to embed")
    p.add_argument("--out", default="embedded_u.txt", help="output file for the operator")

    p = sub.add_parser("amplify", help="amplify one matrix applied to one input")
    p.add_argument("--matrix", required=True)
    p.add_argument("--input", required=True, help="input vector file")
    p.add_argument("--k", type=int, default=None, help="iteration count (default pi/4 sqrt rule)")
    p.add_argument("--variant", choices=VARIANTS, default=VARIANTS[0])
    p.add_argument("--fidelity", choices=FIDELITY_MODES, default=FIDELITY_MODES[0])
    p.add_argument("--out", default=None, help="trace CSV file (default stdout)")

    p = sub.add_parser("experiment", help="run a random-matrix experiment family")
    p.add_argument("--kind", choices=EXPERIMENT_KINDS, required=True)
    p.add_argument("--dims", default="16,32,64,128", help="comma separated embedded dimensions")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", choices=VARIANTS, default=VARIANTS[0])
    p.add_argument("--fidelity", choices=FIDELITY_MODES, default=FIDELITY_MODES[0])
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("product", help="apply a product of symmetric factors by chained circuits")
    p.add_argument("--factors", nargs="+", required=True, help="factor matrix files in application order")
    p.add_argument("--input", default=None, help="input vector file (default first basis vector)")
    p.add_argument("--variant", choices=VARIANTS, default=VARIANTS[0])
    p.add_argument("--out", default=None, help="output directory (default stdout)")

    p = sub.add_parser("matfunc", help="apply an exp or cos truncation by chained circuits")
    p.add_argument("--fn", choices=FUNCTIONS, required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--trunc", type=int, required=True, help="truncation order")
    p.add_argument("--input", default=None, help="input vector file (default first basis vector)")
    p.add_argument("--variant", choices=VARIANTS, default=VARIANTS[0])
    p.add_argument("--out", default=None, help="output directory (default stdout)")
    return parser


def _print_config(items: dict) -> None:
    rendered = " ".join(f"{k}={v}" for k, v in items.items())
    print(f"config: {rendered}", file=sys.stderr)


def _load_unit_vector(path_or_none, order: int) -> np.ndarray:
    if path_or_none is None:
        vec = np.zeros(order)
        vec[0] = 1.0
        return vec
    return _unit_vector(_read_vector(path_or_none), f"input vector in {path_or_none}")


def _cmd_embed(args) -> int:
    a = read_matrix(args.matrix)
    normalized, mu = mu_normalize(a)
    emb = build_estimated_embedding(normalized, mu)
    report = closeness(emb.u)
    write_matrix(args.out, emb.u)
    for name, value in {"mu": mu, **asdict(report)}.items():
        print(f"{name}={value!r}")
    print(f"u_written={args.out}")
    return 0


def _cmd_amplify(args) -> int:
    a = read_matrix(args.matrix)
    enc = encode(a, _load_unit_vector(args.input, a.shape[0]), args.fidelity)
    k = args.k if args.k is not None else iteration_count(enc.circuit.m_dim)
    trace = oblivious_aa(enc.circuit, enc.state, k, args.variant, enc.target)
    lines = csv_lines([asdict(r) for r in trace.records])
    if args.out is None:
        print("\n".join(lines))
    else:
        Path(args.out).write_text("\n".join(lines) + "\n")
        final = trace.final
        print(f"trace_written={args.out}")
        print(f"final_probability={final.probability!r}")
        print(f"final_fidelity={final.fidelity!r}")
    return 0


def _cmd_experiment(args) -> int:
    try:
        dims = tuple(int(part) for part in args.dims.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"cannot parse dims {args.dims!r}")
    cfg = ExperimentConfig(dims=dims, trials=args.trials, seed=args.seed, variant=args.variant,
                           fidelity_mode=args.fidelity, experiment=args.kind)
    out_dir = Path(args.out)
    results = (run_trace if args.kind == "trace" else run_ensemble)(cfg)
    written = emit_outputs(results, "csv", out_dir / f"{args.kind}.csv")
    written += emit_outputs(results, "svg", out_dir / args.kind)
    for path in written:
        print(f"written={path}")
    return 0


def _run_plan(plan, args, reference) -> int:
    order = plan.factors[0].shape[0]
    vec = _load_unit_vector(args.input, order)
    if vec.size != order:
        raise ValidationError(
            f"input length {vec.size} does not match the factor order {order}"
        )
    collapsed, records = chained_product_circuit(plan, vec, args.variant)
    embedded_ref = np.zeros(2 * order)
    embedded_ref[:order] = reference(vec)  # up to a positive scale, which fidelity ignores
    final_fid = fidelity(collapsed, embedded_ref)
    lines = csv_lines([asdict(r) for r in records])
    if args.out is None:
        print("\n".join(lines))
    else:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        stage_path = out_dir / "stages.csv"
        stage_path.write_text("\n".join(lines) + "\n")
        vector_path = out_dir / "final_vector.txt"
        write_matrix(vector_path, collapsed)
        print(f"written={stage_path}")
        print(f"written={vector_path}")
    print(f"final_fidelity_vs_oracle={final_fid!r}")
    return 0


def _cmd_product(args) -> int:
    factors = [read_matrix(path) for path in args.factors]
    plan = custom_product_plan(factors)
    return _run_plan(plan, args, lambda vec: _product_reference(plan.factors, vec))


def _cmd_matfunc(args) -> int:
    a = read_matrix(args.matrix)
    if args.fn == "exp":
        plan = exp_product_factors(a, args.trunc)
    else:
        plan = cos_product_factors(a, args.trunc)
    return _run_plan(plan, args, lambda vec: _function_reference(a, args.fn, vec))


_DISPATCH = {
    "embed": _cmd_embed,
    "amplify": _cmd_amplify,
    "experiment": _cmd_experiment,
    "product": _cmd_product,
    "matfunc": _cmd_matfunc,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    config["command"] = args.command
    _print_config(config)
    try:
        return _DISPATCH[args.command](args)
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
