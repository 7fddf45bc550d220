"""Matrix products and matrix-function approximations by chained circuits.

A product of symmetric factors W_0, ..., W_{J-1} applied to an input vector
is simulated stage by stage: each factor is scaled by its row-sum bound,
embedded with estimated diagonal blocks, run through the row-encoding
circuit with amplification, and collapsed back to an embedded-order vector
that feeds the next stage. Two factorizations of matrix functions are
provided:

* exp(A) as the truncation (I + A/k)^k with k identical factors;
* cos(pi A) as the truncation of the even product
  prod_{j=0}^{J-1} (I - 2A/(2j+1)) (I + 2A/(2j+1)),
  whose j = 0 pair makes the product vanish exactly at A = I/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .amplification import iteration_count, oblivious_aa
from .circuit import _encode_input, _encode_matrix, collapse_good
from .errors import DimensionError, ValidationError
from .linalg import _check_count, _unit_vector, check_symmetric, sym_eigen


@dataclass(frozen=True)
class ProductPlan:
    """Ordered factors of a matrix product, with the function and
    truncation order they approximate and the classically computed
    reference operator."""

    factors: tuple
    function: str
    truncation: int
    target_oracle: np.ndarray


@dataclass(frozen=True)
class StageRecord:
    """Amplification outcome of one product stage. The fields, in order,
    are the columns of the stages CSV table."""

    stage: int
    probability: float
    fidelity: float
    mu_scale: float


def _check_factor(w: np.ndarray, order: int | None) -> int:
    w = check_symmetric(w)
    if order is not None and w.shape[0] != order:
        raise DimensionError(
            f"factor order {w.shape[0]} does not match {order}"
        )
    return w.shape[0]


def product_of_factors(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Classical product of the factors in application order: the first
    factor in the list acts on the input first."""
    factors = [np.asarray(w, dtype=float) for w in factors]
    if not factors:
        raise ValidationError("product needs at least one factor")
    order = None
    for w in factors:
        order = _check_factor(w, order)
    out = np.eye(order)
    for w in factors:
        out = w @ out
    return out


def matrix_function_oracle(a: np.ndarray, function: str) -> np.ndarray:
    """Exact matrix function through the symmetric eigendecomposition:
    exp(A) for "exp", cos(pi A) for "cos"."""
    a = check_symmetric(a)
    pair = sym_eigen(a)
    if function == "exp":
        mapped = np.exp(pair.values)
    elif function == "cos":
        mapped = np.cos(np.pi * pair.values)
    else:
        raise ValidationError(f"no oracle for function {function!r}")
    return (pair.vectors * mapped) @ pair.vectors.T


def exp_product_factors(a: np.ndarray, truncation: int) -> ProductPlan:
    """Plan for exp(A) ~ (I + A/k)^k with k = truncation."""
    a = check_symmetric(a)
    truncation = _check_count(truncation, "exp truncation", 1)
    w = np.eye(a.shape[0]) + a / float(truncation)
    return ProductPlan(
        factors=tuple([w] * truncation),
        function="exp",
        truncation=truncation,
        target_oracle=matrix_function_oracle(a, "exp"),
    )


def cos_product_factors(a: np.ndarray, truncation: int) -> ProductPlan:
    """Plan for cos(pi A) ~ prod_{j=0}^{J-1} (I - 2A/(2j+1))
    (I + 2A/(2j+1)) with J = truncation. The factor pair for j = 0 makes
    the truncation vanish identically at A = I/2."""
    a = check_symmetric(a)
    truncation = _check_count(truncation, "cos truncation", 1)
    eye = np.eye(a.shape[0])
    factors = []
    for j in range(truncation):
        scale = 2.0 / (2.0 * j + 1.0)
        factors.append(eye - scale * a)
        factors.append(eye + scale * a)
    return ProductPlan(
        factors=tuple(factors),
        function="cos",
        truncation=truncation,
        target_oracle=matrix_function_oracle(a, "cos"),
    )


def custom_product_plan(factors: Sequence[np.ndarray]) -> ProductPlan:
    """Plan for an explicit factor list; the reference operator is the
    classical product."""
    factors = tuple(np.asarray(w, dtype=float) for w in factors)
    return ProductPlan(
        factors=factors,
        function="custom",
        truncation=len(factors),
        target_oracle=product_of_factors(factors),
    )


def chained_product_circuit(
    plan: ProductPlan,
    input_vec: np.ndarray,
    variant: str = "literal",
):
    """Apply the plan's factors to input_vec through chained embedded
    circuits. input_vec, of the factor order d (encode puts it in the top
    half of the embedded space) or the embedded order 2d, is normalized
    first. A factor object that repeats in the plan is encoded once and its
    circuit reused. Returns the final collapsed vector and the per-stage
    records."""
    if not plan.factors:
        raise ValidationError("plan has no factors")
    order = _check_factor(plan.factors[0], None)
    vec = _unit_vector(input_vec, "input vector")

    records, matrices = [], {}  # encode's matrix half, once per distinct factor object
    for stage, w in enumerate(plan.factors):
        if id(w) not in matrices:
            _check_factor(w, order)
            matrices[id(w)] = _encode_matrix(w)
        enc = _encode_input(matrices[id(w)], vec, "embedded")
        k = iteration_count(enc.embedding.order)
        trace, final_state = oblivious_aa(
            enc.circuit, enc.state, k, variant, enc.target, return_final_state=True
        )
        collapsed, probability = collapse_good(enc.circuit, final_state)
        records.append(StageRecord(stage=stage, probability=probability,
                                   fidelity=trace.final.fidelity, mu_scale=enc.embedding.mu))
        vec = collapsed
    return vec, records
