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

A plan holds only its factors, checked when it is made. A chain is
checked against a classical vector, exact up to a positive scale, that
never forms the product or f(A), so it neither overflows nor underflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .amplification import VARIANTS, iteration_count, oblivious_aa
from .circuit import _encode_input, _encode_matrix, collapse_good
from .errors import DimensionError, ValidationError, _located
from .linalg import (
    _check_choice,
    _check_count,
    _float_array,
    _items,
    _pow2_scaled,
    _spectral_map,
    _unit_vector,
    check_symmetric,
    sym_eigen,
)

FUNCTIONS = ("exp", "cos")


@dataclass(frozen=True, eq=False)
class ProductPlan:
    """Ordered factors of a matrix product, in application order: any
    iterable of at least one symmetric factor, all of one order. Each
    distinct factor object is converted to a float array and checked once."""

    factors: tuple

    def __post_init__(self):
        given = _items(self.factors, "factors")
        converted = {id(w): _float_array(w, "factor") for w in given}  # a repeat stays one object
        factors = tuple(converted[id(w)] for w in given)
        if not factors:
            raise ValidationError("product needs at least one factor")
        for w in converted.values():
            check_symmetric(w)
            if w.shape != factors[0].shape:
                raise DimensionError(f"factor order {len(w)} does not match {len(factors[0])}")
        object.__setattr__(self, "factors", factors)


@dataclass(frozen=True)
class StageRecord:
    """Amplification outcome of one product stage. The fields, in order,
    are the columns of the stages CSV table."""

    stage: int
    probability: float
    fidelity: float
    mu_scale: float


def product_of_factors(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Classical product of the factors in application order: the first
    factor in the list acts on the input first. A product that overflows
    a float is refused. The factors are refused as ProductPlan refuses them."""
    factors = ProductPlan(factors).factors
    out = np.eye(factors[0].shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for w in factors:
            out = w @ out
    if not np.isfinite(out).all():
        raise ValidationError("the product of the factors overflows a float")
    return out


def _product_reference(factors: Sequence[np.ndarray], vec: np.ndarray) -> np.ndarray:
    """product_of_factors(factors) @ vec up to a positive power of two: the
    factors act on vec in turn, each result rescaled by _pow2_scaled, so
    no product of any scale overflows or underflows to zero."""
    for w in factors:
        vec = _pow2_scaled(w @ vec)[0]
    return vec


def matrix_function_oracle(a: np.ndarray, function: str) -> np.ndarray:
    """Exact matrix function through the symmetric eigendecomposition:
    exp(A) for "exp", cos(pi A) for "cos", the two FUNCTIONS. exp refuses an
    eigenvalue above 709, whose exp would leave less than a factor 2 below
    float overflow."""
    _check_choice(function, FUNCTIONS, "function")
    pair = sym_eigen(a)
    if function == "exp":
        top = float(pair.values.max())
        if top > 709.0:
            raise ValidationError(f"exp overflows: eigenvalue {top!r} is above 709")
        mapped = np.exp(pair.values)
    else:
        mapped = np.cos(np.pi * pair.values)
    return _spectral_map(pair, mapped)


def _function_reference(a: np.ndarray, function: str, vec: np.ndarray) -> np.ndarray:
    """matrix_function_oracle(a, function) @ vec up to a positive scale, as
    V (f(L) * c) with c = V^T vec from one sym_eigen(a). exp weighs by
    exp(min(L - m, 0)), m the largest eigenvalue with c_j != 0: the
    eigenvalues that carry vec have weights in (0, 1], the top one exactly 1."""
    pair = sym_eigen(a)
    c = pair.vectors.T @ vec
    if function == "exp":
        top = pair.values[c != 0.0].max()
        with np.errstate(over="ignore"):  # a gap beyond the float range weighs exp(-inf) = 0
            mapped = np.exp(np.minimum(pair.values - top, 0.0))
    else:
        mapped = np.cos(np.pi * pair.values)
    return pair.vectors @ (mapped * c)


def exp_product_factors(a: np.ndarray, truncation: int) -> ProductPlan:
    """Plan for exp(A) ~ (I + A/k)^k with k = truncation."""
    a = check_symmetric(a)
    truncation = _check_count(truncation, "exp truncation", 1)
    w = np.eye(a.shape[0]) + a / float(truncation)
    return ProductPlan(factors=tuple([w] * truncation))


def cos_product_factors(a: np.ndarray, truncation: int) -> ProductPlan:
    """Plan for cos(pi A) ~ prod_{j=0}^{J-1} (I - 2A/(2j+1))
    (I + 2A/(2j+1)) with J = truncation. The factor pair for j = 0 makes
    the truncation vanish identically at A = I/2. An A whose 2A overflows is refused."""
    a = check_symmetric(a)
    truncation = _check_count(truncation, "cos truncation", 1)
    if float(np.abs(a).max()) > np.finfo(float).max / 2.0:
        raise ValidationError("cos factor I -+ 2 A (j = 0) overflows a float")
    eye = np.eye(a.shape[0])
    factors = []
    for j in range(truncation):
        scale = 2.0 / (2.0 * j + 1.0)
        factors.append(eye - scale * a)
        factors.append(eye + scale * a)
    return ProductPlan(factors=tuple(factors))


def custom_product_plan(factors: Sequence[np.ndarray]) -> ProductPlan:
    """Plan for an explicit factor list, refused as ProductPlan refuses it."""
    return ProductPlan(factors)


def chained_product_circuit(
    plan: ProductPlan,
    input_vec: np.ndarray,
    variant: str = VARIANTS[0],
):
    """Apply the plan's factors to input_vec through chained embedded
    circuits. input_vec, of the factor order d (encode puts it in the top
    half of the embedded space) or the embedded order 2d, is normalized
    first. variant is one of VARIANTS, the first by default, checked before
    any stage is encoded. The plan was checked when it was made and is taken
    as given. A factor object that repeats in the plan is encoded once and
    its circuit reused. A NumericalError raised in a stage keeps its class,
    and its message starts with `stage i of n: `, i counted from 0 as the
    records count it. Returns the final collapsed vector and the per-stage
    records."""
    _check_choice(variant, VARIANTS, "variant")
    vec = _unit_vector(input_vec, "input vector")

    records, matrices = [], {}  # encode's matrix half, once per distinct factor object
    for stage, w in enumerate(plan.factors):
        with _located(f"stage {stage} of {len(plan.factors)}"):
            if id(w) not in matrices:
                matrices[id(w)] = _encode_matrix(w)
            enc = _encode_input(matrices[id(w)], vec, "embedded")
            k = iteration_count(enc.embedding.order)
            trace, final_state = oblivious_aa(
                enc.circuit, enc.state, k, variant, enc.target, return_final_state=True
            )
            vec, probability = collapse_good(enc.circuit, final_state)
        records.append(StageRecord(stage=stage, probability=probability,
                                   fidelity=trace.final.fidelity, mu_scale=enc.embedding.mu))
    return vec, records
