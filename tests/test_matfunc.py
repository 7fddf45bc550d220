"""Product factorizations of matrix functions and chained-circuit applies."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from oaasim import (
    DimensionError,
    ProductPlan,
    SplitMix64,
    ValidationError,
    chained_product_circuit,
    cos_product_factors,
    custom_product_plan,
    exp_product_factors,
    fidelity,
    householder_from_vector,
    matrix_function_oracle,
    product_of_factors,
    random_input,
    random_symmetric,
    spectral_norm_symmetric,
)
from oaasim.experiments import csv_lines


def test_exp_factors_structure():
    a = np.array([[0.5, 0.1], [0.1, -0.2]])
    plan = exp_product_factors(a, 4)
    assert plan.function == "exp"
    assert plan.truncation == 4
    assert len(plan.factors) == 4
    for w in plan.factors:
        assert np.allclose(w, np.eye(2) + a / 4.0, atol=0.0)


def test_exp_scalar_hand_values():
    # (1 + 1/10)^10 with exact decimal expansion
    plan = exp_product_factors(np.array([[1.0]]), 10)
    assert product_of_factors(plan.factors)[0, 0] == pytest.approx(
        2.5937424601, abs=1e-10
    )
    # (1 + 1/1000)^1000 approaches e
    plan = exp_product_factors(np.array([[1.0]]), 1000)
    err = abs(product_of_factors(plan.factors)[0, 0] - math.e)
    assert err < 1.4e-3


def test_exp_matrix_truncation_improves():
    for seed in range(5):
        a = random_symmetric(3, SplitMix64(300 + seed))
        a = a / spectral_norm_symmetric(a)
        oracle = matrix_function_oracle(a, "exp")
        errs = []
        for k in (8, 64):
            approx = product_of_factors(exp_product_factors(a, k).factors)
            errs.append(np.linalg.norm(approx - oracle, 2))
        assert errs[1] < errs[0]


def test_cos_factors_structure_and_exact_zero():
    a = np.array([[0.3]])
    plan = cos_product_factors(a, 3)
    assert plan.function == "cos"
    assert len(plan.factors) == 6
    # leading pair uses the first odd number
    assert np.allclose(plan.factors[0], np.eye(1) - 2.0 * a, atol=0.0)
    assert np.allclose(plan.factors[1], np.eye(1) + 2.0 * a, atol=0.0)

    half_identity = np.eye(4) / 2.0
    prod = product_of_factors(cos_product_factors(half_identity, 5).factors)
    assert np.abs(prod).max() == 0.0


def test_cos_scalar_converges():
    a = np.array([[0.25]])
    prod = product_of_factors(cos_product_factors(a, 50).factors)
    err = abs(prod[0, 0] - math.cos(math.pi * 0.25))
    assert err < 5e-3


def test_matrix_function_oracle_against_numpy_route():
    a = random_symmetric(5, SplitMix64(310))
    vals, vecs = np.linalg.eigh(a)
    expect_exp = (vecs * np.exp(vals)) @ vecs.T
    expect_cos = (vecs * np.cos(np.pi * vals)) @ vecs.T
    assert np.max(np.abs(matrix_function_oracle(a, "exp") - expect_exp)) < 1e-11
    assert np.max(np.abs(matrix_function_oracle(a, "cos") - expect_cos)) < 1e-11
    with pytest.raises(ValidationError):
        matrix_function_oracle(a, "sin")


def test_product_order_is_application_order():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.diag([1.0, -1.0])
    # a acts first, so the product is b @ a
    assert np.array_equal(product_of_factors([a, b]), b @ a)
    assert np.array_equal(product_of_factors([b, a]), a @ b)
    with pytest.raises(ValidationError):
        product_of_factors([])
    with pytest.raises(DimensionError):
        product_of_factors([np.eye(2), np.eye(3)])


def test_custom_plan_oracle_is_the_product():
    factors = [random_symmetric(2, SplitMix64(s)) for s in (320, 321)]
    plan = custom_product_plan(factors)
    assert plan.function == "custom"
    assert np.array_equal(plan.target_oracle, product_of_factors(factors))


def test_single_orthogonal_factor_chain_is_faithful():
    gen = SplitMix64(330)
    u_vec = gen.uniform_signed_array(4)
    u_vec = u_vec / np.linalg.norm(u_vec)
    w = householder_from_vector(u_vec)
    plan = custom_product_plan([w])
    vec = random_input(4, SplitMix64(331))
    collapsed, records = chained_product_circuit(plan, vec, "adjoint")
    assert len(records) == 1
    assert records[0].fidelity == pytest.approx(1.0, abs=1e-9)
    assert records[0].mu_scale == pytest.approx(1.0, abs=1e-12)
    expect = np.concatenate([w @ vec, np.zeros(4)])
    assert fidelity(collapsed, expect) == pytest.approx(1.0, abs=1e-9)


def test_two_orthogonal_factor_chain_reproduces_product():
    first = householder_from_vector(np.array([0.6, 0.8, 0.0, 0.0]))
    second = householder_from_vector(np.full(4, 0.5))
    plan = custom_product_plan([first, second])
    vec = random_input(4, SplitMix64(333))
    collapsed, records = chained_product_circuit(plan, vec, "adjoint")
    expect = np.concatenate([second @ first @ vec, np.zeros(4)])
    assert fidelity(collapsed, expect) >= 1.0 - 1e-8
    assert len(records) == 2


def test_exp_chain_fidelity_stays_high():
    # measured floor across these seeds is 0.90; the asserted bound leaves
    # headroom for platform rounding differences
    worst = 1.0
    for seed in range(20):
        a = random_symmetric(4, SplitMix64(1000 + seed))
        a = a / (2.0 * spectral_norm_symmetric(a))
        plan = exp_product_factors(a, 8)
        vec = random_input(4, SplitMix64(2000 + seed))
        collapsed, _ = chained_product_circuit(plan, vec, "adjoint")
        reference = plan.target_oracle @ vec
        expect = np.concatenate([reference, np.zeros(4)])
        worst = min(worst, fidelity(collapsed, expect))
    assert worst >= 0.85


def test_chain_input_handling():
    w = householder_from_vector(np.full(4, 0.5))
    plan = custom_product_plan([w])
    padded = np.zeros(8)
    padded[:4] = random_input(4, SplitMix64(335))
    collapsed, _ = chained_product_circuit(plan, padded, "adjoint")
    assert collapsed.size == 8
    with pytest.raises(DimensionError):
        chained_product_circuit(plan, np.ones(5) / math.sqrt(5.0), "adjoint")
    with pytest.raises(ValidationError):
        chained_product_circuit(plan, np.zeros(4), "adjoint")
    # refused before normalizing, which would divide by an infinite norm
    for bad in ([np.inf, 1.0, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0]):
        with pytest.raises(ValidationError, match="non-finite"):
            chained_product_circuit(plan, np.array(bad), "adjoint")
    empty = ProductPlan(factors=(), function="custom", truncation=0,
                        target_oracle=np.eye(4))
    with pytest.raises(ValidationError, match="no factors"):
        chained_product_circuit(empty, padded, "adjoint")


def test_chain_input_scale_is_immaterial():
    # the input norm overflowed near 1e200 and underflowed near 1e-200
    plan = exp_product_factors(np.diag([0.3, -0.2, 0.1, 0.4]), 2)
    vec = random_input(4, SplitMix64(336))
    plain, plain_records = chained_product_circuit(plan, vec, "adjoint")
    for power in (700, -700):
        scaled, records = chained_product_circuit(plan, np.ldexp(vec, power), "adjoint")
        assert np.array_equal(scaled, plain) and records == plain_records


def test_chain_factor_order_input_matches_padded_input():
    # a factor-order input is normalized before encode pads it, a padded one
    # at full length; the two routes may differ only by rounding
    a = random_symmetric(8, SplitMix64(337))
    plan = exp_product_factors(a / spectral_norm_symmetric(a), 2)
    vec = random_input(8, SplitMix64(338))
    padded = np.zeros(16)
    padded[:8] = vec
    short, short_records = chained_product_circuit(plan, vec, "adjoint")
    full, full_records = chained_product_circuit(plan, padded, "adjoint")
    assert np.max(np.abs(short - full)) <= 1e-14
    for x, y in zip(short_records, full_records, strict=True):
        assert x.probability == pytest.approx(y.probability, abs=1e-14)
        assert x.fidelity == pytest.approx(y.fidelity, abs=1e-14)


def test_plan_validation():
    with pytest.raises(ValidationError):
        exp_product_factors(np.eye(2), 0)
    with pytest.raises(ValidationError):
        cos_product_factors(np.eye(2), 0)
    for bad in (2.5, 1.5, True):
        with pytest.raises(ValidationError, match="must be an integer"):
            exp_product_factors(np.eye(2), bad)
        with pytest.raises(ValidationError, match="must be an integer"):
            cos_product_factors(np.eye(2), bad)
    assert exp_product_factors(np.eye(2), np.int64(2)).truncation == 2
    with pytest.raises(Exception):
        exp_product_factors(np.array([[0.0, 1.0], [0.5, 0.0]]), 2)


def test_stage_csv_format():
    w = householder_from_vector(np.full(4, 0.5))
    plan = custom_product_plan([w, w])
    vec = random_input(4, SplitMix64(336))
    _, records = chained_product_circuit(plan, vec, "adjoint")
    lines = csv_lines([asdict(r) for r in records])
    assert lines[0] == "stage,probability,fidelity,mu_scale"
    assert len(lines) == 3
    parts = lines[1].split(",")
    assert int(parts[0]) == 0
    assert float(parts[1]) == records[0].probability
    assert float(parts[3]) == records[0].mu_scale
