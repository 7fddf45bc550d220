"""Product factorizations of matrix functions and chained-circuit applies."""

import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oaasim.matfunc
from oaasim import (
    DimensionError,
    NoGoodAmplitudeError,
    ProductPlan,
    SplitMix64,
    SymmetryError,
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
    write_matrix,
)
from oaasim.cli import main
from oaasim.experiments import csv_lines
from oaasim.matfunc import _function_reference, _product_reference


def test_exp_factors_structure():
    a = np.array([[0.5, 0.1], [0.1, -0.2]])
    plan = exp_product_factors(a, 4)
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
    assert len(plan.factors) == 6
    # leading pair uses the first odd number
    assert np.allclose(plan.factors[0], np.eye(1) - 2.0 * a, atol=0.0)
    assert np.allclose(plan.factors[1], np.eye(1) + 2.0 * a, atol=0.0)

    half_identity = np.eye(4) / 2.0
    prod = product_of_factors(cos_product_factors(half_identity, 5).factors)
    assert np.abs(prod).max() == 0.0


def test_cos_factor_that_overflows_is_refused():
    # I - 2A overflowed with RuntimeWarnings and the CLI then blamed the input
    with pytest.raises(ValidationError, match=r"cos factor I -\+ 2 A \(j = 0\) overflows"):
        cos_product_factors(np.diag([1e308, 1.0]), 2)
    edge = np.diag([np.finfo(float).max / 2.0, -1.0])  # 2A is still finite
    plan = cos_product_factors(edge, 2)
    assert np.array_equal(plan.factors[0], np.eye(2) - 2.0 * edge)
    assert np.array_equal(plan.factors[3], np.eye(2) + (2.0 / 3.0) * edge)


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


def test_product_that_overflows_is_refused():
    # the matmul overflowed with a RuntimeWarning and an inf reference
    with pytest.raises(ValidationError, match="overflows a float"):
        product_of_factors([np.diag([1e200, 1.0])] * 2)


def test_custom_plan_oracle_is_the_product():
    factors = [random_symmetric(2, SplitMix64(s)) for s in (320, 321)]
    plan = custom_product_plan(factors)
    assert np.array_equal(product_of_factors(plan.factors), product_of_factors(factors))


@pytest.mark.parametrize("factors", [
    [], [np.eye(2), np.eye(3)], [np.eye(2), np.array([[0.0, 1.0], [0.5, 0.0]])],
], ids=["empty", "mismatched", "non-symmetric"])
def test_custom_plan_refuses_as_the_product_does(factors):
    with pytest.raises(ValidationError) as want:
        product_of_factors(factors)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        custom_product_plan(factors)


@settings(max_examples=100)
@given(st.integers(2, 16), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_vector_references_match_the_matrix_oracles(order, count, seed):
    # on normal-range inputs the scale-free references point where the
    # matrix oracles applied to the input point
    a = random_symmetric(order, SplitMix64(seed))
    vec = random_input(order, SplitMix64(seed + 1))
    for function in ("exp", "cos"):
        want = matrix_function_oracle(a, function) @ vec
        assert 1.0 - fidelity(_function_reference(a, function, vec), want) <= 1e-14
    factors = [random_symmetric(order, SplitMix64(seed + 2 + j)) for j in range(count)]
    want = product_of_factors(factors) @ vec
    assert 1.0 - fidelity(_product_reference(factors, vec), want) <= 1e-14


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
        reference = matrix_function_oracle(a, "exp") @ vec
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
    with pytest.raises(ValidationError, match="at least one factor"):
        ProductPlan(factors=())


def test_chain_refuses_a_bad_later_factor_before_any_stage(monkeypatch):
    encoded = []
    real = oaasim.matfunc._encode_matrix
    monkeypatch.setattr(oaasim.matfunc, "_encode_matrix", lambda w: encoded.append(w) or real(w))
    w4 = householder_from_vector(np.full(4, 0.5))
    w8 = householder_from_vector(np.full(8, 1.0 / math.sqrt(8.0)))
    asym4 = np.eye(4)
    asym4[0, 1] = 0.5
    vec = random_input(4, SplitMix64(339))
    with pytest.raises(DimensionError, match="does not match"):
        chained_product_circuit(ProductPlan((w4, w8)), vec, "adjoint")
    with pytest.raises(SymmetryError):
        chained_product_circuit(ProductPlan((w4, w4, asym4)), vec, "adjoint")
    # a bad variant was refused by oblivious_aa, after stage 0 was encoded
    with pytest.raises(ValidationError, match="variant must be one of"):
        chained_product_circuit(ProductPlan((w4,)), vec, "other")
    assert encoded == []


def test_a_failed_stage_keeps_its_class_and_names_its_stage(monkeypatch):
    collapsed = []
    real = oaasim.matfunc.collapse_good

    def second_fails(circuit, state):
        collapsed.append(state)
        if len(collapsed) == 2:
            raise NoGoodAmplitudeError("emptied")
        return real(circuit, state)

    monkeypatch.setattr(oaasim.matfunc, "collapse_good", second_fails)
    w4 = householder_from_vector(np.full(4, 0.5))
    with pytest.raises(NoGoodAmplitudeError, match=r"^stage 1 of 3: emptied$"):
        chained_product_circuit(ProductPlan((w4, w4, w4)), random_input(4, SplitMix64(339)),
                                "adjoint")


def test_plan_checks_each_distinct_factor_once(tmp_path, monkeypatch, capsys):
    # the chain checked every plan a second time: 4 checks for two factors
    checked = []
    real = oaasim.matfunc.check_symmetric
    monkeypatch.setattr(oaasim.matfunc, "check_symmetric",
                        lambda m, *rest: checked.append(m) or real(m, *rest))
    w = householder_from_vector(np.full(4, 0.5))
    for name in ("w0.txt", "w1.txt"):
        write_matrix(tmp_path / name, w)
    assert main(["product", "--factors", str(tmp_path / "w0.txt"),
                 str(tmp_path / "w1.txt")]) == 0
    assert "final_fidelity_vs_oracle=" in capsys.readouterr().out
    assert len(checked) == 2
    checked.clear()
    a = np.diag([0.3, -0.2, 0.1, 0.4])
    plan = exp_product_factors(a, 16)
    assert checked[0] is a and [id(m) for m in checked[1:]] == [id(plan.factors[0])]
    assert all(f is plan.factors[0] for f in plan.factors)


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
    assert len(exp_product_factors(np.eye(2), np.int64(2)).factors) == 2
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
