"""Amplification iterates checked against closed forms and dense-matrix
reconstructions built independently in the tests."""

import math

import numpy as np
import pytest

from oaasim import (
    IterationTrace,
    SplitMix64,
    StateVector,
    TraceRecord,
    ValidationError,
    apply_circuit,
    build_estimated_embedding,
    build_lcu_encoding,
    build_row_encoding,
    dense_matrix_of,
    householder_from_vector,
    iteration_count,
    mu_normalize,
    oblivious_aa,
    prepare_input,
    random_input,
    random_symmetric,
    standard_aa,
)


def seeded_embedded(order, seed):
    a = random_symmetric(order // 2, SplitMix64(seed))
    normalized, mu = mu_normalize(a)
    return build_estimated_embedding(normalized, mu).u


def good_indices(circ):
    if circ.good_register == "second":
        return [a * circ.n_dim for a in range(circ.m_dim)]
    return list(range(circ.n_dim))


def good_reflection_matrix(circ):
    total = circ.m_dim * circ.n_dim
    s = np.eye(total)
    for i in good_indices(circ):
        s[i, i] = -1.0
    return s


def test_iteration_count_values():
    assert iteration_count(16) == 3
    assert iteration_count(32) == 4
    assert iteration_count(64) == 6
    assert iteration_count(128) == 8
    assert iteration_count(1) == 0
    assert iteration_count(10000) == 78
    with pytest.raises(ValidationError):
        iteration_count(0)


def test_adjoint_probability_closed_form_on_orthogonal_encoding():
    m = 16
    gen = SplitMix64(71)
    u_vec = gen.uniform_signed_array(m)
    u_vec = u_vec / np.linalg.norm(u_vec)
    reflector = householder_from_vector(u_vec)
    circ = build_row_encoding(reflector)
    vec = random_input(m, SplitMix64(72))
    state = prepare_input(circ, vec)
    k = iteration_count(m)
    trace = oblivious_aa(circ, state, k, "adjoint", reflector @ vec)
    theta = math.asin(1.0 / math.sqrt(m))
    for rec in trace.records:
        expect = math.sin((2 * rec.iteration + 1) * theta) ** 2
        assert rec.probability == pytest.approx(expect, abs=1e-12)
        assert rec.fidelity == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("variant", ["literal", "adjoint"])
def test_oblivious_iterate_matches_dense_loop(variant):
    order = 8
    u = seeded_embedded(order, 81)
    circ = build_row_encoding(u)
    dense = dense_matrix_of(circ)
    s = good_reflection_matrix(circ)
    vec = random_input(order, SplitMix64(82))
    state = prepare_input(circ, vec)
    target = u @ vec
    k = 4
    trace = oblivious_aa(circ, state, k, variant, target)

    # independent loop on the dense operator
    psi = dense @ state.amplitudes
    idx = good_indices(circ)
    second = dense if variant == "literal" else dense.T
    for rec in trace.records:
        if rec.iteration > 0:
            psi = -(dense @ (s @ (second @ (s @ psi))))
        good = psi[idx]
        prob = float(good @ good)
        assert rec.probability == pytest.approx(prob, abs=1e-12)
        overlap = abs(float(good @ target)) / (
            np.linalg.norm(good) * np.linalg.norm(target)
        )
        assert rec.fidelity == pytest.approx(overlap, abs=1e-12)
    assert trace.records[0].fidelity == pytest.approx(1.0, abs=1e-12)
    assert trace.k_target == k
    assert [r.iteration for r in trace.records] == list(range(k + 1))


def test_variants_coincide_on_symmetric_circuit():
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    coeffs = np.array([1.0, 1.0]) / math.sqrt(2.0)
    circ = build_lcu_encoding([z, x], coeffs)
    dense = dense_matrix_of(circ)
    assert np.max(np.abs(dense - dense.T)) < 1e-15

    vec = np.array([0.6, 0.8])
    state = prepare_input(circ, vec)
    target = (z + x) @ vec
    lit = oblivious_aa(circ, state, 3, "literal", target)
    adj = oblivious_aa(circ, state, 3, "adjoint", target)
    for a, b in zip(lit.records, adj.records):
        assert a.probability == pytest.approx(b.probability, abs=1e-13)
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-13)


def test_trace_prefix_is_consistent():
    u = seeded_embedded(8, 91)
    circ = build_row_encoding(u)
    vec = random_input(8, SplitMix64(92))
    state = prepare_input(circ, vec)
    target = u @ vec
    short = oblivious_aa(circ, state, 2, "literal", target)
    long = oblivious_aa(circ, state, 5, "literal", target)
    for a, b in zip(short.records, long.records[:3]):
        assert a == b
    zero = oblivious_aa(circ, state, 0, "literal", target)
    assert len(zero.records) == 1
    assert zero.records[0] == long.records[0]


def test_trace_peak_selects_highest_probability():
    # run well past the standard count so the probability tops out and
    # then declines; the peak record must carry the running maximum
    u = seeded_embedded(16, 95)
    circ = build_row_encoding(u)
    vec = random_input(16, SplitMix64(96))
    state = prepare_input(circ, vec)
    trace = oblivious_aa(circ, state, 7, "adjoint", u @ vec)
    probs = [r.probability for r in trace.records]
    idx = int(np.argmax(probs))
    assert trace.peak == trace.records[idx]
    assert trace.peak.probability == max(probs)
    assert idx < len(trace.records) - 1
    assert trace.peak.probability > trace.final.probability


def test_trace_peak_breaks_ties_toward_earlier_iteration():
    records = [
        TraceRecord(iteration=0, probability=0.25, fidelity=1.0),
        TraceRecord(iteration=1, probability=0.75, fidelity=0.9),
        TraceRecord(iteration=2, probability=0.75, fidelity=0.8),
        TraceRecord(iteration=3, probability=0.5, fidelity=0.7),
    ]
    trace = IterationTrace(records=records, k_target=3, variant="adjoint")
    assert trace.peak == records[1]
    assert trace.final == records[3]


def test_input_must_sit_on_good_register():
    u = seeded_embedded(4, 93)
    circ = build_row_encoding(u)
    amps = np.zeros(16)
    amps[1] = 1.0  # second register at index 1: not a valid input
    with pytest.raises(ValidationError):
        oblivious_aa(circ, StateVector(amps, 4, 4), 1, "literal", np.ones(4))
    with pytest.raises(ValidationError):
        state = prepare_input(circ, random_input(4, SplitMix64(1)))
        oblivious_aa(circ, state, 1, "sideways", np.ones(4))


def test_standard_iterate_matches_exact_rotation():
    # the input-dependent iterate rotates in a fixed plane, so its
    # probability follows sin((2i+1) theta)^2 exactly and fidelity is flat
    order = 8
    u = seeded_embedded(order, 95)
    circ = build_row_encoding(u)
    vec = random_input(order, SplitMix64(96))
    prep = householder_from_vector(vec)
    target = u @ vec
    trace = standard_aa(circ, prep, 3, target)
    theta = math.asin(math.sqrt(trace.records[0].probability))
    fid0 = trace.records[0].fidelity
    for rec in trace.records:
        expect = math.sin((2 * rec.iteration + 1) * theta) ** 2
        assert rec.probability == pytest.approx(expect, abs=1e-12)
        assert rec.fidelity == pytest.approx(fid0, abs=1e-12)
    assert trace.variant == "standard"


def test_standard_iterate_matches_dense_loop():
    order = 4
    u = seeded_embedded(order, 97)
    circ = build_row_encoding(u)
    dense = dense_matrix_of(circ)
    vec = random_input(order, SplitMix64(98))
    prep = householder_from_vector(vec)
    target = u @ vec
    k = 3
    trace = standard_aa(circ, prep, k, target)

    b = dense @ np.kron(prep, np.eye(order))
    s = good_reflection_matrix(circ)
    r0 = -np.eye(order * order)
    r0[0, 0] = 1.0
    start = np.zeros(order * order)
    start[0] = 1.0
    psi = b @ start
    idx = good_indices(circ)
    for rec in trace.records:
        if rec.iteration > 0:
            psi = b @ (r0 @ (np.linalg.solve(b, s @ psi)))
        good = psi[idx]
        assert rec.probability == pytest.approx(float(good @ good), abs=1e-12)


def test_standard_rejects_bad_prep():
    u = seeded_embedded(4, 99)
    circ = build_row_encoding(u)
    with pytest.raises(ValidationError):
        standard_aa(circ, np.ones((4, 4)), 1, np.ones(4))
    with pytest.raises(Exception):
        standard_aa(circ, np.eye(3), 1, np.ones(4))


def test_standard_rejects_nan_prep():
    circ = build_row_encoding(seeded_embedded(4, 99))
    with pytest.raises(ValidationError, match="not orthogonal"):
        standard_aa(circ, np.full((4, 4), np.nan), 1, np.ones(4))
