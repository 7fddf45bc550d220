"""Amplification iterates checked against closed forms and dense-matrix
reconstructions built independently in the tests."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oaasim import (
    FIDELITY_MODES,
    VARIANTS,
    DimensionError,
    ExperimentConfig,
    IterationTrace,
    NoGoodAmplitudeError,
    SplitMix64,
    StateVector,
    TraceRecord,
    ValidationError,
    apply_circuit,
    apply_good_reflection,
    apply_image_reflection,
    build_estimated_embedding,
    build_lcu_encoding,
    build_row_encoding,
    dense_matrix_of,
    derive_seed,
    encode,
    householder_from_vector,
    iteration_count,
    mu_normalize,
    oblivious_aa,
    prepare_input,
    random_input,
    random_symmetric,
    run_ensemble,
    run_trace,
    standard_aa,
)

from oaasim.amplification import _record
from oaasim.circuit import CircuitU

from dense_reference import random_orthogonal
from spectral_reference import adjoint_records


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
    assert iteration_count(np.int64(16)) == 3
    for bad in (True, 16.0, 2.5):
        with pytest.raises(ValidationError, match="must be an integer"):
            iteration_count(bad)


@pytest.mark.parametrize("k, message", [
    (-1, "at least 0"), (2.5, "must be an integer"), (True, "must be an integer"),
])
def test_iteration_arguments_must_be_nonnegative_integers(k, message):
    circ = build_row_encoding(seeded_embedded(4, 93))
    state = prepare_input(circ, random_input(4, SplitMix64(1)))
    with pytest.raises(ValidationError, match=message):
        oblivious_aa(circ, state, k, "adjoint", np.ones(4))
    with pytest.raises(ValidationError, match=message):
        standard_aa(circ, np.eye(4), k, np.ones(4))
    assert len(oblivious_aa(circ, state, np.int64(2), "adjoint", np.ones(4)).records) == 3


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_adjoint_probability_closed_form_on_orthogonal_encoding(log_m, seed):
    # row encoding of a random orthogonal matrix (QR of a seeded Gaussian)
    m = 2**log_m
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    circ = build_row_encoding(q)
    vec = random_input(m, SplitMix64(seed))
    state = prepare_input(circ, vec)
    trace = oblivious_aa(circ, state, iteration_count(m), "adjoint", q @ vec)
    theta = math.asin(1.0 / math.sqrt(m))
    for rec in trace.records:
        expect = math.sin((2 * rec.iteration + 1) * theta) ** 2
        assert rec.probability == pytest.approx(expect, abs=1e-12)
        assert rec.fidelity == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 7), st.integers(0, 2**32 - 1), st.sampled_from(FIDELITY_MODES),
       st.booleans(), st.integers(0, 2))
def test_adjoint_records_match_the_spectral_oracle(log_order, seed, mode, full, extra):
    # matrix orders 1-128 through encode; the oracle is T_{2i+1}(U / sqrt(M))
    order = 2**log_order
    a = random_symmetric(order, SplitMix64(seed))
    vec = random_input(2 * order if full and mode == "embedded" else order,
                       SplitMix64(seed + 1))
    enc = encode(a, vec, mode)
    k = iteration_count(2 * order) + extra
    trace = oblivious_aa(enc.circuit, enc.state, k, "adjoint", enc.target,
                         project_system_zero=enc.project)
    expected = adjoint_records(a, vec, k, mode)
    for rec, (prob, fid) in zip(trace.records, expected, strict=True):
        assert rec.probability == pytest.approx(prob, abs=1e-12)
        assert rec.fidelity == pytest.approx(fid, abs=1e-12)


def test_adjoint_experiment_records_match_the_spectral_oracle():
    # every record of seed-0 adjoint fixed-matrix and trace runs; a peak
    # record may sit at any oracle iteration within 1e-12 of the top
    def matrix_and_input(cfg, dim, trial):
        length = dim if cfg.fidelity_mode == "embedded" else dim // 2
        return (random_symmetric(dim // 2, SplitMix64(derive_seed(0, dim, 0, 0))),
                random_input(length, SplitMix64(derive_seed(0, dim, trial, 1))))

    for mode in FIDELITY_MODES:
        fixed = ExperimentConfig(dims=(16, 32, 64, 128), trials=3, seed=0, variant="adjoint",
                                 fidelity_mode=mode, experiment="fixed-matrix")
        for rec in run_ensemble(fixed):
            expected = adjoint_records(*matrix_and_input(fixed, rec.dim, rec.trial),
                                       rec.k_used, mode)
            top = max(prob for prob, _ in expected)
            assert any(abs(rec.final_probability - prob) <= 1e-12
                       and abs(rec.final_fidelity - fid) <= 1e-12
                       for prob, fid in expected if prob >= top - 1e-12), rec
        trace = ExperimentConfig(dims=(16, 32, 64, 128), trials=1, seed=0, variant="adjoint",
                                 fidelity_mode=mode, experiment="trace")
        for res in run_trace(trace):
            expected = adjoint_records(*matrix_and_input(trace, res.dim, 0),
                                       res.k_marker + 2, mode)
            for rec, (prob, fid) in zip(res.trace.records, expected, strict=True):
                assert rec.probability == pytest.approx(prob, abs=1e-12)
                assert rec.fidelity == pytest.approx(fid, abs=1e-12)


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
    assert len(trace.records) == k + 1
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
    trace = IterationTrace(records=records)
    assert trace.peak == records[1]
    assert trace.final == records[3]


def test_input_must_sit_on_good_register():
    u = seeded_embedded(4, 93)
    circ = build_row_encoding(u)
    grid = np.zeros((4, 4))
    grid[0, 1] = 1.0  # second register at index 1: not a valid input
    with pytest.raises(ValidationError):
        oblivious_aa(circ, StateVector(grid), 1, "literal", np.ones(4))
    with pytest.raises(ValidationError):
        state = prepare_input(circ, random_input(4, SplitMix64(1)))
        oblivious_aa(circ, state, 1, "sideways", np.ones(4))


def test_input_must_be_finite():
    # NaN on or off the good register is bad input, not a numerical failure
    circ = build_row_encoding(seeded_embedded(4, 93))
    good = prepare_input(circ, random_input(4, SplitMix64(2))).grid
    for position in ((0, 0), (1, 1)):
        grid = good.copy()
        grid[position] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            oblivious_aa(circ, StateVector(grid), 1, "adjoint", np.ones(4))


@st.composite
def circuits(draw):
    """Row encodings of estimated embeddings of order 2-32, or LCUs of 2-4
    orthogonal blocks of order 2 or 4."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return build_row_encoding(seeded_embedded(2 ** draw(st.integers(1, 5)), seed))
    blocks = draw(st.integers(2, 4))
    n = draw(st.sampled_from([2, 4]))
    coeffs = SplitMix64(seed).uniform_signed_array(blocks)
    unitaries = [random_orthogonal(n, seed + i) for i in range(blocks)]
    return build_lcu_encoding(unitaries, coeffs / np.linalg.norm(coeffs))


def random_grid(circ, seed):
    grid = SplitMix64(seed).uniform_signed_array(circ.m_dim * circ.n_dim)
    return (grid / np.linalg.norm(grid)).reshape(circ.m_dim, circ.n_dim)


@given(circuits(), st.integers(0, 2**32 - 1))
def test_forward_inverse_is_identity(circ, seed):
    state = StateVector(random_grid(circ, seed))
    for first in (False, True):
        out = apply_circuit(circ, apply_circuit(circ, state, inverse=first),
                            inverse=not first)
        assert np.max(np.abs(out.grid - state.grid)) <= 1e-12


@given(circuits(), st.integers(0, 2**32 - 1))
def test_out_may_alias_the_input(circ, seed):
    grid = random_grid(circ, seed)
    wrong = StateVector(np.zeros((circ.m_dim + 1, circ.n_dim)))
    for apply in (apply_circuit, functools.partial(apply_circuit, inverse=True),
                  apply_good_reflection, apply_image_reflection):
        state = StateVector(grid.copy())
        fresh = apply(circ, state)
        assert np.array_equal(state.grid, grid)
        other = StateVector(np.full_like(grid, np.nan))
        assert apply(circ, state, out=other) is other
        assert np.array_equal(other.grid, fresh.grid)
        assert np.array_equal(state.grid, grid)
        assert apply(circ, state, out=state) is state
        assert np.array_equal(state.grid, fresh.grid)
        with pytest.raises(DimensionError):
            apply(circ, StateVector(grid.copy()), out=wrong)


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_row_image_reflection_matches_the_base_route(log_m, seed):
    # the Householder-and-diffusion form against inverse, R, forward
    circ = build_row_encoding(seeded_embedded(2**log_m, seed))
    grid = random_grid(circ, seed)
    got, want = np.empty_like(grid), np.empty_like(grid)
    circ._image_reflection(grid, got, np.empty_like(grid))
    CircuitU._image_reflection(circ, grid, want, np.empty_like(grid))
    assert np.max(np.abs(got - want)) <= 1e-13


def test_runs_leave_their_inputs_alone():
    enc = encode(random_symmetric(8, SplitMix64(31)), random_input(8, SplitMix64(32)))
    lcu = build_lcu_encoding([random_orthogonal(4, 33 + i) for i in range(3)],
                             np.array([0.6, 0.0, 0.8]))
    lcu_state = prepare_input(lcu, random_input(4, SplitMix64(36)))
    for circ, state, target in ((enc.circuit, enc.state, enc.target),
                                (lcu, lcu_state, np.ones(4))):
        grid = state.grid.copy()
        for variant in VARIANTS:
            _, final = oblivious_aa(circ, state, 3, variant, target,
                                    return_final_state=True)
            assert np.array_equal(state.grid, grid)
            assert not np.shares_memory(final.grid, state.grid)
            assert not np.shares_memory(final.grid, target)
        prep = householder_from_vector(random_input(target.size, SplitMix64(37)))
        prep_copy = prep.copy()
        _, final = standard_aa(circ, prep, 3, target, return_final_state=True)
        assert np.array_equal(prep, prep_copy)
        assert not np.shares_memory(final.grid, prep)
        assert not np.shares_memory(final.grid, target)


# page faults of a second adjoint run at embedded dimension 256, k = 12:
# one run that allocated its grids on every step took about 5,400
PAGE_FAULT_SCRIPT = """
import resource
from oaasim import SplitMix64, encode, oblivious_aa, random_input, random_symmetric

enc = encode(random_symmetric(128, SplitMix64(5)), random_input(128, SplitMix64(6)))
oblivious_aa(enc.circuit, enc.state, 12, "adjoint", enc.target)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
oblivious_aa(enc.circuit, enc.state, 12, "adjoint", enc.target)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_amplification_loop_reuses_its_grids(run_child):
    assert int(run_child(PAGE_FAULT_SCRIPT, 1)) < 1000


@given(circuits(), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_norm_conserved_over_iterations(circ, k, seed):
    data_dim = len(good_indices(circ))
    state = prepare_input(circ, random_input(data_dim, SplitMix64(seed)))
    for variant in VARIANTS:
        trace, final = oblivious_aa(circ, state, k, variant, np.ones(data_dim),
                                    return_final_state=True)
        assert len(trace.records) == k + 1
        assert abs(final.norm() - 1.0) <= 1e-12


@given(circuits(), st.integers(0, 2**32 - 1))
def test_good_view_row_zero_is_the_good_amplitudes(circ, seed):
    state = StateVector(random_grid(circ, seed))
    good = circ.good_first(state.grid)[0]
    assert np.array_equal(good, state.amplitudes[good_indices(circ)])


def test_emptied_good_states_record_zero():
    # the literal iterate on an order-2 row encoding empties the good
    # states at k = 1; that iteration is recorded, never the peak
    enc = encode(np.array([[0.5]]), np.array([1.0]))
    trace = oblivious_aa(enc.circuit, enc.state, 2, "literal", enc.target)
    assert trace.records[1] == TraceRecord(iteration=1, probability=0.0, fidelity=0.0)
    assert trace.records[0].probability > 0.0
    assert trace.peak.probability > 0.0
    # good mass present, none on the system's top half: projected record 0
    circ = build_row_encoding(np.eye(4))
    grid = np.zeros((4, 4))
    grid[3, 0] = 1.0
    rec = _record(circ, StateVector(grid), np.ones(2), True, 5)
    assert rec == TraceRecord(iteration=5, probability=0.0, fidelity=0.0)


def test_nan_good_mass_still_raises():
    circ = build_row_encoding(np.eye(4))
    state = StateVector(np.full((4, 4), np.nan))
    for project in (False, True):
        with pytest.raises(NoGoodAmplitudeError):
            _record(circ, state, np.ones(4), project, 0)


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
    assert len(trace.records) == 4


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
