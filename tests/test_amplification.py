"""Amplification iterates checked against closed forms and dense-matrix
reconstructions built independently in the tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oaasim import (
    FIDELITY_MODES,
    VARIANTS,
    DimensionError,
    ExperimentConfig,
    IterationTrace,
    NoGoodAmplitudeError,
    NumericalError,
    SplitMix64,
    StateVector,
    TraceRecord,
    UnitNormError,
    ValidationError,
    apply_circuit,
    build_estimated_embedding,
    build_lcu_encoding,
    build_row_encoding,
    collapse_good,
    dense_matrix_of,
    derive_seed,
    encode,
    fidelity,
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

from oaasim import amplification
from oaasim.circuit import GOOD_MASS_FLOOR, LcuCircuit, RowEncodingCircuit

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
    trace = oblivious_aa(enc.circuit, enc.state, k, "adjoint", enc.target)
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


ANTIPODAL = build_lcu_encoding([np.eye(2), -np.eye(2)], [2**-0.5, 2**-0.5])


@pytest.mark.parametrize("target, error", [
    ([np.nan, np.nan], ValidationError), (np.zeros(2), ValidationError),
    ("ab", ValidationError), (np.ones(7), DimensionError), (np.ones(3), DimensionError),
], ids=["nan", "zero", "text", "length-7", "length-3"])
def test_bad_target_is_refused_at_entry(target, error):
    # every record of this LCU sits below the good-mass floor, so fidelity
    # never saw the target and both variants returned three zero records
    state = prepare_input(ANTIPODAL, [1.0, 0.0])
    for variant in VARIANTS:
        with pytest.raises(error):
            oblivious_aa(ANTIPODAL, state, 2, variant, target)
    with pytest.raises(error):
        standard_aa(ANTIPODAL, np.eye(2), 2, target)


def test_norm_guard_fires_inside_a_run():
    # K e0 = e0 keeps the first apply's norm; the first middle step does not
    circ = LcuCircuit(np.stack([np.eye(2), np.eye(2)]), np.diag([1.0, 2.0]))
    state = StateVector(np.array([[0.6, 0.8], [0.0, 0.0]]))
    assert apply_circuit(circ, state).norm() == pytest.approx(1.0, abs=1e-15)
    for variant in VARIANTS:
        with pytest.raises(NumericalError, match="preserve the norm"):
            oblivious_aa(circ, state, 2, variant, np.ones(2))
    # a Householder row of norm 2 orthogonal to the input: the first apply
    # keeps the norm, the structured adjoint state and the literal step do not
    row = RowEncodingCircuit(np.array([[0.0, 0.0], [1.2, 1.6]]))
    state = prepare_input(row, [0.8, -0.6])
    assert apply_circuit(row, state).norm() == pytest.approx(1.0, abs=1e-15)
    for variant in VARIANTS:
        with pytest.raises(NumericalError, match="preserve the norm"):
            oblivious_aa(row, state, 2, variant, np.ones(2))


def test_overflow_inside_a_run_is_refused_without_a_warning():
    # the circuits of test_norm_guard_fires_inside_a_run scaled by 1e200:
    # the first apply stays finite, the first middle step overflows (the
    # structured adjoint state warned in a matrix product)
    lcu = LcuCircuit(np.stack([np.eye(2), np.eye(2)]), np.diag([1.0, 1e200]))
    row = RowEncodingCircuit(np.array([[0.0, 0.0], [1.2e200, 1.6e200]]))
    for circ, state in ((lcu, StateVector(np.array([[0.6, 0.8], [0.0, 0.0]]))),
                        (row, prepare_input(row, [0.8, -0.6]))):
        assert apply_circuit(circ, state).norm() == pytest.approx(1.0, abs=1e-15)
        for variant in VARIANTS:
            with pytest.raises(NumericalError, match="preserve the norm"):
                oblivious_aa(circ, state, 2, variant, np.ones(2))


def composed_reference(circ, state, k, target, iterate):
    """(records, grids) of iterations 0..k, each step composed from public
    applies and good-row negations as separate steps: the old per-iterate
    loop bodies. A projected target is read off the top half of the good
    amplitudes directly."""
    state = apply_circuit(circ, state)
    unit = state.grid / state.norm()
    records, grids = [], []
    for i in range(k + 1):
        if i > 0:
            circ.good_first(state.grid)[0] *= -1.0
            if iterate == "standard":  # 2 s s^T - I
                x = state.grid
                np.subtract((2.0 * float(unit.ravel() @ x.ravel())) * unit, x, out=x)
            else:  # -U S U^-1 (adjoint) or -U S U (literal)
                state = apply_circuit(circ, state, inverse=iterate == "adjoint")
                circ.good_first(state.grid)[0] *= -1.0
                state = apply_circuit(circ, state)
                np.negative(state.grid, out=state.grid)
        good = circ.good_first(state.grid)[0]
        if target.size < good.size:
            top = good[: target.size]
            prob = float(top @ top)
            records.append(TraceRecord(i, prob, fidelity(top, target))
                           if prob >= GOOD_MASS_FLOOR else TraceRecord(i, 0.0, 0.0))
        else:
            try:
                collapsed, prob = collapse_good(circ, state)
                records.append(TraceRecord(i, prob, fidelity(collapsed, target)))
            except NoGoodAmplitudeError:  # below the floor: recorded as zero
                records.append(TraceRecord(i, 0.0, 0.0))
        grids.append(state.grid.copy())
    return records, grids


def assert_records_close(got, want, tol):
    # the overlap sqrt(p) f = |<good, target>| / |target| is linear in the
    # state; the fidelity alone is conditioned by 1 / sqrt(p)
    assert [r.iteration for r in got] == [r.iteration for r in want]
    for a, b in zip(got, want, strict=True):
        assert abs(a.probability - b.probability) <= tol
        overlap = a.fidelity * math.sqrt(a.probability) - b.fidelity * math.sqrt(b.probability)
        assert abs(overlap) <= tol
        if min(a.probability, b.probability) >= 1e-6:
            assert abs(a.fidelity - b.fidelity) <= tol


@pytest.mark.parametrize("iterate", ["adjoint", "literal", "standard"])
@pytest.mark.parametrize("kind", ["row", "lcu"])
def test_iterates_equal_the_composed_public_steps(kind, iterate):
    # bit for bit, every record and every intermediate state; the row
    # encoding's adjoint (structured state) and literal (no register swap)
    # steps round differently, within the image reflection's 1e-13
    if kind == "row":
        u = seeded_embedded(8, 61)
        circ, vec = build_row_encoding(u), random_input(8, SplitMix64(62))
        target = u @ vec
    else:
        circ = build_lcu_encoding([random_orthogonal(4, 63 + i) for i in range(3)],
                                  np.array([0.6, 0.0, 0.8]))
        vec, target = random_input(4, SplitMix64(66)), random_input(4, SplitMix64(67))
    prep = householder_from_vector(vec)
    state = prepare_input(circ, prep[:, 0] if iterate == "standard" else vec)
    k = 5
    records, grids = composed_reference(circ, state, k, target, iterate)
    for i in range(k + 1):
        if iterate == "standard":
            trace, final = standard_aa(circ, prep, i, target, return_final_state=True)
        else:
            trace, final = oblivious_aa(circ, state, i, iterate, target,
                                        return_final_state=True)
        if kind == "row" and iterate != "standard":
            assert_records_close(trace.records, records[: i + 1], 1e-13)
            assert np.max(np.abs(final.grid - grids[i])) <= 1e-13
        else:
            assert trace.records == records[: i + 1]
            assert np.array_equal(final.grid, grids[i])


@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from(VARIANTS),
       st.integers(0, 20), st.booleans())
@example(8, 0, "adjoint", 20, False)
@example(8, 1, "literal", 20, True)
def test_row_iterates_match_the_composed_public_steps(log_m, seed, variant, k, projected):
    # the structured adjoint state and the swap-free literal step against
    # the grid route of the public applies
    order = 2 ** (log_m - 1)
    enc = encode(random_symmetric(order, SplitMix64(seed)),
                 random_input(order, SplitMix64(seed + 1)),
                 "projected" if projected else "embedded")
    records, grids = composed_reference(enc.circuit, enc.state, k, enc.target, variant)
    trace, final = oblivious_aa(enc.circuit, enc.state, k, variant, enc.target,
                                return_final_state=True)
    assert_records_close(trace.records, records, 1e-12)
    assert np.max(np.abs(final.grid - grids[k])) <= 1e-12


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


def test_input_must_be_a_unit_state_of_the_circuit_shape():
    # a scaled input recorded probabilities scaled by its squared norm
    # (2.92 at 3x), and a short grid met the good-register check first
    enc = encode(random_symmetric(2, SplitMix64(1)), random_input(4, SplitMix64(2)))
    unit = oblivious_aa(enc.circuit, enc.state, 2, "adjoint", enc.target)
    assert all(0.0 < r.probability < 1.0 for r in unit.records)
    for scale in (3.0, 0.5, 1.0 + 2e-12):
        scaled = StateVector(scale * enc.state.grid)
        for variant in VARIANTS:
            with pytest.raises(UnitNormError, match="input state norm"):
                oblivious_aa(enc.circuit, scaled, 2, variant, enc.target)
    inside = StateVector((1.0 + 5e-13) * enc.state.grid)  # within the tolerance
    near = oblivious_aa(enc.circuit, inside, 2, "adjoint", enc.target)
    for a, b in zip(near.records, unit.records, strict=True):
        assert a.probability == pytest.approx(b.probability, abs=1e-11)
    short = StateVector(enc.state.grid[:, :2])
    with pytest.raises(DimensionError, match="do not match circuit"):
        oblivious_aa(enc.circuit, short, 2, "adjoint", enc.target)


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
def test_apply_leaves_its_input_untouched(circ, seed):
    # every apply writes a new state, also one the norm guard refuses
    # (a 1e308 grid, whose norm overflows)
    for grid, refused in ((random_grid(circ, seed), False),
                          (np.full((circ.m_dim, circ.n_dim), 1e308), True)):
        for inverse in (False, True):
            state = StateVector(grid.copy())
            try:
                out = apply_circuit(circ, state, inverse=inverse)
            except NumericalError:
                assert refused
            else:
                assert not refused
                assert not np.shares_memory(out.grid, state.grid)
            assert state.grid.tobytes() == grid.tobytes()


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


# page faults of a second run at embedded dimension 256, k = 12: one
# adjoint run that allocated its grids on every step took about 5,400
PAGE_FAULT_SCRIPT = """
import resource
from oaasim import (SplitMix64, encode, householder_from_vector, oblivious_aa,
                    random_input, random_symmetric, standard_aa)

enc = encode(random_symmetric(128, SplitMix64(5)), random_input(128, SplitMix64(6)))
prep = householder_from_vector(enc.circuit.good_first(enc.state.grid)[0])
{run}
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
{run}
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
PAGE_FAULT_RUNS = {
    "adjoint": 'oblivious_aa(enc.circuit, enc.state, 12, "adjoint", enc.target)',
    "literal": 'oblivious_aa(enc.circuit, enc.state, 12, "literal", enc.target)',
    "standard": "standard_aa(enc.circuit, prep, 12, enc.target)",
}


@pytest.mark.parametrize("iterate", PAGE_FAULT_RUNS)
def test_amplification_loop_reuses_its_grids(run_child, iterate):
    assert int(run_child(PAGE_FAULT_SCRIPT.format(run=PAGE_FAULT_RUNS[iterate]), 1)) < 1000


# two Python threads (never more) share one circuit, 15 runs each; a circuit
# that kept a work grid of its own mixed the threads' iterations in it
SHARED_CIRCUIT_SCRIPT = """
import threading
from oaasim import NumericalError, SplitMix64, encode, oblivious_aa, random_input, random_symmetric

enc = encode(random_symmetric(128, SplitMix64(5)), random_input(128, SplitMix64(6)))
want = oblivious_aa(enc.circuit, enc.state, 12, "literal", enc.target).records
outcomes = []

def runs():
    for _ in range(15):
        try:
            got = oblivious_aa(enc.circuit, enc.state, 12, "literal", enc.target).records
        except NumericalError:
            outcomes.append("refused")
        else:
            outcomes.append("equal" if got == want else "differ")

threads = [threading.Thread(target=runs) for _ in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(*(outcomes.count(o) for o in ("equal", "differ", "refused")))
"""


def test_one_circuit_serves_two_threads(run_child):
    assert run_child(SHARED_CIRCUIT_SCRIPT, 1).split() == ["30", "0", "0"]


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
    rec = amplification._record_good(circ.good_first(grid)[0],
                                     amplification._scaled_target(np.ones(2)), 5)
    assert rec == TraceRecord(iteration=5, probability=0.0, fidelity=0.0)


def test_emptied_records_agree_across_routes():
    # the literal iterate of an order-1 matrix empties the good states at
    # some iterations, where the swap-free step and the composed public
    # steps leave different rounding residue, p up to about 2e-30; below
    # the floor both routes record it as zero, and no record is that small
    for seed in range(50):
        enc = encode(random_symmetric(1, SplitMix64(seed)),
                     random_input(1, SplitMix64(seed + 1)))
        records, _ = composed_reference(enc.circuit, enc.state, 20, enc.target, "literal")
        trace = oblivious_aa(enc.circuit, enc.state, 20, "literal", enc.target)
        assert ([r.probability == 0.0 for r in trace.records]
                == [r.probability == 0.0 for r in records]), seed
        assert not any(0.0 < r.probability < 1e-20 for r in trace.records + records), seed


def test_the_loop_checks_each_iteration_once(monkeypatch):
    # every route's iterations pass the one norm check of the loop: k calls
    # per run, the apply's own check aside
    calls = []
    check = amplification._check_norm
    monkeypatch.setattr(amplification, "_check_norm",
                        lambda before, after: calls.append(after) or check(before, after))
    enc = encode(random_symmetric(4, SplitMix64(61)), random_input(8, SplitMix64(62)))
    lcu = build_lcu_encoding([random_orthogonal(4, 64 + i) for i in range(2)], [0.6, 0.8])
    prep = householder_from_vector(enc.circuit.good_first(enc.state.grid)[0])
    for k in (0, 1, 3):
        for variant in VARIANTS:
            for circ, state in ((enc.circuit, enc.state), (lcu, prepare_input(lcu, np.eye(4)[0]))):
                calls.clear()
                oblivious_aa(circ, state, k, variant, np.ones(4), return_final_state=k == 1)
                assert len(calls) == k, (type(circ), variant, k)
        calls.clear()
        standard_aa(enc.circuit, prep, k, enc.target)
        assert len(calls) == k


def test_no_record_sees_a_non_finite_amplitude(monkeypatch):
    # the overflow circuits of test_overflow_inside_a_run_is_refused_without_a_warning:
    # the loop's norm check refuses the step before any record reads it
    record = amplification._record_good

    def finite_record(good, target, iteration):
        assert np.isfinite(good).all(), iteration
        return record(good, target, iteration)

    monkeypatch.setattr(amplification, "_record_good", finite_record)
    lcu = LcuCircuit(np.stack([np.eye(2), np.eye(2)]), np.diag([1.0, 1e200]))
    row = RowEncodingCircuit(np.array([[0.0, 0.0], [1.2e200, 1.6e200]]))
    for circ, state in ((lcu, StateVector(np.array([[0.6, 0.8], [0.0, 0.0]]))),
                        (row, prepare_input(row, [0.8, -0.6]))):
        for variant in VARIANTS:
            for keep in (False, True):
                with pytest.raises(NumericalError, match="preserve the norm"):
                    oblivious_aa(circ, state, 2, variant, np.ones(2), keep)


def test_standard_iterate_reads_a_projected_target():
    # the target alone selects projection, in the standard iterate too
    enc = encode(random_symmetric(4, SplitMix64(51)), random_input(4, SplitMix64(52)),
                 "projected")
    prep = householder_from_vector(enc.circuit.good_first(enc.state.grid)[0])
    for k in range(4):
        trace, final = standard_aa(enc.circuit, prep, k, enc.target, return_final_state=True)
        top = enc.circuit.good_first(final.grid)[0][:4]
        assert trace.final.probability == pytest.approx(float(top @ top), abs=1e-14)
        assert trace.final.fidelity == pytest.approx(fidelity(top, enc.target), abs=1e-14)


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
    for prep in (np.full((4, 4), np.nan), 1e200 * np.eye(4)):  # 1e200 overflowed P^T P
        with pytest.raises(ValidationError, match="not orthogonal"):
            standard_aa(circ, prep, 1, np.ones(4))
