"""Structured circuit applies checked against dense operators built
independently from Kronecker products and permutations."""

import math

import numpy as np
import pytest

from oaasim import (
    DimensionError,
    NoGoodAmplitudeError,
    NumericalError,
    RowNormError,
    SplitMix64,
    StateVector,
    UnitNormError,
    ValidationError,
    apply_circuit,
    apply_good_reflection,
    apply_image_reflection,
    build_estimated_embedding,
    build_lcu_encoding,
    build_row_encoding,
    collapse_good,
    dense_matrix_of,
    encode,
    mu_normalize,
    prepare_input,
    random_input,
    random_symmetric,
)
from oaasim.circuit import CircuitU, LcuCircuit, _fwht_axis0

from dense_reference import dense_lcu, dense_row_encoding, hadamard, random_orthogonal


def seeded_embedded(order, seed):
    a = random_symmetric(order // 2, SplitMix64(seed))
    normalized, mu = mu_normalize(a)
    return build_estimated_embedding(normalized, mu).u


def fwht(x):
    out = np.empty(x.shape)
    _fwht_axis0(x, out, np.empty(x.shape))
    return out


def test_walsh_hadamard_matches_matrix_and_inverts():
    # odd exponents split the order into unequal Kronecker factors
    for m in (2**p for p in range(10)):
        h = hadamard(m)
        assert np.max(np.abs(fwht(np.eye(m)) - h)) < 1e-14
        x = SplitMix64(m).uniform_signed_array(m * 3).reshape(m, 3)
        for grid in (x, np.ascontiguousarray(x.T).T):
            assert np.max(np.abs(fwht(fwht(grid)) - grid)) < 1e-13
        # written in place, the transform gives the same bits
        y = x.copy()
        _fwht_axis0(y, y, np.empty(y.shape))
        assert np.array_equal(y, fwht(x))


def test_row_encoding_dense_matches_independent_construction():
    for order, seed in ((2, 5), (4, 6), (8, 7), (16, 8)):
        u = seeded_embedded(order, seed)
        circ = build_row_encoding(u)
        got = dense_matrix_of(circ)
        want = dense_row_encoding(u)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(got.T @ got - np.eye(order * order))) < 1e-10


def test_row_encoding_identity_blocks():
    # rows at or within 1e-12 of e0 make identity blocks: all-zero
    # Householder vectors
    u = seeded_embedded(8, 9)
    u[[1, 4]] = np.eye(8)[0]
    u[6] = 0.0
    u[6, :2] = math.cos(1e-14), math.sin(1e-14)
    circ = build_row_encoding(u)
    norms = np.linalg.norm(circ._hh, axis=1)
    for i in range(8):
        if i in (1, 4, 6):
            assert np.array_equal(circ._hh[i], np.zeros(8))
        else:
            assert abs(norms[i] - 1.0) < 1e-15
    assert np.max(np.abs(dense_matrix_of(circ) - dense_row_encoding(u))) < 1e-12


def test_image_reflection_matches_dense():
    # W R W^T with R = I - 2 (projector onto the good states)
    row = build_row_encoding(seeded_embedded(8, 19))
    lcu = build_lcu_encoding([random_orthogonal(4, 80 + i) for i in range(3)],
                             np.array([0.6, 0.0, 0.8]))
    # rows equal to e0 give identity blocks, all-zero Householder rows
    with_e0 = seeded_embedded(8, 9)
    with_e0[[1, 4]] = np.eye(8)[0]
    identity_rows = [build_row_encoding(u) for u in
                     (np.array([[1.0]]), np.array([[-1.0]]),
                      np.array([[1.0, 0.0], [0.6, 0.8]]), with_e0)]
    assert [int((~circ._hh.any(axis=1)).sum()) for circ in identity_rows] == [1, 0, 1, 2]
    for circ in identity_rows:
        # the rank-structured row form against inverse, R, forward
        grid = SplitMix64(circ.m_dim).uniform_signed_array(circ.m_dim**2)
        grid = grid.reshape(circ.m_dim, circ.m_dim)
        got, want = np.empty_like(grid), np.empty_like(grid)
        circ._image_reflection(grid, got, np.empty_like(grid))
        CircuitU._image_reflection(circ, grid, want, np.empty_like(grid))
        assert np.max(np.abs(got - want)) <= 1e-13
    for circ in (row, lcu, *identity_rows):
        dense = dense_matrix_of(circ)
        total = circ.m_dim * circ.n_dim
        good = np.zeros((circ.m_dim, circ.n_dim))
        circ.good_first(good)[0] = 1.0
        want = np.eye(total) - 2.0 * dense @ np.diag(good.ravel()) @ dense.T
        got = np.empty((total, total))
        for j in range(total):
            basis = np.zeros(total)
            basis[j] = 1.0
            state = StateVector(basis.reshape(circ.m_dim, circ.n_dim))
            got[:, j] = apply_image_reflection(circ, state).amplitudes
        assert np.max(np.abs(got - want)) < 1e-12


def test_image_reflection_guards_the_norm():
    u = seeded_embedded(16, 13000)
    broken = build_row_encoding(u)
    broken._hh = broken._hh * 1.001
    state = prepare_input(broken, random_input(16, SplitMix64(13300)))
    with pytest.raises(NumericalError, match="preserve the norm"):
        apply_image_reflection(broken, state)


def test_row_encoding_good_block_carries_scaled_matrix():
    u = seeded_embedded(8, 17)
    circ = build_row_encoding(u)
    dense = dense_matrix_of(circ)
    idx = [a * circ.n_dim for a in range(circ.m_dim)]
    block = dense[np.ix_(idx, idx)]
    assert np.max(np.abs(block - u / math.sqrt(circ.m_dim))) < 1e-12


def test_lcu_dense_matches_independent_construction():
    for m, n, seed in ((2, 2, 1), (2, 4, 2), (4, 4, 3), (3, 4, 4)):
        unitaries = [random_orthogonal(n, 50 * seed + i) for i in range(m)]
        gen = SplitMix64(900 + seed)
        coeffs = gen.uniform_signed_array(m)
        coeffs = coeffs / np.linalg.norm(coeffs)
        circ = build_lcu_encoding(unitaries, coeffs)
        got = dense_matrix_of(circ)
        want = dense_lcu(unitaries, coeffs)
        total = circ.m_dim * circ.n_dim
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(got.T @ got - np.eye(total))) < 1e-10
        # top-left block is the scaled combination
        combo = sum(c * u for c, u in zip(coeffs, unitaries))
        block = got[:n, :n]
        assert np.max(np.abs(block - combo / math.sqrt(circ.m_dim))) < 1e-12


def test_apply_matches_dense_on_random_states():
    u = seeded_embedded(8, 23)
    row = build_row_encoding(u)
    unitaries = [random_orthogonal(4, 70 + i) for i in range(4)]
    coeffs = np.full(4, 0.5)
    lcu = build_lcu_encoding(unitaries, coeffs)
    for circ in (row, lcu):
        dense = dense_matrix_of(circ)
        total = circ.m_dim * circ.n_dim
        gen = SplitMix64(total)
        for _ in range(5):
            amps = gen.uniform_signed_array(total)
            amps = amps / np.linalg.norm(amps)
            state = StateVector(amps.reshape(circ.m_dim, circ.n_dim))
            out = apply_circuit(circ, state)
            assert np.max(np.abs(out.amplitudes - dense @ amps)) < 1e-12
            back = apply_circuit(circ, state, inverse=True)
            assert np.max(np.abs(back.amplitudes - dense.T @ amps)) < 1e-12
            round_trip = apply_circuit(circ, out, inverse=True)
            assert np.max(np.abs(round_trip.amplitudes - amps)) < 1e-12
            assert abs(out.norm() - 1.0) < 1e-12


def test_norm_preserved_across_many_applies():
    u = seeded_embedded(16, 29)
    circ = build_row_encoding(u)
    vec = random_input(16, SplitMix64(3))
    state = prepare_input(circ, vec)
    for _ in range(50):
        state = apply_circuit(circ, state)
        assert abs(state.norm() - 1.0) < 1e-12


def test_prepare_input_layouts():
    u = seeded_embedded(4, 31)
    row = build_row_encoding(u)  # good register is the second one
    vec = np.array([0.5, 0.5, 0.5, 0.5])
    state = prepare_input(row, vec)
    grid = state.grid
    assert np.array_equal(grid[:, 0], vec)
    assert np.count_nonzero(grid) == 4

    unitaries = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
    lcu = build_lcu_encoding(unitaries, np.array([1.0, 1.0]) / math.sqrt(2.0))
    vec2 = np.array([0.6, 0.8])
    state2 = prepare_input(lcu, vec2)
    grid2 = state2.grid
    assert np.array_equal(grid2[0, :], vec2)
    assert np.count_nonzero(grid2) == 2

    with pytest.raises(UnitNormError):
        prepare_input(row, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(DimensionError):
        prepare_input(row, np.array([1.0, 0.0]))


def test_good_reflection_negates_good_slice():
    u = seeded_embedded(4, 37)
    circ = build_row_encoding(u)
    gen = SplitMix64(8)
    amps = gen.uniform_signed_array(16)
    amps = amps / np.linalg.norm(amps)
    state = StateVector(amps.reshape(4, 4))
    flipped = apply_good_reflection(circ, state)
    grid = flipped.grid
    original = state.grid
    assert np.array_equal(grid[:, 0], -original[:, 0])
    assert np.array_equal(grid[:, 1:], original[:, 1:])


def test_collapse_good_probability_and_vector():
    u = seeded_embedded(4, 41)
    circ = build_row_encoding(u)
    grid = np.zeros((4, 4))
    grid[:, 0] = [0.3, 0.1, -0.2, 0.4]
    grid[1, 2] = math.sqrt(1.0 - 0.09 - 0.01 - 0.04 - 0.16)
    state = StateVector(grid)
    collapsed, prob = collapse_good(circ, state)
    assert prob == pytest.approx(0.30, abs=1e-15)
    expect = np.array([0.3, 0.1, -0.2, 0.4]) / math.sqrt(0.30)
    assert np.allclose(collapsed, expect, atol=1e-15)

    top, compound = collapse_good(circ, state, project_system_zero=True)
    mass = (0.09 + 0.01) / 0.30
    assert compound == pytest.approx(0.30 * mass, abs=1e-15)
    assert np.allclose(top, np.array([0.3, 0.1]) / math.sqrt(0.10), atol=1e-14)

    empty = np.zeros((4, 4))
    empty[1, 2] = 1.0
    with pytest.raises(NoGoodAmplitudeError):
        collapse_good(circ, StateVector(empty))


def test_collapse_rejects_nan_good_mass():
    # NaN compares false with the floor, so the guard must not pass it
    circ = build_row_encoding(np.eye(4))
    state = StateVector(np.full((4, 4), np.nan))
    for project in (False, True):
        with pytest.raises(NoGoodAmplitudeError, match="on the good states"):
            collapse_good(circ, state, project_system_zero=project)


def test_collapse_rejects_nan_projected_mass():
    # an infinite good amplitude passes the first guard and leaves inf/inf
    # = NaN in the collapsed vector, which the projection guard must catch
    circ = build_row_encoding(np.eye(4))
    grid = np.zeros((4, 4))
    grid[0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NoGoodAmplitudeError, match="after the projection"):
            collapse_good(circ, StateVector(grid), project_system_zero=True)


def test_builder_validation():
    with pytest.raises(ValidationError):
        build_row_encoding(np.eye(3))  # not a power of two
    bad_rows = np.eye(4)
    bad_rows[2, 2] = 0.5
    with pytest.raises(RowNormError):
        build_row_encoding(bad_rows)
    with pytest.raises(ValidationError):
        build_lcu_encoding([np.array([[1.0, 1.0], [0.0, 1.0]])], [1.0])
    with pytest.raises(UnitNormError):
        build_lcu_encoding([np.eye(2), np.eye(2)], [1.0, 1.0])
    with pytest.raises(DimensionError):
        build_lcu_encoding([np.eye(2), np.eye(4)], [0.6, 0.8])


def test_lcu_rejects_nan_coefficient():
    with pytest.raises(UnitNormError, match="coefficient norm"):
        build_lcu_encoding([np.eye(2), np.eye(2)], [np.nan, 1.0])


def test_apply_rejects_nan_result():
    # the circuit a NaN coefficient would have built: its apply must trip
    # the norm guard, not return an all-NaN state
    circ = LcuCircuit(np.stack([np.eye(2), np.eye(2)]), np.full((2, 2), np.nan))
    state = StateVector(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(NumericalError, match="preserve the norm"):
        apply_circuit(circ, state)


def test_encode_matches_inline_recipe():
    # the normalize -> embed -> row-encode -> input/target steps written out
    a = random_symmetric(4, SplitMix64(61))
    normalized, mu = mu_normalize(a)
    emb = build_estimated_embedding(normalized, mu)
    circ = build_row_encoding(emb.u)
    full = random_input(8, SplitMix64(62))
    half = random_input(4, SplitMix64(63))
    padded = np.zeros(8)
    padded[:4] = half
    cases = [
        ("embedded", full, full, emb.u @ full, False),
        ("embedded", half, padded, emb.u @ padded, False),
        ("projected", half, padded, normalized @ half, True),
    ]
    for mode, vec, state_vec, target, project in cases:
        enc = encode(a, vec, mode)
        assert enc.embedding.mu == mu
        assert np.array_equal(enc.embedding.u, emb.u)
        assert np.array_equal(enc.circuit._hh, circ._hh)
        expected = prepare_input(circ, state_vec).amplitudes
        assert np.array_equal(enc.state.amplitudes, expected)
        assert np.array_equal(enc.target, target)
        assert enc.project is project
    for mode, length in (("embedded", 5), ("embedded", 16),
                         ("projected", 8), ("projected", 2)):
        with pytest.raises(ValidationError):
            encode(a, random_input(length, SplitMix64(64)), mode)
    with pytest.raises(ValidationError):
        encode(a, full, "exact")
    with pytest.raises(ValidationError):
        encode(a, np.full(8, np.nan), "embedded")


def test_lcu_pads_to_power_of_two():
    unitaries = [random_orthogonal(2, 80 + i) for i in range(3)]
    coeffs = np.array([0.5, 0.5, 1.0 / math.sqrt(2.0)])
    circ = build_lcu_encoding(unitaries, coeffs)
    assert circ.m_dim == 4
    dense = dense_matrix_of(circ)
    combo = sum(c * u for c, u in zip(coeffs, unitaries))
    assert np.max(np.abs(dense[:2, :2] - combo / 2.0)) < 1e-12


def test_dense_oracle_is_capped():
    u = seeded_embedded(32, 43)
    circ = build_row_encoding(u)
    with pytest.raises(DimensionError):
        dense_matrix_of(circ)


def test_state_vector_validation():
    with pytest.raises(DimensionError):
        StateVector(np.zeros(8))
    u = seeded_embedded(4, 47)
    circ = build_row_encoding(u)
    with pytest.raises(DimensionError):
        apply_circuit(circ, StateVector(np.zeros((2, 2))))
