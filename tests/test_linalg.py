"""Symmetric eigensolver, polar decomposition, Householder completion, and
matrix file format, each checked against an independent route."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oaasim import (
    ConvergenceError,
    NotPositiveSemidefiniteError,
    PolarDegenerateError,
    SplitMix64,
    SymmetryError,
    UnitNormError,
    ValidationError,
    householder_from_vector,
    polar_symmetric,
    random_symmetric,
    read_matrix,
    read_vector,
    spectral_norm_symmetric,
    sqrt_psd,
    sym_eigen,
    write_matrix,
)


def two_by_two_eigenvalues(a, b, d):
    """Independent closed form for [[a, b], [b, d]]."""
    mean = (a + d) / 2.0
    radius = math.hypot((a - d) / 2.0, b)
    return mean - radius, mean + radius


def test_eigen_hand_case_exchange_matrix():
    pair = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(pair.values, [-1.0, 1.0], atol=1e-14)
    root = 1.0 / math.sqrt(2.0)
    # sign convention: largest-magnitude component positive
    assert np.allclose(pair.vectors[:, 0], [root, -root], atol=1e-14)
    assert np.allclose(pair.vectors[:, 1], [root, root], atol=1e-14)


def test_eigen_diagonal_passthrough():
    pair = sym_eigen(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(pair.values, [-1.0, 2.0, 3.0], atol=0.0)
    assert np.allclose(np.abs(pair.vectors), np.eye(3)[:, [1, 2, 0]], atol=0.0)


def test_eigen_two_by_two_closed_form():
    rng = SplitMix64(11)
    for _ in range(50):
        a, b, d = (rng.uniform_signed() for _ in range(3))
        m = np.array([[a, b], [b, d]])
        lo, hi = two_by_two_eigenvalues(a, b, d)
        pair = sym_eigen(m)
        assert pair.values[0] == pytest.approx(lo, abs=1e-13)
        assert pair.values[1] == pytest.approx(hi, abs=1e-13)


def test_eigen_invariants_random():
    for seed, order in ((1, 5), (2, 16), (3, 33), (4, 64)):
        s = random_symmetric(order, SplitMix64(seed))
        pair = sym_eigen(s)
        v = pair.vectors
        # residual and orthogonality
        assert np.max(np.abs(s @ v - v * pair.values)) < 1e-10 * order
        assert np.max(np.abs(v.T @ v - np.eye(order))) < 1e-12 * order
        # ascending order
        assert np.all(np.diff(pair.values) >= 0.0)
        # trace and Frobenius norm are preserved by the spectrum
        assert np.sum(pair.values) == pytest.approx(np.trace(s), abs=1e-10)
        assert np.sum(pair.values**2) == pytest.approx(np.sum(s * s), abs=1e-9)
        # sign convention
        for j in range(order):
            col = v[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0


def test_eigen_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        sym_eigen(np.ones((2, 3)))


def test_eigen_rejects_non_finite():
    nan = float("nan")
    with pytest.raises(ValidationError):
        sym_eigen(np.array([[1.0, nan], [nan, 0.5]]))
    with pytest.raises(ValidationError):
        sym_eigen(np.array([[float("inf"), 0.0], [0.0, 1.0]]))


def test_sqrt_psd_squares_back():
    rng = SplitMix64(21)
    for order in (2, 7, 12):
        m = random_symmetric(order, rng)
        s = m @ m.T + order * np.eye(order)
        root = sqrt_psd(s)
        assert np.allclose(root @ root, s, atol=1e-10)
        assert np.allclose(root, root.T, atol=1e-12)
    with pytest.raises(NotPositiveSemidefiniteError):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_polar_hand_cases():
    near, symmetric_part = polar_symmetric(2.0 * np.eye(2))
    assert np.allclose(near, np.eye(2), atol=1e-14)
    assert np.allclose(symmetric_part, 2.0 * np.eye(2), atol=1e-14)

    near, symmetric_part = polar_symmetric(np.diag([2.0, -3.0]))
    assert np.allclose(near, np.diag([1.0, -1.0]), atol=1e-14)
    assert np.allclose(symmetric_part, np.diag([2.0, 3.0]), atol=1e-14)


def test_polar_of_orthogonal_is_identity_part():
    u = householder_from_vector(np.array([3.0, 4.0]) / 5.0)
    near, symmetric_part = polar_symmetric(u)
    assert np.allclose(near, u, atol=1e-12)
    assert np.allclose(symmetric_part, np.eye(2), atol=1e-12)


def test_polar_reconstructs_and_rejects_singular():
    s = random_symmetric(6, SplitMix64(31))
    s = s + 7.0 * np.eye(6)
    near, symmetric_part = polar_symmetric(s)
    assert np.allclose(near @ symmetric_part, s, atol=1e-10)
    assert np.allclose(near.T @ near, np.eye(6), atol=1e-12)
    with pytest.raises(PolarDegenerateError):
        polar_symmetric(np.diag([1.0, 0.0]))


def test_householder_exchanges_first_basis_vector():
    root = 1.0 / math.sqrt(2.0)
    h = householder_from_vector(np.array([root, root]))
    assert np.allclose(h, np.array([[root, root], [root, -root]]), atol=1e-15)

    rng = SplitMix64(41)
    for order in (2, 5, 16):
        u = rng.uniform_signed_array(order)
        u = u / np.linalg.norm(u)
        h = householder_from_vector(u)
        e0 = np.zeros(order)
        e0[0] = 1.0
        assert np.allclose(h @ u, e0, atol=1e-12)
        assert np.allclose(h @ e0, u, atol=1e-12)
        # symmetric orthogonal involution
        assert np.allclose(h, h.T, atol=0.0)
        assert np.allclose(h @ h, np.eye(order), atol=1e-12)

    assert np.allclose(householder_from_vector(np.array([1.0, 0.0])), np.eye(2))
    with pytest.raises(UnitNormError):
        householder_from_vector(np.array([1.0, 1.0]))


def test_householder_rejects_nan():
    with pytest.raises(UnitNormError, match="not 1 within"):
        householder_from_vector(np.array([np.nan, 0.0]))


def test_spectral_norm_matches_eigenvalue_route():
    s = random_symmetric(9, SplitMix64(51))
    expect = np.max(np.abs(np.linalg.eigvalsh(s)))
    assert spectral_norm_symmetric(s) == pytest.approx(expect, abs=1e-11)


def test_matrix_file_round_trip_exact(tmp_path):
    m = random_symmetric(5, SplitMix64(61)) * 1e3
    path = tmp_path / "m.txt"
    write_matrix(path, m)
    back = read_matrix(path)
    assert np.array_equal(m, back)

    vec = SplitMix64(62).uniform_signed_array(7)
    vpath = tmp_path / "v.txt"
    write_matrix(vpath, vec)
    assert np.array_equal(read_vector(vpath), vec)
    # a one-row matrix also reads back as a vector
    row = tmp_path / "row.txt"
    row.write_text("1 3\n0.5 -0.25 0.125\n")
    assert np.array_equal(read_vector(row), np.array([0.5, -0.25, 0.125]))


# signed zeros, subnormals (smallest and largest) and near-overflow values
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               -2.225073858507201e-308, 1.7e308, -1.7e308]


@st.composite
def edge_matrices(draw):
    """Matrices whose entries are EDGE_FLOATS plus up to 30 arbitrary finite
    floats, shuffled, in a random row count dividing the entry count."""
    drawn = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          max_size=30))
    entries = draw(st.permutations(EDGE_FLOATS + drawn))
    rows = draw(st.sampled_from(
        [r for r in range(1, len(entries) + 1) if len(entries) % r == 0]))
    return np.array(entries).reshape(rows, -1)


@given(edge_matrices())
def test_matrix_file_round_trip_bit_exact(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("io") / "m.txt"
    write_matrix(path, m)
    back = read_matrix(path)
    assert back.shape == m.shape
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))


def test_matrix_file_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1.0 2.0\n3.0\n")
    with pytest.raises(ValidationError):
        read_matrix(bad)
    worse = tmp_path / "worse.txt"
    worse.write_text("2 2\n1.0 2.0\n3.0 abc\n")
    with pytest.raises(ValidationError):
        read_matrix(worse)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValidationError):
        read_matrix(empty)
    header_only = tmp_path / "header.txt"
    header_only.write_text("2 2\n")
    with pytest.raises(ValidationError, match="expected 4 entries, found 0"):
        read_matrix(header_only)
    # a ragged body is refused even when its entry count matches
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("2 2\n1.0 2.0 3.0\n4.0\n")
    with pytest.raises(ValidationError, match=re.escape(str(ragged))):
        read_matrix(ragged)


def test_matrix_file_body_may_start_on_the_header_line(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2 1 2 2 1")
    assert np.array_equal(read_matrix(path), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_matrix_file_rejects_non_finite(tmp_path):
    for i, token in enumerate(("nan", "inf", "-inf", "NaN")):
        path = tmp_path / f"m{i}.txt"
        path.write_text(f"2 2\n1.0 2.0\n2.0 {token}\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: non-finite")):
            read_matrix(path)
    vpath = tmp_path / "v.txt"
    vpath.write_text("1 3\n0.5 inf 0.125\n")
    with pytest.raises(ValidationError, match=re.escape(str(vpath))):
        read_vector(vpath)
