"""Symmetric eigensolver, polar decomposition, Householder completion, and
matrix file format, each checked against an independent route."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oaasim.linalg
from oaasim import (
    ConvergenceError,
    DimensionError,
    PolarDegenerateError,
    SplitMix64,
    SymmetryError,
    UnitNormError,
    ValidationError,
    build_estimated_embedding,
    householder_from_vector,
    mu_normalize,
    polar_symmetric,
    random_symmetric,
    read_matrix,
    spectral_norm_symmetric,
    sym_eigen,
    write_matrix,
)
from oaasim.cli import main
from oaasim.linalg import (
    _abs_eigenvalues,
    _check_count,
    _read_vector,
    _rotation_rounds,
    as_square_array,
    check_symmetric,
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
        a, b, d = (2.0 * rng.uniform() - 1.0 for _ in range(3))
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


def test_symmetry_tolerance_is_1e_12_relative():
    # one side of the documented bound each, with a 10-100x margin; 3e-12
    # also refuses a bound raised to 1e-11, which 1e-11 itself may still meet
    for asymmetry in (3e-12, 1e-11, 1e-10):
        with pytest.raises(SymmetryError):
            mu_normalize(np.array([[1.0, 1.0 + asymmetry], [1.0, 1.0]]))
    for asymmetry in (1e-13, 1e-14):
        mu_normalize(np.array([[1.0, 1.0 + asymmetry], [1.0, 1.0]]))


def test_eigen_near_overflow_is_the_scaled_spectrum():
    # entries near 1e200 overflowed the Frobenius norm: the stop test passed
    # before any rotation and the diagonal [0, 5e199] came back as values
    hand = np.array([[0.0, 1e200], [1e200, 5e199]])
    expect = np.linalg.eigvalsh(hand)
    assert np.allclose(sym_eigen(hand).values, expect, rtol=1e-14, atol=0.0)
    a = random_symmetric(8, SplitMix64(17))
    pair = sym_eigen(a)
    for power in (660, -660):  # about 1e199 and 1e-199: exact, so bitwise
        scaled = sym_eigen(np.ldexp(a, power))
        assert np.array_equal(scaled.values, np.ldexp(pair.values, power))
        assert np.array_equal(scaled.vectors, pair.vectors)


def test_symmetry_is_judged_against_the_matrix_scale():
    # 1e-12 * max(1, max|a|) let the tiny asymmetric matrix pass, and
    # a - a.T overflowed on the huge one
    with pytest.raises(SymmetryError):
        check_symmetric(np.array([[1e-200, 5e-200], [-3e-200, 2e-200]]))
    with pytest.raises(SymmetryError):
        check_symmetric(np.array([[1e308, -1e308], [1e308, 1e308]]))
    tiny = np.ldexp(random_symmetric(4, SplitMix64(18)), -700)
    assert np.array_equal(check_symmetric(tiny), tiny)


def test_eigen_rejects_non_finite():
    nan = float("nan")
    with pytest.raises(ValidationError):
        sym_eigen(np.array([[1.0, nan], [nan, 0.5]]))
    with pytest.raises(ValidationError):
        sym_eigen(np.array([[float("inf"), 0.0], [0.0, 1.0]]))


def test_eigen_refuses_an_overflowing_eigenvalue():
    # the eigenvalue 4e308 of this finite matrix overflowed with a RuntimeWarning
    with pytest.raises(ValidationError, match="eigenvalue of the matrix overflows"):
        sym_eigen(np.full((4, 4), 1e308))


def test_abs_eigenvalue_route_matches_both_eigen_routes():
    # one-sided Jacobi on the rows: |lambda| against LAPACK and sym_eigen
    cases = [random_symmetric(n, SplitMix64(60 + n)) for n in (1, 2, 3, 16, 33, 128)]
    base = random_symmetric(8, SplitMix64(17))
    embedded = []  # spectra of +-sigma pairs, as closeness meets them
    for order, seed in ((4, 70), (16, 71), (64, 72)):
        normalized, mu = mu_normalize(random_symmetric(order, SplitMix64(seed)))
        embedded.append(build_estimated_embedding(normalized, mu).u)
    # a unit entry beside a tiny block: at 1e-100 a product of squared row
    # norms underflows, at 1e-160 the row products are subnormal rounding
    for tiny in (1e-100, 1e-160):
        block = np.zeros((6, 6))
        block[0, 0], block[1:, 1:] = 1.0, tiny * random_symmetric(5, SplitMix64(73))
        cases.append(block)
    cases += [np.zeros((5, 5)), np.diag([3.0, -1.0, 0.0, 2.0, -1.0]),
              householder_from_vector(np.full(9, 1.0 / 3.0)),  # eigenvalues -1, +1 x 8
              np.ones((7, 7)), *embedded, base, np.ldexp(base, 660), np.ldexp(base, -660)]
    for s in cases:
        got = _abs_eigenvalues(s)
        tol = 1e-13 * float(np.abs(s).sum(axis=1).max())  # bounds max|lambda|
        assert np.all(np.diff(got) >= 0.0)
        assert np.allclose(got, np.sort(np.abs(np.linalg.eigvalsh(s))), rtol=0.0, atol=tol)
        assert np.allclose(got, np.sort(np.abs(sym_eigen(s).values)), rtol=0.0, atol=tol)
    base_values = _abs_eigenvalues(base)
    for power in (660, -660):  # about 1e199 and 1e-199: exact, so bitwise
        assert np.array_equal(_abs_eigenvalues(np.ldexp(base, power)),
                              np.ldexp(base_values, power))


@pytest.mark.parametrize("n", [*range(1, 10), 16, 33, 128])
def test_rotation_schedule_pairs_every_row_once(n):
    # a round rotates its pairs as one batch, which is exact only when no
    # row appears twice in it; a sweep must meet every pair once
    schedule = _rotation_rounds(n)
    h = n // 2
    assert schedule.shape == (n - 1 if n % 2 == 0 else n, h, 2)
    assert not schedule.flags.writeable
    seen = []
    for pq in schedule:
        assert np.all(pq[:, 0] < pq[:, 1])
        assert np.all((0 <= pq) & (pq < n))
        assert len(np.unique(pq)) == 2 * h
        seen += [tuple(pair) for pair in pq.tolist()]
    assert len(seen) == len(set(seen)) == n * (n - 1) // 2
    assert _rotation_rounds(n) is schedule


def test_abs_eigenvalues_refuses_what_does_not_converge(monkeypatch, tmp_path, capsys):
    s = random_symmetric(16, SplitMix64(74))
    monkeypatch.setattr(oaasim.linalg, "JACOBI_MAX_SWEEPS", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="within 1 sweeps"):
            _abs_eigenvalues(s)
    path = tmp_path / "s.txt"
    write_matrix(path, s)
    assert main(["embed", "--matrix", str(path), "--out", str(tmp_path / "u.txt")]) == 2
    assert "numerical error: Jacobi sweeps did not converge" in capsys.readouterr().err


def test_sym_eigen_refuses_what_lapack_does_not_converge(monkeypatch, tmp_path, capsys):
    def unconverged(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    s = random_symmetric(16, SplitMix64(74))
    monkeypatch.setattr(oaasim.linalg.np.linalg, "eigh", unconverged)
    with pytest.raises(ConvergenceError, match="LAPACK eigh did not converge"):
        sym_eigen(s)
    path = tmp_path / "s.txt"
    write_matrix(path, s)
    assert main(["matfunc", "--fn", "exp", "--matrix", str(path), "--trunc", "2"]) == 2
    assert "numerical error: LAPACK eigh did not converge" in capsys.readouterr().err


def test_sym_eigen_reads_both_triangles():
    # LAPACK reads one triangle; an asymmetry check_symmetric accepts must
    # not make the result depend on which one
    b = random_symmetric(16, SplitMix64(75))
    b[3, 11] += 5e-13
    check_symmetric(b)
    pair, pair_t = sym_eigen(b), sym_eigen(b.T)
    assert np.array_equal(pair.values, pair_t.values)
    assert np.array_equal(pair.vectors, pair_t.vectors)


@pytest.mark.parametrize("bad, error", [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), SymmetryError),
    (np.array([[1.0, np.nan], [np.nan, 0.5]]), ValidationError),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), ValidationError),
    (np.full((4, 4), 1e308), ValidationError),
])
def test_eigenvalue_route_refuses_what_the_full_route_refuses(bad, error):
    raised = []
    for route in (sym_eigen, _abs_eigenvalues):
        with pytest.raises(error) as info:
            route(bad)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


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


def near_e0(order, distance, seed):
    """A unit vector at angle `distance` from e0, in a seeded direction."""
    tail = SplitMix64(seed).uniform_signed_array(order - 1)
    tail *= math.sin(distance) / np.linalg.norm(tail)
    return np.concatenate([[math.cos(distance)], tail])


def test_householder_exchanges_vectors_near_first_basis_vector():
    # the reflector's vector ||u|| e0 - u has its first entry formed without
    # cancellation, so rows of U near e0 are realized to roundoff
    e0 = np.eye(16)[0]
    for distance in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11):
        for seed in range(20):
            u = near_e0(16, distance, seed)
            h = householder_from_vector(u)
            assert np.max(np.abs(h @ e0 - u)) <= 1e-15, (distance, seed)
            assert np.max(np.abs(h @ u - e0)) <= 1e-15, (distance, seed)
    # within 1e-12 of e0 the reflector is the identity
    for seed in range(5):
        assert np.array_equal(householder_from_vector(near_e0(16, 1e-14, seed)), np.eye(16))


def test_empty_operands_rejected():
    with pytest.raises(DimensionError, match="at least one row"):
        as_square_array(np.zeros((0, 0)))
    with pytest.raises(DimensionError, match="at least one entry"):
        householder_from_vector([])


@pytest.mark.parametrize("value", [5, np.int64(5), np.uint8(5), np.int32(-5)])
def test_check_count_accepts_integers(value):
    got = _check_count(value, "n", -5)
    assert type(got) is int and got == int(value)


@pytest.mark.parametrize("value", [2.5, 5.0, np.float64(5.0), "5", True, np.True_, None])
def test_check_count_refuses_non_integers(value):
    with pytest.raises(ValidationError, match="n must be an integer"):
        _check_count(value, "n", 0)


def test_check_count_minimum():
    assert _check_count(0, "n", 0) == 0
    with pytest.raises(ValidationError, match="n must be at least 1, got 0"):
        _check_count(0, "n", 1)
    with pytest.raises(ValidationError, match="at least 0"):
        _check_count(np.int64(-1), "n", 0)


def test_householder_rejects_nan():
    with pytest.raises(UnitNormError, match="not 1 within"):
        householder_from_vector(np.array([np.nan, 0.0]))
    # its squares overflowed with a RuntimeWarning before the refusal
    with pytest.raises(UnitNormError, match="norm inf is not 1"):
        householder_from_vector(np.full(2, 1e200))


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
    assert np.array_equal(_read_vector(vpath), vec)
    # a one-row matrix also reads back as a vector
    row = tmp_path / "row.txt"
    row.write_text("1 3\n0.5 -0.25 0.125\n")
    assert np.array_equal(_read_vector(row), np.array([0.5, -0.25, 0.125]))
    # a matrix with more than one row and column is not a vector
    with pytest.raises(DimensionError, match="expected a row or column vector"):
        _read_vector(path)


def test_write_matrix_refuses_what_read_matrix_refuses(tmp_path):
    path = tmp_path / "m.txt"
    for bad in (np.array([[1.0, np.inf]]), np.array([np.nan, 0.0]),
                np.array([[1.0], [-np.inf]])):
        with pytest.raises(ValidationError, match="non-finite"):
            write_matrix(path, bad)
    for empty in (np.zeros((0, 2)), np.zeros((2, 0)), np.zeros(0)):
        with pytest.raises(DimensionError, match="nonempty"):
            write_matrix(path, empty)
    with pytest.raises(DimensionError):
        write_matrix(path, np.zeros((2, 2, 2)))
    assert not path.exists()


def test_write_matrix_text_is_exact(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix(path, np.array([[-0.0, 5e-324], [1.7976931348623157e308, 1.0]]))
    assert path.read_bytes() == (b"2 2\n"
                                 b"-0.0000000000000000e+00 4.9406564584124654e-324\n"
                                 b"1.7976931348623157e+308 1.0000000000000000e+00\n")
    # a vector is one column
    write_matrix(path, np.array([0.5, -3.0]))
    assert path.read_bytes() == b"2 1\n5.0000000000000000e-01\n-3.0000000000000000e+00\n"
    # a name that numpy reads as a compression suffix still gets plain text
    gz = tmp_path / "m.txt.gz"
    write_matrix(gz, np.array([0.5, -3.0]))
    assert gz.read_bytes() == path.read_bytes()


def test_read_matrix_takes_crlf_and_blank_body_lines_like_lf(tmp_path):
    lf = tmp_path / "lf.txt"
    lf.write_bytes(b"2 2\n1.5 -2\n-2 4e-300\n")
    expect = read_matrix(lf)
    for i, text in enumerate((b"2 2\r\n1.5 -2\r\n-2 4e-300\r\n", b"2 2\n1.5 -2\n\n-2 4e-300\n",
                              b"2 2\r\n\r\n1.5 -2\r\n\r\n-2 4e-300\r\n")):
        path = tmp_path / f"m{i}.txt"
        path.write_bytes(text)
        assert np.array_equal(read_matrix(path), expect), text


def test_read_matrix_traced_peak_is_below_five_file_sizes(tmp_path):
    # order 128: the benchmark's amplify matrix
    path = tmp_path / "m.txt"
    write_matrix(path, random_symmetric(128, SplitMix64(128)))
    read_matrix(path)  # numpy's first parse builds caches the peak should not count
    tracemalloc.start()
    try:
        read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * path.stat().st_size


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
    for i, (text, message) in enumerate((
        ("2 x\n1.0 2.0\n", "malformed header"),
        ("0 2\n", "dimensions must be at least 1"),
        ("2 -1\n1.0\n", "dimensions must be at least 1"),
        ("2 2\n1.0 2.0 3.0\n", "expected 4 entries, found 3"),
    )):
        path = tmp_path / f"bad{i}.txt"
        path.write_text(text)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            read_matrix(path)
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
        _read_vector(vpath)
