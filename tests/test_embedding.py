"""Block embeddings of symmetric matrices and the closeness measures."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oaasim.embedding
import oaasim.linalg
from oaasim import (
    PolarDegenerateError,
    RowNormError,
    SpectralRadiusError,
    SplitMix64,
    SymmetryError,
    ZeroMatrixError,
    build_estimated_embedding,
    build_exact_embedding,
    c2_from_eigenvalues,
    closeness,
    householder_from_vector,
    mu_normalize,
    polar_symmetric,
    random_symmetric,
    spectral_norm_symmetric,
)


def seeded_estimated_embedding(order, seed):
    a = random_symmetric(order, SplitMix64(seed))
    normalized, mu = mu_normalize(a)
    return build_estimated_embedding(normalized, mu)


def polar_route(u):
    """Closeness through the polar factors: (c2, cF, phi, ef) from the
    distance U - U~ in the 2-norm and Frobenius norm and the trace of H~."""
    u_tilde, h_tilde = polar_symmetric(u)
    diff = u - u_tilde
    c2 = spectral_norm_symmetric(diff) ** 2 / spectral_norm_symmetric(u) ** 2
    cf = np.linalg.norm(diff) ** 2 / np.linalg.norm(u) ** 2
    return c2, cf, 2.0 * float(np.trace(h_tilde)), (1.0 - c2) ** 2


def test_mu_normalize_hand_case():
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    normalized, mu = mu_normalize(a)
    assert mu == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert np.allclose(normalized, a / math.sqrt(2.0), atol=1e-15)
    with pytest.raises(ZeroMatrixError):
        mu_normalize(np.zeros((2, 2)))


def test_mu_normalize_is_exact_under_power_of_two_scaling():
    # the sums of squares run on a / 2^e, so scaling a by 2^s scales mu by
    # 2^s and leaves a / mu bit for bit, up to the ends of the float range
    a = random_symmetric(6, SplitMix64(41))
    normalized, mu = mu_normalize(a)
    for s in (-1000, -600, -1, 1, 600, 1000):
        scaled_normalized, scaled_mu = mu_normalize(np.ldexp(a, s))
        assert scaled_mu == math.ldexp(mu, s)
        assert np.array_equal(scaled_normalized, normalized)


def test_mu_normalize_entries_near_overflow():
    # squaring 1e308 overflowed: mu read inf and a / mu the zero matrix
    normalized, mu = mu_normalize(np.full((2, 2), 1e308))
    assert mu == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
    assert np.allclose(normalized, math.sqrt(0.5), rtol=1e-15)
    # a row norm beyond the float range is refused, not returned as inf
    with pytest.raises(RowNormError, match="overflows"):
        mu_normalize(np.full((4, 4), 1.7e308))


def test_mu_normalize_tiny_nonzero_matrix():
    # squaring 1e-200 underflowed to zero: a valid matrix was refused as zero
    normalized, mu = mu_normalize(np.diag([1e-200, 3e-200]))
    assert mu == 3e-200
    assert np.allclose(normalized, np.diag([1.0 / 3.0, 1.0]), rtol=1e-15, atol=0.0)
    with pytest.raises(ZeroMatrixError):
        mu_normalize(np.zeros((2, 2)))


def test_estimated_embedding_hand_case():
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    normalized, mu = mu_normalize(a)
    emb = build_estimated_embedding(normalized, mu)
    # first row of the scaled matrix is unit so its diagonal entry is the
    # square root of a rounding residual, second row has norm 1/sqrt(2)
    assert emb.d_diag[0] == pytest.approx(0.0, abs=2e-8)
    assert emb.d_diag[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert emb.order == 4
    assert emb.kind == "estimated"
    u = emb.u
    assert np.allclose(u, u.T, atol=1e-15)
    # block layout: top-left is the scaled matrix, bottom-right its negative
    assert np.allclose(u[:2, :2], normalized, atol=1e-15)
    assert np.allclose(u[2:, 2:], -normalized, atol=1e-15)
    assert np.allclose(u[:2, 2:], np.diag(emb.d_diag), atol=1e-15)


def test_embedding_rows_are_unit():
    for seed, order in ((7, 3), (8, 8), (9, 16)):
        emb = seeded_estimated_embedding(order, seed)
        norms = np.linalg.norm(emb.u, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)


def test_estimated_embedding_rejects_large_rows():
    too_big = np.array([[1.0, 0.5], [0.5, 0.2]])  # first row norm > 1
    with pytest.raises(RowNormError):
        build_estimated_embedding(too_big)
    with pytest.raises(SymmetryError):
        build_estimated_embedding(np.array([[0.1, 0.2], [0.3, 0.4]]))


def test_exact_embedding_orthogonal_within_radius():
    ones = np.ones((4, 4))
    normalized, mu = mu_normalize(ones)
    # row-scaled all-ones has spectral radius 2 > 1
    with pytest.raises(SpectralRadiusError):
        build_exact_embedding(normalized, mu)
    contraction = normalized / 2.0
    emb = build_exact_embedding(contraction, 2.0 * mu)
    u = emb.u
    assert emb.kind == "exact"
    assert np.max(np.abs(u.T @ u - np.eye(8))) < 1e-9


def test_closeness_hand_case_scaled_identity():
    report = closeness(2.0 * np.eye(2))
    assert report.c2 == pytest.approx(0.25, abs=1e-14)
    assert report.cF == pytest.approx(0.25, abs=1e-14)
    assert report.phi == pytest.approx(8.0, abs=1e-12)
    assert report.ef == pytest.approx(0.5625, abs=1e-14)
    assert not report.flagged
    # independent eigenvalue route gives the same c2
    assert c2_from_eigenvalues(np.array([2.0, 2.0])) == pytest.approx(
        0.25, abs=1e-15
    )


def test_closeness_of_orthogonal_is_zero():
    u = householder_from_vector(np.full(4, 0.5))
    report = closeness(u)
    assert report.c2 == pytest.approx(0.0, abs=1e-12)
    assert report.ef == pytest.approx(1.0, abs=1e-12)
    assert report.phi == pytest.approx(8.0, abs=1e-10)


def test_closeness_routes_agree_on_embeddings():
    for seed in range(30):
        emb = seeded_estimated_embedding(2 + (seed % 7), 100 + seed)
        report = closeness(emb.u)
        via_polar = polar_route(emb.u)[0]
        assert report.c2 == pytest.approx(via_polar, abs=1e-10)
        assert report.ef == pytest.approx((1.0 - report.c2) ** 2, abs=1e-12)
        assert 0.0 <= report.c2
        # trace of the symmetric polar factor is at most the order
        assert 2.0 * emb.order - report.phi >= -1e-8


def test_closeness_makes_one_eigendecomposition(monkeypatch):
    u = seeded_estimated_embedding(8, 5).u
    calls = []
    real = oaasim.linalg.sym_eigen

    def counting(s):
        calls.append(s)
        return real(s)

    # both bindings, so eigendecompositions reached through linalg count too
    monkeypatch.setattr(oaasim.embedding, "sym_eigen", counting, raising=False)
    monkeypatch.setattr(oaasim.linalg, "sym_eigen", counting)
    closeness(u)
    assert len(calls) == 1


def test_closeness_rejects_degenerate_spectrum():
    with pytest.raises(PolarDegenerateError):
        closeness(np.diag([1.0, 0.0]))
    with pytest.raises(PolarDegenerateError):
        closeness(np.zeros((2, 2)))


@st.composite
def nonsingular_symmetric(draw):
    n = draw(st.integers(2, 12))
    count = n * (n + 1) // 2
    m = np.zeros((n, n))
    m[np.triu_indices(n)] = draw(st.lists(st.floats(-1.0, 1.0), min_size=count, max_size=count))
    s = m + np.triu(m, 1).T
    assume(float(np.abs(np.linalg.eigvalsh(s)).min()) >= 1e-6)
    return s


@given(nonsingular_symmetric())
def test_closeness_matches_polar_route(s):
    report = closeness(s)
    c2, cf, phi, ef = polar_route(s)
    # c2 ~ 1 / max|lambda|^2 reaches 1e12 when every eigenvalue is small,
    # so the 1e-10 bound turns relative once a value exceeds 1
    assert report.c2 == pytest.approx(c2, rel=1e-10, abs=1e-10)
    assert report.cF == pytest.approx(cf, rel=1e-10, abs=1e-10)
    assert report.ef == pytest.approx(ef, rel=1e-10, abs=1e-10)
    assert report.phi == pytest.approx(phi, rel=1e-10)


def test_closeness_flag():
    report = closeness(np.diag([3.0, 0.5]))
    # farthest eigenvalue is 3: c2 = (2/3)^2 > 1 is impossible; use a
    # matrix with a small eigenvalue instead: 0.1 gives (0.9/3)^2 < 1
    assert not report.flagged
    report = closeness(np.diag([5.0, 1.0]))
    assert report.c2 == pytest.approx(16.0 / 25.0, abs=1e-12)
