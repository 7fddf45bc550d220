"""Block embeddings of symmetric matrices into larger operators.

Two constructions share the layout U = [[A', D], [D, -A']]: the estimated
embedding fills D with the per-row defect sqrt(1 - row_norm^2), making every
row of U exactly unit norm (U is then almost orthogonal); the exact
embedding uses the matrix square root sqrt(I - A'^2) instead, making U
exactly orthogonal whenever the spectral norm of A' is at most 1.

Closeness of an almost-orthogonal U to its nearest orthogonal matrix is
read off the spectrum of U alone: c2 and cF are squared relative
distances in the 2-norm and Frobenius norm, phi is twice the trace of the
PSD polar cofactor, and ef = (1 - c2)^2 serves as an estimated lower bound
for the fidelity achievable after amplification. The polar factors of
linalg.polar_symmetric are the independent route the tests check against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PolarDegenerateError, RowNormError, SpectralRadiusError, ZeroMatrixError
from .linalg import (
    POLAR_EIGENVALUE_FLOOR,
    _pow2_scaled,
    check_symmetric,
    spectral_norm_symmetric,
    sqrt_psd,
    sym_eigen,
)

ROW_NORM_CLAMP = 1e-12
SPECTRAL_SLACK = 1e-10


@dataclass(frozen=True)
class Embedding:
    """The scale of a normalized matrix and the block operator built from it."""

    mu: float
    d_diag: np.ndarray
    u: np.ndarray
    kind: str  # "exact" or "estimated"

    @property
    def order(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class ClosenessReport:
    """Distance of a symmetric matrix to its nearest orthogonal matrix."""

    c2: float
    cF: float
    phi: float
    ef: float

    @property
    def flagged(self) -> bool:
        """True when c2 exceeds 1 and ef loses its lower-bound reading."""
        return self.c2 > 1.0


def mu_normalize(a) -> tuple[np.ndarray, float]:
    """Scale a symmetric matrix so its largest row 2-norm is exactly 1.

    Returns (a / mu, mu) with mu the square root of the maximum row sum of
    squares. By symmetry the column norms of the result are also at most 1.
    The sums run on a / 2^e (see linalg._pow2_scaled), so no square
    overflows or underflows; a mu beyond the float range is refused.
    """
    scaled, e = _pow2_scaled(check_symmetric(a))
    root = math.sqrt(float((scaled * scaled).sum(axis=1).max()))
    if root == 0.0:
        raise ZeroMatrixError("cannot normalize the zero matrix")
    try:
        mu = math.ldexp(root, e)
    except OverflowError:
        raise RowNormError("the largest row norm of the matrix overflows a float") from None
    return scaled / root, mu


def build_estimated_embedding(a_normalized, mu: float = 1.0) -> Embedding:
    """Embed a row-normalized symmetric matrix with a diagonal defect block.

    Every row of A' must have 2-norm at most 1 (tiny overshoots up to 1e-12
    are clamped); D_ii = sqrt(1 - row_i_norm^2) then gives U unit-norm rows.
    The optional mu records the scale divided out by mu_normalize.
    """
    ap = check_symmetric(a_normalized, "a_normalized")
    row2 = (ap * ap).sum(axis=1)
    if float(row2.max()) > 1.0 + ROW_NORM_CLAMP:
        raise RowNormError(
            f"row norm {math.sqrt(row2.max()):.15g} exceeds 1; normalize first"
        )
    d_diag = np.sqrt(np.clip(1.0 - row2, 0.0, None))
    u = _assemble(ap, np.diag(d_diag))
    return Embedding(mu=float(mu), d_diag=d_diag, u=u, kind="estimated")


def build_exact_embedding(a_normalized, mu: float = 1.0) -> Embedding:
    """Embed with the matrix square root block, giving an exactly orthogonal U.

    Requires spectral norm at most 1 (within a 1e-10 slack); larger values
    would make I - A'^2 indefinite, so they are refused rather than patched.
    Note that row normalization alone does not guarantee this bound.
    """
    ap = check_symmetric(a_normalized, "a_normalized")
    rho = spectral_norm_symmetric(ap)
    if rho > 1.0 + SPECTRAL_SLACK:
        raise SpectralRadiusError(
            f"spectral norm {rho:.15g} exceeds 1; exact extension undefined"
        )
    off = sqrt_psd(np.eye(ap.shape[0]) - ap @ ap)
    u = _assemble(ap, off)
    d_diag = np.diag(off).copy()
    return Embedding(mu=float(mu), d_diag=d_diag, u=u, kind="exact")


def _assemble(ap: np.ndarray, off: np.ndarray) -> np.ndarray:
    d = ap.shape[0]
    u = np.zeros((2 * d, 2 * d))
    u[:d, :d] = ap
    u[:d, d:] = off
    u[d:, :d] = off
    u[d:, d:] = -ap
    return u


def closeness(u) -> ClosenessReport:
    """Measure how far a symmetric matrix is from its nearest orthogonal one.

    Everything follows from the eigenvalues lambda of one sym_eigen call:
    c2 = c2_from_eigenvalues(lambda), cF = sum (|lambda|-1)^2 / sum lambda^2,
    phi = 2 sum |lambda| and ef = (1 - c2)^2. |lambda| below the polar sign
    floor raises PolarDegenerateError; c2 above 1 is reported as computed
    (see ClosenessReport.flagged).
    """
    lam = np.abs(sym_eigen(u).values)
    if float(lam.min()) < POLAR_EIGENVALUE_FLOOR:
        raise PolarDegenerateError("eigenvalue too close to zero for the polar sign")
    c2 = c2_from_eigenvalues(lam)
    cf = float(((lam - 1.0) ** 2).sum() / (lam * lam).sum())
    return ClosenessReport(c2=c2, cF=cf, phi=2.0 * float(lam.sum()), ef=(1.0 - c2) ** 2)


def c2_from_eigenvalues(values) -> float:
    """c2 from the eigenvalue magnitudes of a symmetric U, as closeness
    computes it: (max | |lambda| - 1 |)^2 / (max |lambda|)^2. The polar
    route (polar_symmetric plus spectral norms) is its test reference."""
    lam = np.abs(np.asarray(values, dtype=float))
    return float((np.abs(lam - 1.0).max() ** 2) / (lam.max() ** 2))
