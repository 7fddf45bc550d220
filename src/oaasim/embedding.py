"""Block embedding of a symmetric matrix into a larger operator.

The estimated embedding has the layout U = [[A', D], [D, -A']] with D
the diagonal per-row defect sqrt(1 - row_norm^2), which makes every row
of U exactly unit norm: U is almost orthogonal.

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

from .errors import (
    PolarDegenerateError,
    RowNormError,
    ValidationError,
    ZeroMatrixError,
)
from .linalg import (
    POLAR_EIGENVALUE_FLOOR,
    _abs_eigenvalues,
    _float_array,
    _pow2_scaled,
    check_symmetric,
)

ROW_NORM_CLAMP = 1e-12


@dataclass(frozen=True, eq=False)
class Embedding:
    """The scale of a normalized matrix and the block operator built from it.
    The scale mu must be a finite positive real (ValidationError otherwise)."""

    mu: float
    u: np.ndarray

    def __post_init__(self):
        mu = _float_array(self.mu, "mu")
        if mu.ndim != 0 or not 0.0 < mu < math.inf:
            raise ValidationError(f"mu must be a finite positive real, got {self.mu!r}")
        object.__setattr__(self, "mu", float(mu))

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
    with np.errstate(over="ignore"):  # an overflowing row reads inf and is refused
        row2 = (ap * ap).sum(axis=1)
    if float(row2.max()) > 1.0 + ROW_NORM_CLAMP:
        raise RowNormError(
            f"row norm {math.sqrt(row2.max()):.15g} exceeds 1; normalize first"
        )
    off = np.diag(np.sqrt(np.clip(1.0 - row2, 0.0, None)))
    return Embedding(mu=mu, u=np.block([[ap, off], [off, -ap]]))


def closeness(u) -> ClosenessReport:
    """Measure how far a symmetric matrix is from its nearest orthogonal one.

    Everything follows from the eigenvalue magnitudes |lambda| alone, which
    linalg._abs_eigenvalues reads as row norms without eigenvectors:
    c2 = (max | |lambda| - 1 |)^2 / (max |lambda|)^2, cF = sum (|lambda|-1)^2
    / sum lambda^2, phi = 2 sum |lambda| and ef = (1 - c2)^2. |lambda| below
    the polar sign floor raises PolarDegenerateError; c2 above 1 is reported
    as computed (see ClosenessReport.flagged).
    """
    lam = _abs_eigenvalues(u)
    if float(lam.min()) < POLAR_EIGENVALUE_FLOOR:
        raise PolarDegenerateError("eigenvalue too close to zero for the polar sign")
    # on lam / 2^e with 2^-e for 1: exactly the sums on lam, but no square overflows
    lam, e = _pow2_scaled(lam)
    dev = lam - math.ldexp(1.0, -e)
    c2 = float((np.abs(dev).max() ** 2) / (lam.max() ** 2))
    cf = float((dev * dev).sum() / (lam * lam).sum())
    try:
        phi = math.ldexp(float(lam.sum()), e + 1)  # 2 sum |lambda|
    except OverflowError:
        raise ValidationError("phi = 2 sum |lambda| overflows a float") from None
    return ClosenessReport(c2=c2, cF=cf, phi=phi, ef=(1.0 - c2) ** 2)

