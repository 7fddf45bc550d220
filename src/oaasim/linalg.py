"""Dense real symmetric linear algebra built on LAPACK's symmetric eigensolver.

Everything downstream (embeddings, the spectral norm, classical oracles)
reduces to the symmetric eigendecomposition computed here by sym_eigen
(np.linalg.eigh on a power-of-two-scaled copy), and every matrix function
f(S) = V f(L) V^T is formed from it by one private helper, _spectral_map.
closeness alone, which reads only |eigenvalues|, takes _abs_eigenvalues
instead: one-sided Jacobi rotates row pairs, with no eigenvectors,
until the rows are orthogonal and their norms are the |eigenvalues|. It
rotates the h disjoint pairs of a round-robin round (schedule built once per
order) as one gather, one (h, 2, 2) @ (h, 2, n) product and one scatter.
Disjoint rotations commute, so batching keeps the pair-zeroing property of
cyclic Jacobi.

Also defines the plain-text matrix file format used across the package:
line one holds "rows cols", each following line one matrix row, entries
written with 17 significant digits so values round-trip exactly. The body
must be rectangular: a ragged body is rejected even when its entry count
matches the header. np.savetxt writes and np.loadtxt reads the files.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    PolarDegenerateError,
    SymmetryError,
    UnitNormError,
    ValidationError,
)

SYMMETRY_TOL = 1e-12
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 50
POLAR_EIGENVALUE_FLOOR = 1e-12
HOUSEHOLDER_DEGENERATE = 1e-12
_NOT_CONVERGED = "Jacobi sweeps did not converge within {} sweeps"
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Eigendecomposition S = vectors @ diag(values) @ vectors.T.

    values are ascending; each eigenvector column has its largest-magnitude
    component positive so repeated runs produce identical output.
    """

    values: np.ndarray
    vectors: np.ndarray


def _float_array(x, name: str) -> np.ndarray:
    """x as a float array: the one conversion of a caller's array argument.
    What numpy cannot read as real numbers (text, complex values, ragged
    nesting, huge integers) raises ValidationError; callers check finiteness."""
    try:
        if not np.iscomplexobj(x):
            return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{name} is not an array of real numbers")


def as_square_array(m, name: str = "matrix") -> np.ndarray:
    a = _float_array(m, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionError(f"{name} must have at least one row")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} has a non-finite entry")
    return a


def check_symmetric(m, name: str = "matrix") -> np.ndarray:
    """m as a float array, refused unless max|m - m^T| <= 1e-12 max|m|
    (measured on m / 2^e, see _pow2_scaled, so nothing overflows)."""
    a = as_square_array(m, name)
    scaled, _ = _pow2_scaled(a)
    if float(np.abs(scaled - scaled.T).max()) > SYMMETRY_TOL * float(np.abs(scaled).max()):
        raise SymmetryError(f"{name} is not symmetric within tolerance")
    return a


def _items(x, name: str) -> list:
    """list(x): the one conversion of a list argument. A non-iterable raises ValidationError."""
    try:
        return list(x)
    except TypeError:
        raise ValidationError(f"{name} must be a list, got {type(x).__name__}") from None


def _check_count(n, name: str, minimum: int) -> int:
    """n as an int, refused unless it is an integer (numpy integers pass,
    bool does not) no smaller than `minimum`."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {n!r}")
    if n < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, got {n}")
    return int(n)


def _check_choice(value, allowed: tuple, name: str) -> None:
    """ValidationError unless value is a str in allowed."""
    if not (isinstance(value, str) and value in allowed):
        raise ValidationError(f"{name} must be one of {allowed}, got {value!r}")


def _pow2_scaled(x) -> tuple[np.ndarray, int]:
    """(x / 2^e, e) with e the np.frexp exponent of max|x|: the largest
    magnitude of the result lies in [0.5, 1), so squares of its entries
    neither overflow nor all underflow, and dividing by a power of two is
    exact. An all-zero x gives e = 0."""
    e = int(np.frexp(np.abs(x).max(initial=0.0))[1])
    return np.ldexp(x, -e), e


def _check_unit_norm(vec: np.ndarray, name: str, tol: float = 1e-12) -> None:
    """UnitNormError unless ||vec|| is 1 within tol (an overflow reads inf; NaN fails)."""
    with np.errstate(over="ignore"):
        norm = math.sqrt(float((vec * vec).sum()))
    if not abs(norm - 1.0) <= tol:
        raise UnitNormError(f"{name} norm {norm!r} is not 1 within {tol:g}")


def _check_orthogonal(mat: np.ndarray, name: str) -> None:
    """ValidationError unless max|M^T M - I| <= 1e-10 (an overflow fails)."""
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.abs(mat.T @ mat - np.eye(mat.shape[0])).max())
    if not defect <= 1e-10:
        raise ValidationError(f"{name} is not orthogonal within 1e-10")


def _unit_vector(vec, name: str) -> np.ndarray:
    """The finite nonzero vector vec over its 2-norm, taken after
    _pow2_scaled so that any finite entries may be normalized."""
    vec = _float_array(vec, name).ravel()
    if not np.isfinite(vec).all():
        raise ValidationError(f"{name} has a non-finite entry")
    scaled, _ = _pow2_scaled(vec)
    norm = float(np.linalg.norm(scaled))
    if norm == 0.0:
        raise ValidationError(f"{name} is zero")
    return scaled / norm


@functools.cache
def _rotation_rounds(n: int) -> np.ndarray:
    """Round-robin schedule of shape (rounds, h, 2): n-1 rounds (n for odd
    n, padded with a skipped bye) of h disjoint index pairs (p, q; p < q)
    covering every unordered pair exactly once. Cached and read-only:
    solves of order n share one copy."""
    m = n if n % 2 == 0 else n + 1
    idx = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [sorted((idx[i], idx[m - 1 - i])) for i in range(m // 2)]
        rounds.append(np.array([pq for pq in pairs if pq[1] < n], np.intp).reshape(-1, 2))
        idx = [idx[0], idx[-1]] + idx[1:-1]
    schedule = np.ascontiguousarray(rounds)
    schedule.flags.writeable = False
    return schedule


def sym_eigen(s) -> EigenPair:
    """Eigendecomposition of a symmetric matrix by LAPACK (np.linalg.eigh),
    run on s / 2^e (see _pow2_scaled) so no intermediate overflows, and on
    (a + a^T) / 2 of it so both triangles are read (exact when s is exactly
    symmetric). LAPACK non-convergence raises ConvergenceError; an
    eigenvalue beyond the float range, ValidationError."""
    a, e = _pow2_scaled(check_symmetric(s))
    try:
        values, q = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc
    with np.errstate(over="ignore"):
        values = np.ldexp(values, e)
    if not np.isfinite(values).all():
        raise ValidationError("an eigenvalue of the matrix overflows a float")
    flip = q[np.abs(q).argmax(axis=0), np.arange(q.shape[0])] < 0.0
    q[:, flip] = -q[:, flip]
    return EigenPair(values=values, vectors=q)


def _abs_eigenvalues(s) -> np.ndarray:
    """The ascending |eigenvalues| of a symmetric matrix: the row norms (by
    hypot, which neither underflows nor overflows) of s / 2^e once one-sided
    Jacobi rotations of row pairs make its rows orthogonal, each round as one
    gather of (h, 2, n) rows, one (h, 2, 2) product and one scatter. A sweep
    converges when no row product gamma exceeds both 1e-12 |row p| |row q|
    and the smallest normal float, else ConvergenceError after 50 sweeps."""
    a, e = _pow2_scaled(check_symmetric(s))
    for _ in range(JACOBI_MAX_SWEEPS):
        norm2 = np.einsum("ij,ij->i", a, a)
        rotated = False
        for pq in _rotation_rounds(a.shape[0]):
            rows, n2 = a[pq], norm2[pq]
            gamma = np.einsum("ij,ij->i", rows[:, 0], rows[:, 1])
            bound = JACOBI_TOL * np.sqrt(n2[:, 0]) * np.sqrt(n2[:, 1])
            active = np.abs(gamma) > np.maximum(bound, _TINY)
            if not active.any():
                continue
            rotated = True
            if not active.all():
                pq, rows, n2, gamma = pq[active], rows[active], n2[active], gamma[active]
            d = n2[:, 1] - n2[:, 0]
            # t = tan of the angle that zeroes gamma, without forming d / gamma
            t = np.copysign(2.0, d) * gamma / (np.abs(d) + np.hypot(d, 2.0 * gamma))
            c = 1.0 / np.sqrt(1.0 + t * t)
            a[pq] = np.array([[c, -t * c], [t * c, c]]).transpose(2, 0, 1) @ rows
            norm2[pq] = np.maximum(n2 + np.outer(t * gamma, [-1.0, 1.0]), 0.0)
        if not rotated:
            break
    else:
        raise ConvergenceError(_NOT_CONVERGED.format(JACOBI_MAX_SWEEPS))
    with np.errstate(over="ignore"):
        values = np.ldexp(np.hypot.reduce(a, axis=1), e)
    if not np.isfinite(values).all():
        raise ValidationError("an eigenvalue of the matrix overflows a float")
    return np.sort(values)


def _spectral_map(pair: EigenPair, mapped) -> np.ndarray:
    """V diag(mapped) V^T for the eigenvectors V of pair: the matrix
    function whose values on pair.values are mapped."""
    return (pair.vectors * mapped) @ pair.vectors.T


def polar_symmetric(s) -> tuple[np.ndarray, np.ndarray]:
    """Polar factors (u_tilde, h_tilde) of a symmetric matrix.

    u_tilde = Q sign(L) Q^T is the nearest orthogonal matrix, h_tilde =
    Q |L| Q^T its symmetric PSD cofactor, with (L, Q) from sym_eigen.
    Eigenvalues inside the sign-ambiguous band around zero are refused.
    """
    pair = sym_eigen(s)
    if float(np.abs(pair.values).min()) < POLAR_EIGENVALUE_FLOOR:
        raise PolarDegenerateError("eigenvalue too close to zero for the polar sign")
    signs = np.where(pair.values >= 0.0, 1.0, -1.0)
    return _spectral_map(pair, signs), _spectral_map(pair, np.abs(pair.values))


def _householder_vectors(rows: np.ndarray) -> np.ndarray:
    """Unit Householder vectors, one per row u of the 2-D array rows.

    Row i of the result is v = (||u|| e0 - u) / || ||u|| e0 - u ||, so
    I - 2 v v^T maps u to ||u|| e0, and exchanges e0 and u when u has unit
    norm. Its first entry ||u|| - u0 is taken as ||u[1:]||^2 / (||u|| + u0)
    when u0 > 0 (Golub and Van Loan, Matrix Computations, Algorithm
    5.1.1), so it does not cancel when u is close to e0. When
    || ||u|| e0 - u || < 1e-12 the reflector formula degenerates; that row
    is all zero, whose reflector is the identity.
    """
    # in C order each row sums like a lone vector
    v = np.negative(rows, order="C")
    u0 = rows[:, 0]
    tail = (v[:, 1:] * v[:, 1:]).sum(axis=1)
    norm = np.sqrt(u0 * u0 + tail)
    with np.errstate(divide="ignore", invalid="ignore"):  # np.where drops that branch
        v[:, 0] = np.where(u0 > 0.0, tail / (norm + u0), norm - u0)
    nv = np.sqrt((v * v).sum(axis=1))
    keep = nv >= HOUSEHOLDER_DEGENERATE
    np.divide(v, nv[:, None], out=v, where=keep[:, None])
    v[~keep] = 0.0
    return v


def householder_from_vector(u) -> np.ndarray:
    """Reflector R with R e0 = u and R u = e0 for a unit vector u (norm 1
    within 1e-12): R = I - 2 v v^T with v from _householder_vectors, the
    identity exactly when u is within 1e-12 of ||u|| e0."""
    vec = _float_array(u, "vector").ravel()
    if vec.size < 1:
        raise DimensionError("vector must have at least one entry")
    _check_unit_norm(vec, "vector")
    v = _householder_vectors(vec[None, :])[0]
    return np.eye(vec.size) - 2.0 * np.outer(v, v)


def spectral_norm_symmetric(s) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix, from sym_eigen."""
    return float(np.abs(sym_eigen(s).values).max())


# ---------------------------------------------------------------------------
# plain-text matrix files


def write_matrix(path, m) -> None:
    """Write a dense matrix by np.savetxt: header "rows cols", then one line
    per row with entries at 17 significant digits. A matrix read_matrix
    would refuse (empty, or with a non-finite entry) is refused here."""
    a = _float_array(m, "matrix")
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has a non-finite entry")
    # an open file: given a name ending in .gz, savetxt would compress
    with open(path, "w") as f:
        np.savetxt(f, a, fmt="%.16e", header=f"{a.shape[0]} {a.shape[1]}", comments="")


def read_matrix(path) -> np.ndarray:
    """Parse a write_matrix file: the "rows cols" header, then a rectangular
    body of finite entries (one matrix row per line; a ragged body is
    rejected). np.loadtxt reads the body's lines in C, and its correctly
    rounded conversion gives the same floats as Python's float()."""
    try:  # the whole text is freed once split
        head = Path(path).read_text().split(maxsplit=2)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a text file") from exc
    if len(head) < 2:
        raise ValidationError(f"{path}: missing 'rows cols' header")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed header") from exc
    if rows < 1 or cols < 1:
        raise ValidationError(f"{path}: dimensions must be at least 1")
    # loadtxt warns on an empty body, so a header-only file stops here
    if len(head) == 2:
        raise ValidationError(f"{path}: expected {rows * cols} entries, found 0")
    try:
        flat = np.loadtxt(head[2].split("\n"), comments=None, ndmin=1).ravel()
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric entry or ragged rows") from exc
    if flat.size != rows * cols:
        raise ValidationError(
            f"{path}: expected {rows * cols} entries, found {flat.size}"
        )
    if not np.isfinite(flat).all():
        raise ValidationError(f"{path}: non-finite entry")
    return flat.reshape(rows, cols)


def _read_vector(path) -> np.ndarray:
    """Read a matrix file with a single row or column as a flat vector."""
    a = read_matrix(path)
    if a.shape[0] != 1 and a.shape[1] != 1:
        raise DimensionError(f"{path}: expected a row or column vector, got {a.shape}")
    return a.ravel()
