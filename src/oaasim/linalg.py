"""Dense real symmetric linear algebra built on a cyclic Jacobi eigensolver.

Everything downstream (embeddings, closeness metrics, classical oracles)
reduces to the symmetric eigendecomposition computed here. The solver uses
round-robin pair scheduling so each sweep applies disjoint plane rotations
in vectorized batches; disjoint rotations commute, so batching preserves
the exact pivot-zeroing property of classical cyclic Jacobi.

Also defines the plain-text matrix file format used across the package:
line one holds "rows cols", each following line one matrix row, entries
written with 17 significant digits so values round-trip exactly. The body
must be rectangular: a ragged body is rejected even when its entry count
matches the header.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    NotPositiveSemidefiniteError,
    PolarDegenerateError,
    SymmetryError,
    UnitNormError,
    ValidationError,
)

SYMMETRY_TOL = 1e-12
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 50
PSD_CLAMP = 1e-10
POLAR_EIGENVALUE_FLOOR = 1e-12
HOUSEHOLDER_DEGENERATE = 1e-12


@dataclass(frozen=True)
class EigenPair:
    """Eigendecomposition S = vectors @ diag(values) @ vectors.T.

    values are ascending; each eigenvector column has its largest-magnitude
    component positive so repeated runs produce identical output.
    """

    values: np.ndarray
    vectors: np.ndarray


def as_square_array(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionError(f"{name} must have at least one row")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} has a non-finite entry")
    return a


def check_symmetric(m, name: str = "matrix") -> np.ndarray:
    a = as_square_array(m, name)
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    if float(np.abs(a - a.T).max()) > SYMMETRY_TOL * scale:
        raise SymmetryError(f"{name} is not symmetric within tolerance")
    return a


def _check_count(n, name: str, minimum: int | None = None) -> int:
    """n as an int, refused unless it is an integer (numpy integers pass,
    bool does not) no smaller than `minimum`."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {n!r}")
    if minimum is not None and n < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, got {n}")
    return int(n)


def _pow2_scaled(x) -> tuple[np.ndarray, int]:
    """(x / 2^e, e) with e the np.frexp exponent of max|x|: the largest
    magnitude of the result lies in [0.5, 1), so squares of its entries
    neither overflow nor all underflow, and dividing by a power of two is
    exact. An all-zero x gives e = 0."""
    e = int(np.frexp(np.abs(x).max(initial=0.0))[1])
    return np.ldexp(x, -e), e


def _unit_vector(vec, name: str) -> np.ndarray:
    """The finite nonzero vector vec over its 2-norm, taken after
    _pow2_scaled so that any finite entries may be normalized."""
    vec = np.asarray(vec, dtype=float).ravel()
    if not np.isfinite(vec).all():
        raise ValidationError(f"{name} has a non-finite entry")
    scaled, _ = _pow2_scaled(vec)
    norm = float(np.linalg.norm(scaled))
    if norm == 0.0:
        raise ValidationError(f"{name} is zero")
    return scaled / norm


def frobenius(m) -> float:
    a = np.asarray(m, dtype=float)
    return math.sqrt(float((a * a).sum()))


def _rotation_rounds(n: int):
    """Round-robin schedule: n-1 rounds of disjoint index pairs covering
    every unordered pair exactly once (odd n padded with a skipped bye)."""
    m = n if n % 2 == 0 else n + 1
    idx = list(range(m))
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = idx[i], idx[m - 1 - i]
            if a < n and b < n:
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.array(ps, dtype=np.intp), np.array(qs, dtype=np.intp)))
        idx = [idx[0], idx[-1]] + idx[1:-1]
    return rounds


def _off_diagonal_norm(a: np.ndarray) -> float:
    b = a.copy()
    np.fill_diagonal(b, 0.0)
    return math.sqrt(float((b * b).sum()))


def sym_eigen(s) -> EigenPair:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Converged when the off-diagonal Frobenius norm drops to 1e-12 times the
    input Frobenius norm; raises ConvergenceError if 50 sweeps do not get
    there. Deterministic for identical input.
    """
    a = check_symmetric(s).copy()
    n = a.shape[0]
    q = np.eye(n)
    if n == 1:
        return EigenPair(values=a[0].copy(), vectors=q)
    norm_s = frobenius(a)
    if norm_s == 0.0:
        return EigenPair(values=np.zeros(n), vectors=q)
    stop = JACOBI_TOL * norm_s
    # if every pivot in a sweep is at or below this, the off norm is below stop
    skip = stop / math.sqrt(n * (n - 1))
    rounds = _rotation_rounds(n)
    converged = False
    for _ in range(JACOBI_MAX_SWEEPS):
        if _off_diagonal_norm(a) <= stop:
            converged = True
            break
        rotated = False
        for p_idx, q_idx in rounds:
            apq = a[p_idx, q_idx]
            active = np.abs(apq) > skip
            if not active.any():
                continue
            rotated = True
            app = a[p_idx, p_idx]
            aqq = a[q_idx, q_idx]
            safe = np.where(active, apq, 1.0)
            tau = (aqq - app) / (2.0 * safe)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            sn = t * c
            c = np.where(active, c, 1.0)
            sn = np.where(active, sn, 0.0)
            rp = a[p_idx, :]
            rq = a[q_idx, :]
            a[p_idx, :] = c[:, None] * rp - sn[:, None] * rq
            a[q_idx, :] = sn[:, None] * rp + c[:, None] * rq
            cp = a[:, p_idx]
            cq = a[:, q_idx]
            a[:, p_idx] = cp * c - cq * sn
            a[:, q_idx] = cp * sn + cq * c
            vp = q[:, p_idx]
            vq = q[:, q_idx]
            q[:, p_idx] = vp * c - vq * sn
            q[:, q_idx] = vp * sn + vq * c
        if not rotated:
            converged = True
            break
    if not converged and _off_diagonal_norm(a) > stop:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge within {JACOBI_MAX_SWEEPS} sweeps"
        )
    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    q = q[:, order]
    flip = q[np.abs(q).argmax(axis=0), np.arange(n)] < 0.0
    q[:, flip] = -q[:, flip]
    return EigenPair(values=values, vectors=q)


def sqrt_psd(s) -> np.ndarray:
    """Symmetric PSD square root; eigenvalues in [-1e-10, 0) are clamped
    to zero and anything lower raises NotPositiveSemidefiniteError."""
    pair = sym_eigen(s)
    if float(pair.values.min()) < -PSD_CLAMP:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {pair.values.min():.3e} below the PSD clamp threshold"
        )
    vals = np.sqrt(np.clip(pair.values, 0.0, None))
    return pair.vectors @ (vals[:, None] * pair.vectors.T)


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
    u_tilde = pair.vectors @ (signs[:, None] * pair.vectors.T)
    h_tilde = pair.vectors @ (np.abs(pair.values)[:, None] * pair.vectors.T)
    return u_tilde, h_tilde


def householder_from_vector(u) -> np.ndarray:
    """Reflector R with R e0 = u and R u = e0 for a unit vector u.

    R = I - 2 v v^T / ||v||^2 with v = e0 - u; returns the identity exactly
    when u is within 1e-12 of e0 (the reflector formula degenerates there).
    """
    vec = np.asarray(u, dtype=float).ravel()
    if vec.size < 1:
        raise DimensionError("vector must have at least one entry")
    norm = math.sqrt(float((vec * vec).sum()))
    if not (abs(norm - 1.0) <= 1e-12):
        raise UnitNormError(f"vector norm {norm!r} is not 1 within 1e-12")
    n = vec.size
    v = -vec.copy()
    v[0] += 1.0
    vnorm2 = float((v * v).sum())
    if math.sqrt(vnorm2) < HOUSEHOLDER_DEGENERATE:
        return np.eye(n)
    return np.eye(n) - (2.0 / vnorm2) * np.outer(v, v)


def spectral_norm_symmetric(s) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix."""
    pair = sym_eigen(s)
    return float(np.abs(pair.values).max())


# ---------------------------------------------------------------------------
# plain-text matrix files


def write_matrix(path, m) -> None:
    """Write a dense matrix: header "rows cols", then one line per row with
    entries at 17 significant digits. A matrix read_matrix would refuse
    (empty, or with a non-finite entry) is refused here."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has a non-finite entry")
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{x:.16e}" for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path) -> np.ndarray:
    """Parse a write_matrix file: the "rows cols" header, then a rectangular
    body of finite entries (one matrix row per line; a ragged body is
    rejected). The body is read by numpy's C text reader, whose correctly
    rounded conversion gives the same floats as Python's float()."""
    text = Path(path).read_text()
    head = text.split(maxsplit=2)
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
        flat = np.loadtxt(io.StringIO(head[2]), comments=None, ndmin=1).ravel()
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric entry or ragged rows") from exc
    if flat.size != rows * cols:
        raise ValidationError(
            f"{path}: expected {rows * cols} entries, found {flat.size}"
        )
    if not np.isfinite(flat).all():
        raise ValidationError(f"{path}: non-finite entry")
    return flat.reshape(rows, cols)


def read_vector(path) -> np.ndarray:
    """Read a matrix file with a single row or column as a flat vector."""
    a = read_matrix(path)
    if a.shape[0] != 1 and a.shape[1] != 1:
        raise DimensionError(f"{path}: expected a row or column vector, got {a.shape}")
    return a.ravel()
