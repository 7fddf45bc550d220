"""Structured two-register block-encoding circuits.

Both circuit types act on a state over an ancilla-role register of dimension
M and a system register of dimension N, stored flat with basis state (a, s)
at position a * N + s. The operator itself is always orthogonal; the matrix
being encoded appears, scaled by 1/sqrt(M), in the amplitudes of the "good"
states, the positions whose designated register component is index 0.

LcuCircuit (sum of unitaries): coefficient reflector K on the first
register, a block-diagonal layer applying unitary U_i inside ancilla sector
i, then a uniform-superposition (Walsh-Hadamard) layer on the first
register. Good states live where the first register is 0, and the dense
operator's top-left N x N block equals sum_i k_i U_i / sqrt(M).

RowEncodingCircuit: M = N and block i is the Householder reflector whose
first row is row i of the encoded matrix U (legal because U has unit-norm
rows). The registers are swapped on entry, then the Hadamard layer and the
block layer run. Good states live where the second register is 0; feeding
the state (in x e0) makes their amplitudes exactly U @ in / sqrt(M). Keeping
input marker and good marker on the same register is what lets the
amplification iterate reuse a single reflection. encode runs the whole
path from a symmetric matrix and an input vector to this circuit, its
input state and the fidelity target.

Applications cost O(M N^2) and never materialize the M N x M N operator;
dense_matrix_of exists only as a small-dimension oracle for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import Embedding, build_estimated_embedding, mu_normalize
from .errors import (
    DimensionError,
    NoGoodAmplitudeError,
    NumericalError,
    RowNormError,
    UnitNormError,
    ValidationError,
)
from .linalg import as_square_array, householder_from_vector
from .metrics import check_fidelity_mode

DENSE_ORACLE_CAP = 256
GOOD_MASS_FLOOR = 1e-30
NORM_DRIFT_TOL = 1e-12


@dataclass
class StateVector:
    """Real amplitudes over the (ancilla-role, system) tensor space."""

    amplitudes: np.ndarray
    m_dim: int
    n_dim: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=float).ravel()
        if self.m_dim * self.n_dim != self.amplitudes.size:
            raise DimensionError(
                f"amplitude count {self.amplitudes.size} is not "
                f"{self.m_dim} * {self.n_dim}"
            )

    def reshaped(self) -> np.ndarray:
        return self.amplitudes.reshape(self.m_dim, self.n_dim)

    def norm(self) -> float:
        return math.sqrt(float((self.amplitudes * self.amplitudes).sum()))


class CircuitU:
    """Immutable structured block-encoding operator.

    good_register names which register's index-0 component marks good
    states. Each subclass owns its layers: _forward and _inverse map the
    (M, N) amplitude grid to a new one.
    """

    good_register = ""

    def __init__(self, m_dim, n_dim):
        self.m_dim = int(m_dim)
        self.n_dim = int(n_dim)


class RowEncodingCircuit(CircuitU):
    """Row-encoding form: row i of _hh is the unit Householder vector of
    block i (all zero for an identity block)."""

    good_register = "second"

    def __init__(self, hh_vectors: np.ndarray):
        super().__init__(hh_vectors.shape[0], hh_vectors.shape[0])
        self._hh = hh_vectors

    def _householder_layer(self, x: np.ndarray) -> np.ndarray:
        dots = (self._hh * x).sum(axis=1)
        return x - 2.0 * dots[:, None] * self._hh

    def _forward(self, x):
        return self._householder_layer(_fwht_axis0(x.T))

    def _inverse(self, x):
        return _fwht_axis0(self._householder_layer(x)).T


class LcuCircuit(CircuitU):
    """Sum-of-unitaries form: the (M, N, N) block stack and the M x M
    coefficient reflector."""

    good_register = "first"

    def __init__(self, block_stack: np.ndarray, k_reflector: np.ndarray):
        super().__init__(block_stack.shape[0], block_stack.shape[1])
        self._stack = block_stack
        self.k_reflector = k_reflector

    def _forward(self, x):
        x = np.einsum("aij,aj->ai", self._stack, self.k_reflector @ x)
        return _fwht_axis0(x)

    def _inverse(self, x):
        x = np.einsum("aji,aj->ai", self._stack, _fwht_axis0(x))
        return self.k_reflector.T @ x


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _fwht_axis0(x: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform over axis 0 (length must be a
    power of two). Self-inverse."""
    m = x.shape[0]
    y = np.array(x, dtype=float, copy=True)
    h = 1
    while h < m:
        y = y.reshape(m // (2 * h), 2, h, -1)
        a = y[:, 0].copy()
        b = y[:, 1].copy()
        y[:, 0] = a + b
        y[:, 1] = a - b
        y = y.reshape(m, -1)
        h *= 2
    return y / math.sqrt(m)


def build_row_encoding(u) -> RowEncodingCircuit:
    """Circuit whose good-state amplitudes realize U @ in / sqrt(M).

    Each block is the Householder reflector carrying one row of U as its
    first row, so every block is orthogonal even when U itself is not.
    The order of U must be a power of two (it doubles as the Hadamard
    layer dimension).
    """
    mat = as_square_array(u)
    m = mat.shape[0]
    if not _is_power_of_two(m):
        raise ValidationError(f"order {m} is not a power of two")
    row_norms = np.sqrt((mat * mat).sum(axis=1))
    if float(np.abs(row_norms - 1.0).max()) > 1e-10:
        raise RowNormError("every row must have unit 2-norm within 1e-10")
    hh = np.zeros((m, m))
    for i in range(m):
        v = -mat[i].copy()
        v[0] += 1.0
        nv = math.sqrt(float((v * v).sum()))
        if nv >= 1e-12:
            hh[i] = v / nv
    return RowEncodingCircuit(hh)


def build_lcu_encoding(unitaries, coeffs) -> LcuCircuit:
    """Circuit encoding sum_i k_i U_i / sqrt(M) in its top-left block.

    The unitary list is padded with identity blocks (and zero coefficients)
    up to the next power of two; coefficients must already be normalized.
    """
    mats = [as_square_array(u, f"unitaries[{i}]") for i, u in enumerate(unitaries)]
    if not mats:
        raise ValidationError("need at least one unitary")
    n = mats[0].shape[0]
    eye = np.eye(n)
    for i, mat in enumerate(mats):
        if mat.shape[0] != n:
            raise DimensionError("all unitaries must share one order")
        if float(np.abs(mat.T @ mat - eye).max()) > 1e-10:
            raise ValidationError(f"unitaries[{i}] is not orthogonal within 1e-10")
    k = np.asarray(coeffs, dtype=float).ravel()
    if k.size != len(mats):
        raise DimensionError("one coefficient per unitary required")
    norm = math.sqrt(float((k * k).sum()))
    if not (abs(norm - 1.0) <= 1e-10):
        raise UnitNormError(f"coefficient norm {norm!r} is not 1 within 1e-10")
    m = 1
    while m < len(mats):
        m *= 2
    stack = np.zeros((m, n, n))
    for i, mat in enumerate(mats):
        stack[i] = mat
    for i in range(len(mats), m):
        stack[i] = eye
    padded = np.zeros(m)
    padded[: k.size] = k
    reflector = householder_from_vector(padded)
    return LcuCircuit(stack, reflector)


def _check_dims(c: CircuitU, s: StateVector) -> None:
    if s.m_dim != c.m_dim or s.n_dim != c.n_dim:
        raise DimensionError(
            f"state registers ({s.m_dim}, {s.n_dim}) do not match "
            f"circuit ({c.m_dim}, {c.n_dim})"
        )


def apply_circuit(c: CircuitU, s: StateVector, inverse: bool = False) -> StateVector:
    """Apply the structured operator (or its inverse as the reversed
    sequence of inverted layers). Preserves the state norm to 1e-12."""
    _check_dims(c, s)
    x = s.reshaped()
    x = c._inverse(x) if inverse else c._forward(x)
    out = StateVector(np.ascontiguousarray(x).ravel(), c.m_dim, c.n_dim)
    if not (abs(out.norm() - s.norm()) <= NORM_DRIFT_TOL * max(1.0, s.norm())):
        raise NumericalError("circuit application failed to preserve the norm")
    return out


def apply_good_reflection(c: CircuitU, s: StateVector) -> StateVector:
    """Negate exactly the amplitudes whose good-register component is 0."""
    _check_dims(c, s)
    x = s.reshaped().copy()
    if c.good_register == "first":
        x[0, :] = -x[0, :]
    else:
        x[:, 0] = -x[:, 0]
    return StateVector(x.ravel(), c.m_dim, c.n_dim)


def collapse_good(c: CircuitU, s: StateVector,
                  project_system_zero: bool = False) -> tuple[np.ndarray, float]:
    """Project onto the good states and renormalize.

    Returns (collapsed, probability) where probability is the squared
    amplitude mass on good states. With project_system_zero the first half
    of the collapsed vector is additionally kept and renormalized, and the
    reported probability is the compound one (both projections succeeding).
    """
    _check_dims(c, s)
    x = s.reshaped()
    good = x[0, :].copy() if c.good_register == "first" else x[:, 0].copy()
    prob = float((good * good).sum())
    if prob < GOOD_MASS_FLOOR:
        raise NoGoodAmplitudeError("no amplitude mass on the good states")
    collapsed = good / math.sqrt(prob)
    if project_system_zero:
        half = collapsed.size // 2
        top = collapsed[:half].copy()
        mass = float((top * top).sum())
        if mass < GOOD_MASS_FLOOR:
            raise NoGoodAmplitudeError("no amplitude mass after the projection")
        return top / math.sqrt(mass), prob * mass
    return collapsed, prob


def prepare_input(c: CircuitU, system) -> StateVector:
    """Build the canonical input state: the unit vector `system` on the data
    register with the good register fixed at index 0."""
    vec = np.asarray(system, dtype=float).ravel()
    if not np.isfinite(vec).all():
        raise ValidationError("input vector has a non-finite entry")
    norm = math.sqrt(float((vec * vec).sum()))
    if abs(norm - 1.0) > 1e-12:
        raise UnitNormError(f"input norm {norm!r} is not 1 within 1e-12")
    x = np.zeros((c.m_dim, c.n_dim))
    if c.good_register == "first":
        if vec.size != c.n_dim:
            raise DimensionError(f"input length {vec.size} != system dim {c.n_dim}")
        x[0, :] = vec
    else:
        if vec.size != c.m_dim:
            raise DimensionError(f"input length {vec.size} != data dim {c.m_dim}")
        x[:, 0] = vec
    return StateVector(x.ravel(), c.m_dim, c.n_dim)


@dataclass(frozen=True)
class Encoded:
    """A matrix made ready for amplification: its estimated embedding, the
    row-encoding circuit of the embedded operator, the prepared input
    state, the fidelity target, and whether collapse projects onto the
    system's top half (projected fidelity mode)."""

    embedding: Embedding
    circuit: RowEncodingCircuit
    state: StateVector
    target: np.ndarray
    project: bool


def encode(a, vec, fidelity_mode: str = "embedded") -> Encoded:
    """Scale the symmetric matrix `a` by mu, embed it, build its row
    encoding, and prepare the unit vector `vec` as the circuit input.

    A vec of the matrix order is placed in the top half of the embedded
    space; one of the embedded order is taken as is, in embedded mode
    only. The target is U @ input in embedded mode and (a / mu) @ vec in
    projected mode.
    """
    check_fidelity_mode(fidelity_mode)
    normalized, mu = mu_normalize(a)
    emb = build_estimated_embedding(normalized, mu)
    circ = build_row_encoding(emb.u)
    vec = np.asarray(vec, dtype=float).ravel()
    order = normalized.shape[0]
    project = fidelity_mode == "projected"
    if vec.size == order:
        padded = np.zeros(2 * order)
        padded[:order] = vec
    elif project:
        raise ValidationError(
            f"projected mode needs an input of length {order}, got {vec.size}"
        )
    elif vec.size == 2 * order:
        padded = vec
    else:
        raise ValidationError(
            f"input length {vec.size} matches neither {order} nor {2 * order}"
        )
    state = prepare_input(circ, padded)
    target = normalized @ vec if project else emb.u @ padded
    return Encoded(emb, circ, state, target, project)


def dense_matrix_of(c: CircuitU) -> np.ndarray:
    """Materialize the full operator column by column (small dims only)."""
    total = c.m_dim * c.n_dim
    if total > DENSE_ORACLE_CAP:
        raise DimensionError(
            f"dense oracle capped at total dimension {DENSE_ORACLE_CAP}, got {total}"
        )
    out = np.zeros((total, total))
    for j in range(total):
        basis = np.zeros(total)
        basis[j] = 1.0
        out[:, j] = apply_circuit(c, StateVector(basis, c.m_dim, c.n_dim)).amplitudes
    return out
