"""Structured two-register block-encoding circuits.

Both circuit types act on a state over an ancilla-role register of dimension
M and a system register of dimension N, held as the (M, N) grid; the flat
view puts basis state (a, s) at a * N + s. The operator itself is always
orthogonal; the matrix being encoded appears, scaled by 1/sqrt(M), in the
amplitudes of the "good" states, the positions whose designated register
component is index 0. CircuitU.good_first turns a grid so that this
register is axis 0, and every state operation below works on that view.

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

No application materializes the M N x M N operator. The Hadamard layer is
two small matrix products (see _fwht_axis0) costing O(M N (a + b)) with
a + b <= 2.2 sqrt(M); the row encoding's Householder layer is O(M N); the
LCU form adds O(M N^2) for its blocks and O(M^2 N) for its reflector.
apply_image_reflection, W R W^-1 for the good-state reflection R, runs
inverse, R, forward; in the row encoding the swaps cancel and H R H is
I - 2 u u^T, u the uniform state (Grover's diffusion), so it is
L (I - 2 u u^T (x) I) L, L the Householder layer. Every block of L is an
involution, so L L = I and the product is one rank-structured update,
x - (2/M) 1 c^T + (4/M) (hh c) o hh with c = x.sum(axis=0) - 2 hh^T d,
d_i = <hh_i, x_i>: one row-dot, one column sum, two matrix-vector
products and three elementwise passes, O(M N) with no Hadamard.
dense_matrix_of exists only as a small-dimension oracle for tests.

Memory: the layers write into a destination the caller may own (the `out`
of apply_circuit, which may be the input state) and work in one scratch
grid per circuit, made on first use, so an amplification loop allocates
its full-size grids once. Hence one circuit is never applied from two
threads at once.
"""

from __future__ import annotations

import functools
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
    """Real amplitudes over the (ancilla-role, system) space: an (M, N) grid."""

    grid: np.ndarray

    def __post_init__(self):
        # kept C-contiguous: the layers' row sums must run in one order
        self.grid = np.ascontiguousarray(self.grid, dtype=float)
        if self.grid.ndim != 2:
            raise DimensionError(f"state grid must be 2-D, got shape {self.grid.shape}")

    @property
    def m_dim(self) -> int:
        return self.grid.shape[0]

    @property
    def n_dim(self) -> int:
        return self.grid.shape[1]

    @property
    def amplitudes(self) -> np.ndarray:
        """Flat view: basis state (a, s) at position a * N + s."""
        return self.grid.ravel()

    def norm(self) -> float:
        flat = self.grid.ravel()
        return math.sqrt(float(flat @ flat))


class CircuitU:
    """Immutable structured block-encoding operator.

    good_register names the register whose index 0 marks good states; only
    good_first reads it. Each subclass owns its layers: _forward, _inverse
    and _image_reflection read the (M, N) amplitude grid x and write the
    result into out (which may be x), working in scratch (may be neither).
    """

    good_register = ""

    def __init__(self, m_dim, n_dim):
        self.m_dim = int(m_dim)
        self.n_dim = int(n_dim)

    @functools.cached_property
    def _scratch(self) -> np.ndarray:
        """Work grid of the layers, shared by every apply of this circuit."""
        return np.empty((self.m_dim, self.n_dim))

    def good_first(self, x: np.ndarray) -> np.ndarray:
        """View of the (M, N) grid x whose row 0 holds the good amplitudes
        and whose axis 1 is the data register. Writes go through to x."""
        return x.T if self.good_register == "second" else x

    def _image_reflection(self, x, out, scratch):
        self._inverse(x, out, scratch)
        self.good_first(out)[0] *= -1.0
        self._forward(out, out, scratch)


class RowEncodingCircuit(CircuitU):
    """Row-encoding form: row i of _hh is the unit Householder vector of
    block i (all zero for an identity block)."""

    good_register = "second"

    def __init__(self, hh_vectors: np.ndarray):
        super().__init__(hh_vectors.shape[0], hh_vectors.shape[0])
        self._hh = hh_vectors

    def _householder_layer(self, x: np.ndarray, out: np.ndarray) -> None:
        """Block i reflects row i of x into row i of out (out is not x)."""
        dots = np.einsum("ij,ij->i", self._hh, x)
        np.multiply(self._hh, (-2.0 * dots)[:, None], out=out)
        out += x

    def _forward(self, x, out, scratch):
        np.copyto(scratch, x.T)
        _fwht_axis0(scratch, scratch, out)
        self._householder_layer(scratch, out)

    def _inverse(self, x, out, scratch):
        self._householder_layer(x, scratch)
        _fwht_axis0(scratch, scratch, out)
        np.copyto(out, scratch.T)

    def _image_reflection(self, x, out, scratch):
        # L D L x as one update, since L L = I (see the module docstring);
        # c is the column sum of L x
        hh, m = self._hh, self.m_dim
        dots = np.einsum("ij,ij->i", hh, x)
        c = x.sum(axis=0)
        c -= 2.0 * (dots @ hh)
        np.multiply(hh, ((4.0 / m) * (hh @ c))[:, None], out=scratch)
        np.subtract(x, (2.0 / m) * c, out=out)
        out += scratch


class LcuCircuit(CircuitU):
    """Sum-of-unitaries form: the (M, N, N) block stack and the M x M
    coefficient reflector."""

    good_register = "first"

    def __init__(self, block_stack: np.ndarray, k_reflector: np.ndarray):
        super().__init__(block_stack.shape[0], block_stack.shape[1])
        self._stack = block_stack
        self.k_reflector = k_reflector

    def _forward(self, x, out, scratch):
        np.matmul(self.k_reflector, x, out=scratch)
        np.einsum("aij,aj->ai", self._stack, scratch, out=out)
        _fwht_axis0(out, out, scratch)

    def _inverse(self, x, out, scratch):
        _fwht_axis0(x, out, scratch)
        np.einsum("aji,aj->ai", self._stack, out, out=scratch)
        np.matmul(self.k_reflector.T, scratch, out=out)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@functools.cache
def _hadamard(m: int) -> np.ndarray:
    """Normalized Sylvester Hadamard matrix of order m (a power of two).
    Cached and read-only: every caller shares one copy per order."""
    h = np.ones((1, 1))
    while h.shape[0] < m:
        h = np.block([[h, h], [h, -h]])
    h /= math.sqrt(m)
    h.flags.writeable = False
    return h


def _fwht_axis0(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Normalized Walsh-Hadamard transform over axis 0 (length M must be a
    power of two), written into out. Self-inverse.

    The Sylvester matrix factors as H_M = H_a (x) H_b with a =
    2^ceil(log2(M) / 2) and b = M / a, so the transform is two matrix
    products with the small cached factors: H_a over the leading index of
    the (a, b, N) view, into scratch, then H_b broadcast over that index,
    into out. That costs O(M N (a + b)) and keeps only sqrt(M)-sized
    matrices in memory. out and scratch are C-contiguous arrays of x's
    size; out may be x, scratch may be neither.
    """
    m = x.shape[0]
    a = 1 << (m.bit_length() // 2)
    b = m // a
    y = np.matmul(_hadamard(a), x.reshape(a, -1), out=scratch.reshape(a, -1))
    np.matmul(_hadamard(b), y.reshape(a, b, -1), out=out.reshape(a, b, -1))


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
    # row i is e0 - U[i]; in C order each row sums like a lone vector
    v = np.negative(mat, order="C")
    v[:, 0] += 1.0
    nv = np.sqrt((v * v).sum(axis=1))
    keep = nv >= 1e-12  # otherwise U[i] = e0 and block i is the identity
    np.divide(v, nv[:, None], out=v, where=keep[:, None])
    v[~keep] = 0.0
    return RowEncodingCircuit(v)


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


def _destination(c: CircuitU, s: StateVector, out: StateVector | None) -> StateVector:
    _check_dims(c, s)
    if out is None:
        return StateVector(np.empty_like(s.grid))
    _check_dims(c, out)
    return out


def apply_circuit(c: CircuitU, s: StateVector, inverse: bool = False,
                  out: StateVector | None = None) -> StateVector:
    """Apply the structured operator (or its inverse as the reversed
    sequence of inverted layers). Preserves the state norm to 1e-12.

    The result is written into `out`, a state of the circuit's shape, which
    may be `s` itself; with out=None a new state is allocated. Returns the
    state written.
    """
    out = _destination(c, s, out)
    before = s.norm()  # read first: out may be s
    (c._inverse if inverse else c._forward)(s.grid, out.grid, c._scratch)
    return check_norm(before, out)


def apply_image_reflection(c: CircuitU, s: StateVector,
                           out: StateVector | None = None) -> StateVector:
    """Reflect about the circuit's image of the good subspace, W R W^-1;
    `out` and the norm guard work as in apply_circuit."""
    out = _destination(c, s, out)
    before = s.norm()
    c._image_reflection(s.grid, out.grid, c._scratch)
    return check_norm(before, out)


def check_norm(before: float, after: StateVector) -> StateVector:
    """Return `after`, or raise NumericalError if its norm left `before`."""
    if not (abs(after.norm() - before) <= NORM_DRIFT_TOL * max(1.0, before)):
        raise NumericalError("circuit application failed to preserve the norm")
    return after


def apply_good_reflection(c: CircuitU, s: StateVector,
                          out: StateVector | None = None) -> StateVector:
    """Negate exactly the amplitudes whose good-register component is 0.

    The result is written into `out`, a state of the circuit's shape, which
    may be `s` itself; with out=None a new state is allocated.
    """
    out = _destination(c, s, out)
    if out is not s:
        np.copyto(out.grid, s.grid)
    c.good_first(out.grid)[0] *= -1.0
    return out


def collapse_good(c: CircuitU, s: StateVector,
                  project_system_zero: bool = False) -> tuple[np.ndarray, float]:
    """Project onto the good states and renormalize.

    Returns (collapsed, probability) where probability is the squared
    amplitude mass on good states. With project_system_zero the first half
    of the collapsed vector is additionally kept and renormalized, and the
    reported probability is the compound one (both projections succeeding).
    """
    _check_dims(c, s)
    good = c.good_first(s.grid)[0].copy()
    prob = float((good * good).sum())
    if not (prob >= GOOD_MASS_FLOOR):
        raise NoGoodAmplitudeError("no amplitude mass on the good states")
    collapsed = good / math.sqrt(prob)
    if project_system_zero:
        top = collapsed[: collapsed.size // 2].copy()
        mass = float((top * top).sum())
        if not (mass >= GOOD_MASS_FLOOR):
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
    v = c.good_first(x)
    if vec.size != v.shape[1]:
        raise DimensionError(f"input length {vec.size} != data dim {v.shape[1]}")
    v[0] = vec
    return StateVector(x)


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
    encoding, and prepare the unit vector `vec` as the circuit input: the
    matrix half _encode_matrix followed by the input half _encode_input.

    A vec of the matrix order is placed in the top half of the embedded
    space; one of the embedded order is taken as is, in embedded mode
    only. The target is U @ input in embedded mode and (a / mu) @ vec in
    projected mode.
    """
    check_fidelity_mode(fidelity_mode)
    return _encode_input(_encode_matrix(a), vec, fidelity_mode)


def _encode_matrix(a) -> tuple:
    """encode's matrix half: (a / mu, its embedding, their row encoding)."""
    normalized, mu = mu_normalize(a)
    emb = build_estimated_embedding(normalized, mu)
    return normalized, emb, build_row_encoding(emb.u)


def _encode_input(matrix: tuple, vec, fidelity_mode: str) -> Encoded:
    """encode's input half, on an _encode_matrix result and a checked mode."""
    normalized, emb, circ = matrix
    vec = np.asarray(vec, dtype=float).ravel()
    order = normalized.shape[0]
    project = fidelity_mode == "projected"
    lengths = (order,) if project else (order, 2 * order)
    if vec.size not in lengths:
        raise DimensionError(f"{fidelity_mode} mode needs an input length in {lengths}, "
                             f"got {vec.size}")
    padded = np.zeros(2 * order)
    padded[: vec.size] = vec
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
        basis = np.zeros((c.m_dim, c.n_dim))
        basis[divmod(j, c.n_dim)] = 1.0
        out[:, j] = apply_circuit(c, StateVector(basis)).amplitudes
    return out
