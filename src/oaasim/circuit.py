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
dense_matrix_of exists only as a small-dimension oracle for tests.

Amplification reads only the good amplitudes between iterations, so the
row encoding's adjoint iterate -W R W^-1 R, R the good-state reflection,
runs on a structured state (_adjoint_steps). In W R W^-1 the register
swaps cancel and H R H is I - 2 u u^T, u the uniform state (Grover's
diffusion), so W R W^-1 = L D L with L the Householder layer and
D = I - 2 u u^T (x) I. Every block of L is an involution, so L L = I and
L D L x is one rank-structured update, x - (2/M) 1 c^T + (4/M) (hh c) o hh
with c = x.sum(axis=0) - 2 hh^T d, d_i = <hh_i, x_i>. With x the grid
after the circuit, the state after i iterations is (-1)^i y,
y = x + 1 a^T + diag(s) hh + w e0^T: R negates the good column g of y,
which sets w -= 2 g; L D L sets a -= (2/M) c and s += (4/M) hh c; the
amplification loop applies the sign (-1)^k once, to the final state.
Both start at 0, so hh a = -s/2, bit for bit outside the subnormal range
(M is a power of two). From the row dots hh.x, colsum(x), x e0 and
||x||^2, taken once, an iteration finds c, d and g with two
matrix-vector products, hh^T (s - 2 d) and hh c, and O(M) work besides;
the grid is written only when the final state is asked for. Each step
yields the norm of y, read off the same terms:
||y||^2 = ||x||^2 + 2 colsum(x).a + (hh.x).s + (x e0).w + M a.a
+ s.(d + hh a) + w.g + a_0 sum(w), with d and g those of y.
The literal middle step W R W = L H P R L H P, P the register swap,
needs no swap either: P L H P = Lc Hc, the Hadamard layer on axis 1
(_fwht_axis1) and the Householder layer with block i on column i, and
P R P = R' negates row 0, so W R W = L H R' Lc Hc.
The LCU form keeps the grid route: W R W^-1 as inverse, R, forward.

Memory: a circuit holds no grid of its own, so one circuit may serve any
number of runs, also from several threads. Every layer transforms its grid
x in place, working in one scratch grid of x's shape that its caller
owns. apply_circuit copies its input into a new state and transforms
that; an amplification loop steps its one state in place with one
scratch grid per run.
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
    ValidationError,
)
from .linalg import (
    _check_choice,
    _check_orthogonal,
    _check_unit_norm,
    _float_array,
    _householder_vectors,
    _items,
    _pow2_scaled,
    as_square_array,
)
from .metrics import FIDELITY_MODES

DENSE_ORACLE_CAP = 256
NORM_DRIFT_TOL = 1e-12
# good mass below the square of the drift tolerance is rounding residue
GOOD_MASS_FLOOR = NORM_DRIFT_TOL ** 2
# estimated peak bytes of one run per squared embedded dimension: twelve
# float grids; one trial measured at most 8.5 of them under tracemalloc
RUN_BYTES_PER_DIM2 = 12 * 8


@dataclass(eq=False)
class StateVector:
    """Real amplitudes over the (ancilla-role, system) space: an (M, N) grid."""

    grid: np.ndarray

    def __post_init__(self):
        # kept C-contiguous: the layers' row sums must run in one order
        self.grid = np.ascontiguousarray(_float_array(self.grid, "state grid"))
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
    good_first reads it. Each subclass owns its layers: _forward and
    _inverse transform the (M, N) amplitude grid x in place, working in
    scratch, a C-contiguous grid of x's shape that the caller owns; so do
    the middle reflections of the amplification iterates built from them.
    """

    good_register = ""

    def __init__(self, m_dim, n_dim):
        self.m_dim = int(m_dim)
        self.n_dim = int(n_dim)

    def good_first(self, x: np.ndarray) -> np.ndarray:
        """View of the (M, N) grid x whose row 0 holds the good amplitudes
        and whose axis 1 is the data register. Writes go through to x."""
        return x.T if self.good_register == "second" else x

    def _image_reflection(self, x, scratch):
        self._sandwich(self._inverse, x, scratch)

    def _literal_reflection(self, x, scratch):
        self._sandwich(self._forward, x, scratch)

    def _sandwich(self, first, x, scratch):
        # first, R, forward: W R W^-1 from _inverse, literal's W R W from _forward
        first(x, scratch)
        self.good_first(x)[0] *= -1.0
        self._forward(x, scratch)


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

    def _forward(self, x, scratch):
        np.copyto(scratch, x.T)
        _fwht_axis0(scratch, x)
        self._householder_layer(scratch, x)

    def _inverse(self, x, scratch):
        self._householder_layer(x, scratch)
        _fwht_axis0(scratch, x)
        np.copyto(x, scratch.T)

    @functools.cached_property
    def _hh_columns(self) -> np.ndarray:
        """_hh transposed, C-contiguous: column i is block i's vector."""
        return np.ascontiguousarray(self._hh.T)

    def _literal_reflection(self, x, scratch):
        # W R W as L H R' Lc Hc, the register swaps moved through (module docstring)
        _fwht_axis1(x, scratch)
        hc = self._hh_columns
        dots = np.einsum("ij,ij->j", hc, x)
        np.multiply(hc, -2.0 * dots, out=scratch)
        scratch += x
        scratch[0] *= -1.0
        _fwht_axis0(scratch, x)
        self._householder_layer(scratch, x)

    def _adjoint_steps(self, state: StateVector, k: int, keep: bool):
        """Run the adjoint iterate -L D L R k times on the structured state
        y of the module docstring, yielding its good amplitudes (the sign
        left out) and its norm after each step; the amplification loop
        checks the norm. state holds x, the grid after the circuit; with
        keep set, y is written into it after the last step."""
        x, hh, m = state.grid, self._hh, self.m_dim
        h0, x0 = hh[:, 0].copy(), x[:, 0].copy()
        hn, rdx = np.einsum("ij,ij->i", hh, hh), np.einsum("ij,ij->i", hh, x)
        csx = x.sum(axis=0)
        p = np.concatenate([2.0 * csx, rdx, x0])  # ||y||^2 = ||x||^2 + p.z + ...
        xx = float(x.ravel() @ x.ravel())
        z = np.zeros(3 * m)
        a, s, w = z[:m], z[m : 2 * m], z[2 * m :]
        c, t = np.empty(m), np.empty(m)
        g, d = x0.copy(), rdx.copy()  # good column and row dots of y
        for _ in range(k):
            g += g
            w -= g  # R
            d -= g * h0
            np.matmul(s - 2.0 * d, hh, out=c)  # c = colsum(R y) - 2 hh^T d
            c += csx
            c += m * a
            c[0] += w.sum()
            np.matmul(hh, c, out=t)
            a -= (2.0 / m) * c  # L D L
            s += (4.0 / m) * t
            np.multiply(s, h0, out=g)
            g += x0
            g += w
            g += a[0]
            np.multiply(s, hn, out=d)
            d += rdx
            d -= 0.5 * s  # hh a = -s / 2
            d += w * h0
            yield g, math.sqrt(max(xx + p @ z + m * (a @ a) + s @ (d - 0.5 * s) + w @ g
                                   + a[0] * w.sum(), 0.0))
        if keep:
            x += a
            x += s[:, None] * hh
            x[:, 0] += w


class LcuCircuit(CircuitU):
    """Sum-of-unitaries form: the (M, N, N) block stack and the M x M
    coefficient reflector."""

    good_register = "first"

    def __init__(self, block_stack: np.ndarray, k_reflector: np.ndarray):
        super().__init__(block_stack.shape[0], block_stack.shape[1])
        self._stack = block_stack
        self.k_reflector = k_reflector

    def _forward(self, x, scratch):
        np.matmul(self.k_reflector, x, out=scratch)
        np.einsum("aij,aj->ai", self._stack, scratch, out=x)
        _fwht_axis0(x, scratch)

    def _inverse(self, x, scratch):
        _fwht_axis0(x, scratch)
        np.einsum("aji,aj->ai", self._stack, x, out=scratch)
        np.matmul(self.k_reflector.T, scratch, out=x)


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


def _fwht_axis0(x: np.ndarray, scratch: np.ndarray) -> None:
    """Normalized Walsh-Hadamard transform over axis 0 (length M must be a
    power of two), in place. Self-inverse.

    The Sylvester matrix factors as H_M = H_a (x) H_b with a =
    2^ceil(log2(M) / 2) and b = M / a, so the transform is two matrix
    products with the small cached factors: H_a over the leading index of
    the (a, b, N) view, into scratch, then H_b broadcast over that index,
    back into x. That costs O(M N (a + b)) and keeps only sqrt(M)-sized
    matrices in memory. x and scratch are distinct C-contiguous arrays
    of one size.
    """
    m = x.shape[0]
    a = 1 << (m.bit_length() // 2)
    b = m // a
    y = np.matmul(_hadamard(a), x.reshape(a, -1), out=scratch.reshape(a, -1))
    np.matmul(_hadamard(b), y.reshape(a, b, -1), out=x.reshape(a, b, -1))


def _fwht_axis1(x: np.ndarray, scratch: np.ndarray) -> None:
    """_fwht_axis0 over axis 1 (length N a power of two), with no transposed
    copy: H_b on the last index of the (M, a, b) view as one (M a, b) @
    (b, b) product, into scratch, then H_a on its middle index, back into x."""
    n = x.shape[1]
    a = 1 << (n.bit_length() // 2)
    b = n // a
    y = np.matmul(x.reshape(-1, b), _hadamard(b), out=scratch.reshape(-1, b))
    np.matmul(_hadamard(a), y.reshape(-1, a, b), out=x.reshape(-1, a, b))


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
    with np.errstate(over="ignore"):
        row_norms = np.sqrt((mat * mat).sum(axis=1))
    if float(np.abs(row_norms - 1.0).max()) > 1e-10:
        raise RowNormError("every row must have unit 2-norm within 1e-10")
    return RowEncodingCircuit(_householder_vectors(mat))


def build_lcu_encoding(unitaries, coeffs) -> LcuCircuit:
    """Circuit encoding sum_i k_i U_i / sqrt(M) in its top-left block.

    The unitaries, any iterable of orthogonal matrices of one order, are
    padded with identity blocks (and zero coefficients) up to the next
    power of two; coefficients must already have 2-norm 1 within 1e-10.
    """
    mats = [as_square_array(u, f"unitaries[{i}]")
            for i, u in enumerate(_items(unitaries, "unitaries"))]
    if not mats:
        raise ValidationError("need at least one unitary")
    n = mats[0].shape[0]
    for i, mat in enumerate(mats):
        if mat.shape[0] != n:
            raise DimensionError("all unitaries must share one order")
        _check_orthogonal(mat, f"unitaries[{i}]")
    k = _float_array(coeffs, "coeffs").ravel()
    if k.size != len(mats):
        raise DimensionError("one coefficient per unitary required")
    _check_unit_norm(k, "coefficient", 1e-10)
    m = 1 << (len(mats) - 1).bit_length()  # the next power of two
    v = _householder_vectors(np.pad(k, (0, m - k.size))[None, :])[0]
    stack = np.stack(mats + [np.eye(n)] * (m - len(mats)))
    return LcuCircuit(stack, np.eye(m) - 2.0 * np.outer(v, v))


def _check_dims(c: CircuitU, s: StateVector) -> None:
    if s.m_dim != c.m_dim or s.n_dim != c.n_dim:
        raise DimensionError(
            f"state registers ({s.m_dim}, {s.n_dim}) do not match "
            f"circuit ({c.m_dim}, {c.n_dim})"
        )


@functools.cache
def _physical_memory() -> float:
    """Bytes of physical memory, read on first use; inf where the system
    does not report it."""
    import os

    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return math.inf
    return page * pages if min(page, pages) > 0 else math.inf


def _check_fits(dim: int) -> None:
    """ValidationError when a run at embedded dimension dim is estimated to
    need more than physical memory: RUN_BYTES_PER_DIM2 * dim^2 bytes."""
    need, have = RUN_BYTES_PER_DIM2 * dim * dim, _physical_memory()
    if need > have:
        raise ValidationError(f"embedded dimension {dim} needs an estimated {need:,} bytes, "
                              f"more than the {have:,} bytes of physical memory")


def _check_norm(before: float, after: float) -> None:
    """The one norm guard of every apply and iteration: NumericalError when
    the norm drifts by more than NORM_DRIFT_TOL * max(1, before)."""
    if not (abs(after - before) <= NORM_DRIFT_TOL * max(1.0, before)):
        raise NumericalError("circuit application failed to preserve the norm")


def apply_circuit(c: CircuitU, s: StateVector, inverse: bool = False) -> StateVector:
    """Apply the structured operator (or its inverse as the reversed
    sequence of inverted layers) to a copy of `s`; `s` is never written.
    Preserves the state norm to 1e-12, else raises NumericalError."""
    _check_dims(c, s)
    out = StateVector(s.grid.copy())
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
        (c._inverse if inverse else c._forward)(out.grid, np.empty_like(out.grid))
        _check_norm(s.norm(), out.norm())
    return out


def _good_mass(good: np.ndarray) -> tuple[float, np.ndarray | None]:
    """(p, g / sqrt(p)) for good amplitudes g, p = sum g^2, read off g / 2^e (see
    _pow2_scaled): no square overflows, and normal-range values are the plain
    formulas' bit for bit. The unit vector is None unless GOOD_MASS_FLOOR <= p < inf."""
    scaled, e = _pow2_scaled(good)
    with np.errstate(over="ignore"):  # overflow reads inf; a NaN leaves the scale at 1
        mass = float((scaled * scaled).sum())
        prob = float(np.ldexp(mass, 2 * e))
    if not (GOOD_MASS_FLOOR <= prob < math.inf):
        return prob, None
    return prob, scaled / math.sqrt(mass)


def collapse_good(c: CircuitU, s: StateVector) -> tuple[np.ndarray, float]:
    """Project onto the good states and renormalize: the next input of a
    chain. Returns (collapsed, probability), probability being the squared
    amplitude mass on good states. Amplification runs read their records
    through amplification._record_good instead, which also projects.
    """
    _check_dims(c, s)
    prob, collapsed = _good_mass(c.good_first(s.grid)[0])
    if collapsed is None:
        raise NoGoodAmplitudeError(f"amplitude mass {prob!r} on the good states "
                                   f"is not in [{GOOD_MASS_FLOOR}, inf)")
    return collapsed, prob


def prepare_input(c: CircuitU, system) -> StateVector:
    """Build the canonical input state: the unit vector `system` on the data
    register with the good register fixed at index 0."""
    vec = _float_array(system, "input vector").ravel()
    if not np.isfinite(vec).all():
        raise ValidationError("input vector has a non-finite entry")
    _check_unit_norm(vec, "input")
    x = np.zeros((c.m_dim, c.n_dim))
    v = c.good_first(x)
    if vec.size != v.shape[1]:
        raise DimensionError(f"input length {vec.size} != data dim {v.shape[1]}")
    v[0] = vec
    return StateVector(x)


@dataclass(frozen=True, eq=False)
class Encoded:
    """A matrix made ready for amplification: its estimated embedding, the
    row-encoding circuit of the embedded operator, the prepared input
    state and the fidelity target, whose length alone records the
    fidelity mode (see oblivious_aa)."""

    embedding: Embedding
    circuit: RowEncodingCircuit
    state: StateVector
    target: np.ndarray


def encode(a, vec, fidelity_mode: str = FIDELITY_MODES[0]) -> Encoded:
    """Scale the symmetric matrix `a` by mu, embed it, build its row
    encoding, and prepare the unit vector `vec` as the circuit input: the
    matrix half _encode_matrix followed by the input half _encode_input.

    A vec of the matrix order is placed in the top half of the embedded
    space; one of the embedded order is taken as is, in embedded mode
    only. The target is U @ input in embedded mode and (a / mu) @ vec in
    projected mode; fidelity_mode is one of FIDELITY_MODES, the first by default.
    """
    _check_choice(fidelity_mode, FIDELITY_MODES, "fidelity_mode")
    return _encode_input(_encode_matrix(a), vec, fidelity_mode)


def _encode_matrix(a) -> tuple:
    """encode's matrix half: (the embedding of a / mu, its row encoding).
    The order of a must be a power of two, as the embedding doubles it."""
    normalized, mu = mu_normalize(a)
    if not _is_power_of_two(normalized.shape[0]):
        raise ValidationError(f"matrix order {normalized.shape[0]} is not a power of two")
    _check_fits(2 * normalized.shape[0])
    emb = build_estimated_embedding(normalized, mu)
    return emb, build_row_encoding(emb.u)


def _encode_input(matrix: tuple, vec, fidelity_mode: str) -> Encoded:
    """encode's input half, on an _encode_matrix result and a checked mode;
    a / mu is the embedding's top-left block."""
    emb, circ = matrix
    vec = _float_array(vec, "input vector").ravel()
    order = emb.order // 2
    project = fidelity_mode == "projected"
    lengths = (order,) if project else (order, 2 * order)
    if vec.size not in lengths:
        raise DimensionError(f"{fidelity_mode} mode needs an input length in {lengths}, "
                             f"got {vec.size}")
    padded = np.zeros(2 * order)
    padded[: vec.size] = vec
    state = prepare_input(circ, padded)
    target = emb.u[:order, :order] @ vec if project else emb.u @ padded
    return Encoded(emb, circ, state, target)


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
