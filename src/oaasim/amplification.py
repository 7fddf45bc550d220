"""Amplitude amplification over structured block-encoding circuits.

The oblivious iterate needs nothing but the circuit and one fixed
reflection about the good states, so it can run without knowing the input,
which is what makes chains of encoded operators composable. It comes in
two variants: "literal" uses Q = -U S U S with the circuit applied forward
both times; "adjoint" uses Q = -U S U^-1 S, the form whose behavior on an
orthogonal encoded matrix follows the exact closed form
p_i = sin((2i+1) arcsin(1/sqrt(M)))^2, and which runs U S U^-1 as one
image reflection (apply_image_reflection, O(M N) for the row encoding).
On any row encoding the adjoint iterate is the qubitization walk (Low and
Chuang, arXiv:1610.06546): the good block is U/sqrt(M) with U symmetric,
so after i iterations the good amplitudes are +-T_{2i+1}(U/sqrt(M)) x
and, with U = V diag(lambda) V^T and c = V^T x,
p_i = sum_j c_j^2 cos((2i+1) arccos(lambda_j/sqrt(M)))^2. The closed form
above is the case |lambda_j| = 1; the tests use the sum as an oracle.
The variants coincide whenever the dense circuit operator is symmetric.

The standard (input-dependent) iterate is also provided; it reflects about
the prepared start state s = U P |0> and therefore needs the input
preparation operator P, but it works for any circuit. That reflection,
U P (2|0><0| - I) P^T U^-1, is 2 s s^T - I: O(M N) after one apply.

States are read through the circuit's good_first view of their grid, so
nothing here knows which register a circuit type marks as good. Every
run projects exactly when its target is half the data register, so the
target alone records the fidelity mode; the probability is then the
squared norm of the top half of the good amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    CircuitU,
    StateVector,
    _check_dims,
    _good_mass,
    _norm_preserving,
    apply_circuit,
    apply_good_reflection,
    apply_image_reflection,
)
from .errors import DimensionError, NoGoodAmplitudeError, ValidationError
from .linalg import _check_count, _check_orthogonal, _check_unit_norm, _float_array
from .metrics import fidelity

VARIANTS = ("literal", "adjoint")


@dataclass(frozen=True)
class TraceRecord:
    """Probability and fidelity after one iteration. The fields, in order,
    are the columns of the amplify trace CSV table. The probability is the
    squared norm of the good amplitudes, only their top half when the
    target is half the data register; fidelity compares that with the target.

    Below GOOD_MASS_FLOOR there is nothing to collapse: the record holds
    probability 0.0 and fidelity 0.0, the trace goes on, and
    IterationTrace.peak picks such a record only when no iteration has
    mass. A non-finite good amplitude raises NoGoodAmplitudeError.
    """

    iteration: int
    probability: float
    fidelity: float


@dataclass
class IterationTrace:
    """Per-iteration success probability and fidelity; iteration 0 is the
    state right after the circuit, before any amplification."""

    records: list[TraceRecord] = field(default_factory=list)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    @property
    def peak(self) -> TraceRecord:
        """Record at the iteration where the success probability is
        highest; the earliest such iteration on ties. The probability can
        top out before the last iteration, and the fidelity only decays
        past that point, so the peak is where a run would stop."""
        return max(self.records, key=lambda r: (r.probability, -r.iteration))


def iteration_count(m: int) -> int:
    """Number of amplification iterations that approximately maximizes the
    good-state probability: floor(pi/4 * sqrt(M))."""
    m = _check_count(m, "register dimension", 1)
    return int(math.floor(math.pi / 4.0 * math.sqrt(m)))


def _check_input_state(c: CircuitU, s: StateVector) -> None:
    _check_dims(c, s)
    if not np.isfinite(s.grid).all():
        raise ValidationError("input state has a non-finite amplitude")
    rest = c.good_first(s.grid)[1:]
    if rest.size and not (float(np.abs(rest).max()) <= 1e-12):
        raise ValidationError("input must have its good-register component at index 0")
    _check_unit_norm(s.grid, "input state")


def _record(c, state, target, iteration) -> TraceRecord:
    good = c.good_first(state.grid)[0]
    if not np.isfinite(good).all():
        raise NoGoodAmplitudeError("a good amplitude is not finite")
    if 2 * np.size(target) == good.size:
        good = good[: good.size // 2]
    prob, unit = _good_mass(good)
    if unit is None:
        return TraceRecord(iteration=iteration, probability=0.0, fidelity=0.0)
    return TraceRecord(iteration=iteration, probability=prob, fidelity=fidelity(unit, target))


def oblivious_aa(c: CircuitU, input_state: StateVector, k: int, variant: str,
                 target, return_final_state: bool = False):
    """Run the oblivious amplification iterate k times and trace it.

    The input must be a finite state of the circuit's shape with its good
    register at index 0 and norm 1 within 1e-12, as prepare_input makes it.
    The circuit is applied once, the (probability, fidelity against
    `target`) pair is recorded, then each iteration applies the reflection,
    the circuit (inverted for the adjoint variant), the reflection again,
    the circuit, and finally the literal global -1 phase of the iterate
    (the adjoint runs the middle three as one image reflection). Fidelity
    takes an absolute value, so the phase never shows up in the records.

    A target half as long as the data register selects projected fidelity,
    any other length embedded fidelity (see TraceRecord).
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    k = _check_count(k, "iteration count", 0)
    _check_input_state(c, input_state)
    state = apply_circuit(c, input_state)  # the run's one state grid
    trace = IterationTrace()
    trace.records.append(_record(c, state, target, 0))
    for i in range(1, k + 1):
        apply_good_reflection(c, state, out=state)
        if variant == "adjoint":
            apply_image_reflection(c, state, out=state)
        else:
            apply_circuit(c, state, out=state)
            apply_good_reflection(c, state, out=state)
            apply_circuit(c, state, out=state)
        np.negative(state.grid, out=state.grid)
        trace.records.append(_record(c, state, target, i))
    if return_final_state:
        return trace, state
    return trace


def standard_aa(c: CircuitU, input_prep, k: int, target,
                return_final_state: bool = False):
    """Input-dependent amplitude amplification.

    input_prep is an orthogonal operator on the data register mapping e0 to
    the desired input. Each iteration applies the good-state reflection,
    then the reflection about the prepared start state s, 2 s s^T - I with
    s taken at unit norm; a projected target projects as in oblivious_aa.
    """
    prep = _float_array(input_prep, "input_prep")
    start = np.zeros((c.m_dim, c.n_dim))
    data_dim = c.good_first(start).shape[1]
    if prep.shape != (data_dim, data_dim):
        raise DimensionError(
            f"input_prep must be {data_dim} x {data_dim}, got {prep.shape}"
        )
    _check_orthogonal(prep, "input_prep")
    k = _check_count(k, "iteration count", 0)

    c.good_first(start)[0] = prep[:, 0]  # P |0>
    state = StateVector(start)
    apply_circuit(c, state, out=state)
    unit = state.grid / state.norm()  # s

    def reflect_about_start(x, out, _scratch):  # 2 s s^T - I
        np.subtract((2.0 * float(unit.ravel() @ x.ravel())) * unit, x, out=out)

    trace = IterationTrace()
    trace.records.append(_record(c, state, target, 0))
    for i in range(1, k + 1):
        apply_good_reflection(c, state, out=state)
        _norm_preserving(c, reflect_about_start, state, state)
        trace.records.append(_record(c, state, target, i))
    if return_final_state:
        return trace, state
    return trace
