"""Amplitude amplification over structured block-encoding circuits.

The oblivious iterate needs nothing but the circuit and one fixed
reflection about the good states, so it can run without knowing the input,
which is what makes chains of encoded operators composable. It comes in
two variants: "literal" uses Q = -U S U S with the circuit applied forward
both times; "adjoint" uses Q = -U S U^-1 S, the form whose behavior on an
orthogonal encoded matrix follows the exact closed form
p_i = sin((2i+1) arcsin(1/sqrt(M)))^2. The variants coincide whenever the
dense circuit operator is symmetric.

The standard (input-dependent) iterate is also provided; it reflects about
the prepared start state and therefore needs the input preparation
operator, but it works for any circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    CircuitU,
    StateVector,
    apply_circuit,
    apply_good_reflection,
    collapse_good,
)
from .errors import DimensionError, ValidationError
from .metrics import fidelity

VARIANTS = ("literal", "adjoint")


@dataclass(frozen=True)
class TraceRecord:
    """Probability and fidelity after one iteration. The fields, in order,
    are the columns of the amplify trace CSV table."""

    iteration: int
    probability: float
    fidelity: float


@dataclass
class IterationTrace:
    """Per-iteration success probability and fidelity; iteration 0 is the
    state right after the circuit, before any amplification."""

    records: list[TraceRecord] = field(default_factory=list)
    k_target: int = 0
    variant: str = "literal"

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
    if m < 1:
        raise ValidationError(f"register dimension must be at least 1, got {m}")
    return int(math.floor(math.pi / 4.0 * math.sqrt(m)))


def _check_good_component(c: CircuitU, s: StateVector) -> None:
    x = s.reshaped()
    rest = x[1:, :] if c.good_register == "first" else x[:, 1:]
    if rest.size and float(np.abs(rest).max()) > 1e-12:
        raise ValidationError("input must have its good-register component at index 0")


def _record(c, state, target, project, iteration) -> TraceRecord:
    collapsed, prob = collapse_good(c, state, project_system_zero=project)
    return TraceRecord(iteration=iteration, probability=prob,
                       fidelity=fidelity(collapsed, target))


def oblivious_aa(c: CircuitU, input_state: StateVector, k: int, variant: str,
                 target, project_system_zero: bool = False,
                 return_final_state: bool = False):
    """Run the oblivious amplification iterate k times and trace it.

    The input must carry the good register at index 0. The circuit is
    applied once, the (probability, fidelity against `target`) pair is
    recorded, then each iteration applies the reflection, the circuit
    (inverted for the adjoint variant), the reflection again, the circuit,
    and finally the literal global -1 phase of the iterate. Fidelity takes
    an absolute value, so the phase never shows up in the records.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    if k < 0:
        raise ValidationError("iteration count must be nonnegative")
    _check_good_component(c, input_state)
    state = apply_circuit(c, input_state)
    trace = IterationTrace(k_target=k, variant=variant)
    trace.records.append(_record(c, state, target, project_system_zero, 0))
    for i in range(1, k + 1):
        state = apply_good_reflection(c, state)
        state = apply_circuit(c, state, inverse=(variant == "adjoint"))
        state = apply_good_reflection(c, state)
        state = apply_circuit(c, state)
        state = StateVector(-state.amplitudes, state.m_dim, state.n_dim)
        trace.records.append(_record(c, state, target, project_system_zero, i))
    if return_final_state:
        return trace, state
    return trace


def _apply_on_data_register(c: CircuitU, s: StateVector, p: np.ndarray) -> StateVector:
    x = s.reshaped()
    if c.good_register == "second":
        x = p @ x
    else:
        x = x @ p.T
    return StateVector(np.ascontiguousarray(x).ravel(), c.m_dim, c.n_dim)


def standard_aa(c: CircuitU, input_prep, k: int, target,
                return_final_state: bool = False):
    """Input-dependent amplitude amplification.

    input_prep is an orthogonal operator on the data register mapping e0 to
    the desired input. Each iteration applies the good-state reflection,
    then the reflection about the prepared start state, implemented as
    conjugating the reflection about the all-zero basis state by
    (circuit o preparation).
    """
    prep = np.asarray(input_prep, dtype=float)
    data_dim = c.m_dim if c.good_register == "second" else c.n_dim
    if prep.shape != (data_dim, data_dim):
        raise DimensionError(
            f"input_prep must be {data_dim} x {data_dim}, got {prep.shape}"
        )
    if not (float(np.abs(prep.T @ prep - np.eye(data_dim)).max()) <= 1e-10):
        raise ValidationError("input_prep is not orthogonal within 1e-10")
    if k < 0:
        raise ValidationError("iteration count must be nonnegative")

    def b_apply(s: StateVector) -> StateVector:
        return apply_circuit(c, _apply_on_data_register(c, s, prep))

    def b_inverse(s: StateVector) -> StateVector:
        return _apply_on_data_register(c, apply_circuit(c, s, inverse=True), prep.T)

    start = np.zeros(c.m_dim * c.n_dim)
    start[0] = 1.0
    state = b_apply(StateVector(start, c.m_dim, c.n_dim))
    trace = IterationTrace(k_target=k, variant="standard")
    trace.records.append(_record(c, state, target, False, 0))
    for i in range(1, k + 1):
        state = apply_good_reflection(c, state)
        state = b_inverse(state)
        amps = -state.amplitudes
        amps[0] = -amps[0]
        state = b_apply(StateVector(amps, state.m_dim, state.n_dim))
        trace.records.append(_record(c, state, target, False, i))
    if return_final_state:
        return trace, state
    return trace
