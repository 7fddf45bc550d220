"""Amplitude amplification over structured block-encoding circuits.

Every iterate runs one loop (_amplify) over a step iterator: record the
state after the circuit, then the good amplitudes each iteration yields.
Every step iterator leaves out the iterate's global -1, so it yields the
good amplitudes up to sign, and checks each iteration's norm against the
previous one's (circuit._check_norm); the loop applies the sign (-1)^k
once, to the final state when it is asked for. Every layer is odd under
round-to-nearest, so the records and the final state are those of the
signed iterate bit for bit. On the grid (_grid_steps) an iteration
reflects about the good states (S) and runs one middle reflection:
- "adjoint": U S U^-1, the image reflection (inverse, S, forward);
- "literal": U S U, the circuit applied forward both times; for the row
  encoding one layer with no register swap (see circuit);
- standard: I - 2 s s^T about the start state s = U P |0>; with the -1
  it is 2 s s^T - I.
The adjoint iterate of a row encoding skips the grid: it runs on the
structured state of the circuit module (RowEncodingCircuit._adjoint_steps),
two matrix-vector products per iteration, and writes the grid only when
the final state is asked for. oblivious_aa picks the route from the
circuit type and the variant.
The two oblivious variants need nothing but the circuit and the fixed
reflection S, so they run without knowing the input, which is what makes
chains of encoded operators composable (Berry et al., arXiv:1312.1414);
the standard iterate needs the input preparation P but works for any
circuit. On an orthogonal encoded matrix the adjoint iterate follows
p_i = sin((2i+1) arcsin(1/sqrt(M)))^2. On any row encoding it is the
qubitization walk (Low and Chuang, arXiv:1610.06546): the good block is
U/sqrt(M) with U symmetric, so after i iterations the good amplitudes are
+-T_{2i+1}(U/sqrt(M)) x and, with U = V diag(lambda) V^T and c = V^T x,
p_i = sum_j c_j^2 cos((2i+1) arccos(lambda_j/sqrt(M)))^2 (the closed form
is the case |lambda_j| = 1; the tests use the sum as an oracle). The
variants coincide whenever the dense circuit operator is symmetric.

States are read through the circuit's good_first view of their grid, so
nothing here knows which register a circuit type marks as good. The
loop refuses a bad target before its first record and scales it once;
it then reads the first len(target) good amplitudes: the top half,
projected, when the target is half the data register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    CircuitU,
    RowEncodingCircuit,
    StateVector,
    _check_dims,
    _check_norm,
    _good_mass,
    apply_circuit,
)
from .errors import DimensionError, NoGoodAmplitudeError, ValidationError
from .linalg import (_check_choice, _check_count, _check_orthogonal, _check_unit_norm,
                     _float_array, _pow2_scaled)

VARIANTS = ("literal", "adjoint")  # the first is the default


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


def _scaled_target(target) -> tuple[np.ndarray, float]:
    """(target / 2^e, its norm), the target as fidelity scales it (see
    linalg._pow2_scaled); a run takes it once, before its first record."""
    scaled, _ = _pow2_scaled(target)
    return scaled, math.sqrt(float((scaled * scaled).sum()))


def _record_good(good, target, iteration) -> TraceRecord:
    """The record of the good amplitudes `good` (of either sign) against
    target = _scaled_target(t): mass and fidelity of its first len(t)
    entries, both read off the one unit vector _good_mass scales them to.
    The fidelity is metrics.fidelity's bit for bit, whose power-of-two
    scaling of that vector cancels in the quotient."""
    scaled, norm = target
    if not np.isfinite(good).all():
        raise NoGoodAmplitudeError("a good amplitude is not finite")
    prob, unit = _good_mass(good[: scaled.size])
    if unit is None:
        return TraceRecord(iteration=iteration, probability=0.0, fidelity=0.0)
    fid = abs(float(unit @ scaled)) / (math.sqrt(float((unit * unit).sum())) * norm)
    return TraceRecord(iteration=iteration, probability=prob, fidelity=fid)


def _grid_steps(c: CircuitU, middle, state: StateVector, k: int):
    """k iterations on the grid of `state`, in place, the -1 left out: the
    good reflection, then the in-place layer middle(x, scratch) under the
    norm guard, with one scratch grid for the run. Yields the good
    amplitudes after each."""
    x = state.grid
    scratch = np.empty_like(x)
    good = c.good_first(x)[0]
    before = state.norm()
    for _ in range(k):
        good *= -1.0
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
            middle(x, scratch)
            after = state.norm()
        _check_norm(before, after)
        before = after
        yield good


def _amplify(c: CircuitU, state: StateVector, steps, target, return_final_state: bool):
    """The one amplification loop. Records `state` (the circuit already
    applied) as iteration 0, then the good amplitudes, of either sign,
    that the iterator `steps` yields after each iteration. Returns the
    trace, and `state` too when return_final_state is set; the steps then
    leave the final state in it up to the sign (-1)^k, applied here. The
    target is checked once, first: a finite, nonzero real array as long
    as the data register or half of it."""
    target = _float_array(target, "target").ravel()
    data_dim = c.good_first(state.grid).shape[1]
    if target.size not in (data_dim, data_dim / 2):
        raise DimensionError(f"target length {target.size} is neither {data_dim} nor half of it")
    if not (np.isfinite(target).all() and target.any()):
        raise ValidationError("target must be finite and nonzero")
    target = _scaled_target(target)
    trace = IterationTrace([_record_good(c.good_first(state.grid)[0], target, 0)])
    for i, good in enumerate(steps, 1):
        trace.records.append(_record_good(good, target, i))
    if return_final_state and len(trace.records) % 2 == 0:  # (-1)^k for odd k
        np.negative(state.grid, out=state.grid)
    return (trace, state) if return_final_state else trace


def oblivious_aa(c: CircuitU, input_state: StateVector, k: int, variant: str,
                 target, return_final_state: bool = False):
    """Run the oblivious amplification iterate k times and trace it.

    The input must be a finite state of the circuit's shape with its good
    register at index 0 and norm 1 within 1e-12, as prepare_input makes it.
    The circuit is applied once, the (probability, fidelity against
    `target`) pair is recorded, then each iteration of the shared loop
    applies the good reflection and the middle reflection (U S U^-1 for
    the adjoint variant, U S U for the literal one, each as one guarded
    step); the iterate's global -1 phase is applied once, to the final
    state. Fidelity takes an absolute value, so the phase never shows up
    in the records. A row encoding's adjoint iterations run on its
    structured state instead of the grid (see the module docstring).

    A target half as long as the data register selects projected fidelity,
    one as long as it embedded fidelity (see TraceRecord). Any other length
    raises DimensionError, and a text, non-finite or zero target
    ValidationError, before the first record.
    """
    _check_choice(variant, VARIANTS, "variant")
    k = _check_count(k, "iteration count", 0)
    _check_input_state(c, input_state)
    state = apply_circuit(c, input_state)
    if variant == "literal":
        steps = _grid_steps(c, c._literal_reflection, state, k)
    elif isinstance(c, RowEncodingCircuit):
        steps = c._adjoint_steps(state, k, return_final_state)
    else:
        steps = _grid_steps(c, c._image_reflection, state, k)
    return _amplify(c, state, steps, target, return_final_state)


def standard_aa(c: CircuitU, input_prep, k: int, target,
                return_final_state: bool = False):
    """Input-dependent amplitude amplification.

    input_prep is an orthogonal operator on the data register mapping e0 to
    the desired input. One allocating apply_circuit on P |0> gives the
    start state s (taken at unit norm), which the shared loop then steps in
    place with the middle reflection I - 2 s s^T: each iteration applies
    the good-state reflection and then 2 s s^T - I, its -1 applied once as
    in oblivious_aa. The target works as in oblivious_aa.
    """
    prep = _float_array(input_prep, "input_prep")
    start = np.zeros((c.m_dim, c.n_dim))
    data_dim = c.good_first(start).shape[1]
    if prep.shape != (data_dim, data_dim):
        raise DimensionError(f"input_prep must be {data_dim} x {data_dim}, got {prep.shape}")
    _check_orthogonal(prep, "input_prep")
    k = _check_count(k, "iteration count", 0)

    c.good_first(start)[0] = prep[:, 0]  # P |0>
    state = apply_circuit(c, StateVector(start))
    unit = state.grid / state.norm()  # s

    def reflect_about_start(x, scratch):  # I - 2 s s^T
        x -= np.multiply(unit, 2.0 * float(unit.ravel() @ x.ravel()), out=scratch)

    steps = _grid_steps(c, reflect_about_start, state, k)
    return _amplify(c, state, steps, target, return_final_state)
