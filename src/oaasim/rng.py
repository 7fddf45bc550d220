"""Deterministic 64-bit generator used for every random draw in the package.

The generator is SplitMix64, defined by its published recurrence: the state
advances by the odd constant 0x9E3779B97F4A7C15 and each output is the
advanced state passed through the finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic modulo 2^64. Outputs map to floats by taking the top
53 bits: uniform() = (z >> 11) * 2^-53 in [0, 1), and the signed variant
is 2 u - 1 in [-1, 1). Because the i-th output depends only on seed and i,
draws can be produced in vectorized batches and independent streams can be
derived per (dimension, trial) without any sequential coupling, which keeps
parallel experiment runs reproducible. Seeds and stream indices are
integers in [0, 2^64); anything else raises ValidationError.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import _check_count

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _check_seed(n, name: str) -> int:
    """n as an int, refused unless it is an integer in [0, 2^64)."""
    n = _check_count(n, name, 0)
    if n > _MASK:
        raise ValidationError(f"{name} must be below 2**64, got {n}")
    return n


def derive_seed(seed: int, *indices: int) -> int:
    """Stream derivation: fold each index into the seed through the
    finalizer. Used to give every (dimension, trial, purpose) combination
    its own independent generator."""
    h = _check_seed(seed, "seed")
    for v in indices:
        h = mix64((h + _GAMMA + _check_seed(v, "seed index")) & _MASK)
    return h


class SplitMix64:
    """Counter-based generator; output i is mix64(seed + (i+1) * gamma)."""

    def __init__(self, seed: int):
        self._state = _check_seed(seed, "seed")

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_signed(self) -> float:
        return 2.0 * self.uniform() - 1.0

    def uniform_signed_array(self, count: int) -> np.ndarray:
        """Vectorized batch of uniform draws in [-1, 1); advances the state
        exactly as `count` scalar calls would."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return np.zeros(0)
        with np.errstate(over="ignore"):
            steps = np.arange(1, count + 1, dtype=np.uint64)
            z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        self._state = (self._state + count * _GAMMA) & _MASK
        u = (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        return 2.0 * u - 1.0
