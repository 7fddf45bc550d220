"""Fidelity definition shared by the amplification and experiment runners.

Two comparison modes exist for circuits built from block embeddings.
"embedded" compares the full collapsed good vector against the embedded
operator applied to the input. "projected" additionally projects the
system's first qubit to index 0 (the top half of the collapsed vector) and
compares against the original half-size matrix applied to the half-size
input; it belongs to the exact-embedding use case. The mode decides how a
caller builds the target and whether collapse_good projects; the inner
product itself is the same either way.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import _pow2_scaled

FIDELITY_MODES = ("embedded", "projected")


def fidelity(collapsed, target) -> float:
    """Absolute normalized inner product of two nonzero finite real vectors.

    Both arguments are normalized first and the absolute value is taken,
    so scaling either vector (including by -1) never changes the result.
    The norms are taken after linalg._pow2_scaled, so no square overflows.
    """
    u = np.asarray(collapsed, dtype=float).ravel()
    v = np.asarray(target, dtype=float).ravel()
    if u.size != v.size:
        raise DimensionError(f"length mismatch: {u.size} vs {v.size}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValidationError("fidelity of a non-finite vector is undefined")
    (u, _), (v, _) = _pow2_scaled(u), _pow2_scaled(v)
    nu = math.sqrt(float((u * u).sum()))
    nv = math.sqrt(float((v * v).sum()))
    if nu == 0.0 or nv == 0.0:
        raise ValidationError("fidelity of a zero vector is undefined")
    return abs(float(u @ v)) / (nu * nv)


def check_fidelity_mode(mode: str) -> str:
    if mode not in FIDELITY_MODES:
        raise ValidationError(f"unknown fidelity mode {mode!r}")
    return mode
