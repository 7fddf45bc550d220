"""Fidelity between collapsed states and classical targets."""

import math

import numpy as np
import pytest

from oaasim import FIDELITY_MODES, DimensionError, ValidationError, encode, fidelity


def test_hand_values():
    assert fidelity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-15
    )
    assert fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert fidelity([0.6, 0.8], [0.6, 0.8]) == pytest.approx(1.0, abs=1e-15)


def test_sign_and_scale_invariance():
    a = np.array([0.3, -0.7, 0.2])
    b = np.array([-0.9, 2.1, -0.6])  # b = -3a
    assert fidelity(a, b) == pytest.approx(1.0, abs=1e-14)
    assert fidelity(a, 1e6 * a) == pytest.approx(1.0, abs=1e-14)
    assert fidelity(a, b) == fidelity(b, a)


def test_scale_of_the_vectors_is_immaterial():
    # squares of 1e300 overflowed, and a chain whose reference reached
    # 1e300 reported fidelity 0.0 against a matching result
    assert fidelity([1e300, 0.0], [1.0, 0.0]) == 1.0
    assert fidelity([3.0, 4.0], [1e-300, 0.0]) == pytest.approx(0.6, abs=1e-15)
    assert fidelity(np.ldexp([0.6, -0.8], 1000), [0.6, -0.8]) == fidelity([0.6, -0.8], [0.6, -0.8])


def test_rejections():
    with pytest.raises(DimensionError):
        fidelity([1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        fidelity([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValidationError):
        fidelity([1.0, 0.0], [0.0, 0.0])


def test_rejects_non_finite():
    with pytest.raises(ValidationError, match="non-finite"):
        fidelity([math.nan, 1.0], [1.0, 0.0])
    with pytest.raises(ValidationError, match="non-finite"):
        fidelity([1.0, 0.0], [math.inf, 0.0])


def test_mode_names():
    a, vec = np.diag([0.5, -0.25]), [0.6, 0.8]
    for mode in FIDELITY_MODES:
        assert encode(a, vec, mode).target.size == (4 if mode == "embedded" else 2)
    with pytest.raises(ValidationError, match="fidelity_mode must be one of"):
        encode(a, vec, "other")
