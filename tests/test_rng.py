"""Generator reproducibility: reference outputs, scalar versus vectorized
agreement, and stream derivation."""

import numpy as np
import pytest

from oaasim import SplitMix64, ValidationError, derive_seed, mix64


def test_reference_outputs_from_seed_zero():
    # first three outputs of the published generator for seed 0
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    assert gen.next_u64() == 0x06C45D188009454F


def test_mix64_matches_pure_python_recurrence():
    mask = (1 << 64) - 1

    def reference(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    for z in (0, 1, 0xDEADBEEF, mask, 0x9E3779B97F4A7C15):
        assert mix64(z) == reference(z)


def test_vectorized_batch_equals_scalar_sequence():
    scalar = SplitMix64(987654321)
    batch = SplitMix64(987654321)
    expected = np.array([scalar.uniform_signed() for _ in range(257)])
    got = batch.uniform_signed_array(257)
    assert np.array_equal(expected, got)
    # both generators continue identically after the batch
    assert scalar.next_u64() == batch.next_u64()


def test_uniform_ranges():
    gen = SplitMix64(42)
    us = [gen.uniform() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in us)
    signed = SplitMix64(42).uniform_signed_array(1000)
    assert signed.min() >= -1.0
    assert signed.max() < 1.0
    # same seed reproduces the same stream
    again = SplitMix64(42).uniform_signed_array(1000)
    assert np.array_equal(signed, again)


def test_batch_edge_cases():
    gen = SplitMix64(5)
    assert gen.uniform_signed_array(0).size == 0
    with pytest.raises(ValueError):
        gen.uniform_signed_array(-1)


def test_derived_streams_differ():
    base = derive_seed(0, 16, 3, 0)
    other = derive_seed(0, 16, 3, 1)
    assert base != other
    assert derive_seed(0, 16, 3, 0) == base
    a = SplitMix64(base).uniform_signed_array(32)
    b = SplitMix64(other).uniform_signed_array(32)
    assert not np.array_equal(a, b)
    # argument order matters
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)


@pytest.mark.parametrize("make", [
    lambda: SplitMix64(2.5), lambda: SplitMix64(-1), lambda: SplitMix64(2**64),
    lambda: SplitMix64(np.int64(-1)), lambda: SplitMix64(True),
    lambda: derive_seed(1, 2.5), lambda: derive_seed(-1, 0), lambda: derive_seed(0, -1),
    lambda: derive_seed(0, 2**64), lambda: derive_seed(2.0),
])
def test_seeds_and_indices_outside_64_bits_are_refused(make):
    # a float index aliased its integer part, a negative seed its 64-bit mask
    with pytest.raises(ValidationError):
        make()


def test_seed_range_ends_are_accepted():
    top = 2**64 - 1
    assert SplitMix64(np.uint64(top)).next_u64() == SplitMix64(top).next_u64()
    assert derive_seed(np.int64(7), np.uint64(top)) == derive_seed(7, top)
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
