"""Apply matrix products and matrix-function truncations by chaining
embedded circuits.

Each factor gets its own embedding and amplification round; the collapsed
output of one stage is the input of the next. The per-stage mu scales
multiply up into the overall normalization, and the per-stage fidelities
compound into the final one, so short chains of well-conditioned factors
stay accurate.
"""

import math

import numpy as np

from oaasim import (
    SplitMix64,
    chained_product_circuit,
    cos_product_factors,
    exp_product_factors,
    fidelity,
    matrix_function_oracle,
    product_of_factors,
    random_input,
    random_symmetric,
    spectral_norm_symmetric,
)

# classical truncations first: (I + A/k)^k marches toward exp(A)
a = random_symmetric(4, SplitMix64(501))
a = a / (2.0 * spectral_norm_symmetric(a))
oracle = matrix_function_oracle(a, "exp")
print("exp truncation error in the spectral norm:")
for k in (4, 16, 64, 256):
    approx = product_of_factors(exp_product_factors(a, k).factors)
    err = np.linalg.norm(approx - oracle, 2)
    print(f"  k = {k:3d}: {err:.2e}")

# the even cos product vanishes identically at half the identity
half = np.eye(4) / 2.0
prod = product_of_factors(cos_product_factors(half, 4).factors)
print(f"cos truncation at A = I/2: largest entry {np.abs(prod).max():.1f} "
      "(the leading factor pair is exactly zero there)")

# now run the exp truncation as a chain of embedded circuits
print()
print("chained circuits for exp(A), truncation k = 8:")
plan = exp_product_factors(a, 8)
vec = random_input(4, SplitMix64(502))
collapsed, records = chained_product_circuit(plan, vec, "adjoint")
print("  stage   probability   fidelity     mu")
for rec in records:
    print(f"  {rec.stage:5d}   {rec.probability:.9f}   {rec.fidelity:.6f}   "
          f"{rec.mu_scale:.6f}")
reference = np.concatenate([oracle @ vec, np.zeros(4)])
print(f"  final fidelity against exp(A) @ in: "
      f"{fidelity(collapsed, reference):.4f}")
print(f"  product of stage scales: "
      f"{math.prod(r.mu_scale for r in records):.4f}")
