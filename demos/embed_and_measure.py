"""Embed a random symmetric matrix and measure how close the embedding is
to an orthogonal matrix.

A real symmetric matrix A is scaled by mu, the square root of its largest
row sum of squares, so every row of A' = A/mu fits inside the unit ball.
The embedded operator

    U = [[A', D], [D, -A']]

uses a diagonal D that tops each row up to unit norm. U is symmetric with
unit rows, but not orthogonal in general; the closeness report quantifies
the gap and predicts the fidelity the amplified circuit can reach.
"""

from oaasim import (
    SplitMix64,
    build_estimated_embedding,
    closeness,
    mu_normalize,
    polar_symmetric,
    random_symmetric,
    spectral_norm_symmetric,
)

order = 8
a = random_symmetric(order, SplitMix64(2024))
normalized, mu = mu_normalize(a)
print(f"drew a {order} x {order} symmetric matrix, scale mu = {mu:.4f}")

emb = build_estimated_embedding(normalized, mu)
report = closeness(emb.u)
print(f"estimated embedding: order {emb.order}")
print(f"  c2  = {report.c2:.6f}   (squared 2-norm distance to orthogonal)")
print(f"  cF  = {report.cF:.6f}   (same in the Frobenius norm)")
print(f"  phi = {report.phi:.6f}  (twice the polar trace, at most {2 * emb.order})")
print(f"  ef  = {report.ef:.6f}   (predicted fidelity floor (1 - c2)^2)")

# closeness reads the spectrum alone; the polar factors are a second route
u_tilde, _ = polar_symmetric(emb.u)
via_polar = (spectral_norm_symmetric(emb.u - u_tilde) ** 2
             / spectral_norm_symmetric(emb.u) ** 2)
print(f"  c2 via the polar route = {via_polar:.6f} "
      f"(gap {abs(report.c2 - via_polar):.2e})")
