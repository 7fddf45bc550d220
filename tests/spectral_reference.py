"""Spectral oracle for the adjoint oblivious iterate on a row encoding.

In the row encoding the good block of the circuit W is U / sqrt(M), U the
symmetric embedded operator of order M, so the adjoint iterate
-W R W^T R is the qubitization walk (Low and Chuang, arXiv:1610.06546).
After i iterations the good amplitudes are +-T_{2i+1}(U / sqrt(M)) x for
the padded input x. With U = V diag(lambda) V^T and c = V^T x, the
probability is p_i = sum_j c_j^2 cos^2((2i+1) arccos(lambda_j / sqrt(M))).

The embedded operator is rebuilt here from the matrix and decomposed with
np.linalg.eigh, so nothing is shared with the package's eigen route.
"""

import numpy as np


def embedded_operator(a):
    """U = [[A', D], [D, -A']]: A' is a over its largest row 2-norm and
    D is diagonal with D_ii = sqrt(1 - |row i of A'|^2)."""
    a = np.asarray(a, dtype=float)
    ap = a / np.sqrt((a * a).sum(axis=1).max())
    d = np.diag(np.sqrt(np.clip(1.0 - (ap * ap).sum(axis=1), 0.0, None)))
    return np.block([[ap, d], [d, -ap]])


def adjoint_records(a, vec, k, fidelity_mode):
    """(probability, fidelity) after iterations 0..k of the adjoint iterate
    on the row encoding of the symmetric matrix a, started from the unit
    vector vec (of the matrix order, or of the embedded order in embedded
    mode), with targets as encode builds them."""
    u = embedded_operator(a)
    m, d = u.shape[0], u.shape[0] // 2
    vec = np.asarray(vec, dtype=float)
    x = np.zeros(m)
    x[: vec.size] = vec
    lam, v = np.linalg.eigh(u)
    c = v.T @ x
    theta = np.arccos(np.clip(lam / np.sqrt(m), -1.0, 1.0))
    projected = fidelity_mode == "projected"
    target = u[:d, :d] @ vec if projected else u @ x
    records = []
    for i in range(k + 1):
        good = v @ (np.cos((2 * i + 1) * theta) * c)
        if projected:
            good = good[:d]
        prob = float(good @ good)
        fid = abs(float(good @ target)) / (np.sqrt(prob) * np.linalg.norm(target))
        records.append((prob, fid))
    return records
