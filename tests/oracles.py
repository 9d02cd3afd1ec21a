"""Reference algorithms of the tests that the package does not run: the
nonsymmetric eigenvalue solver, since a Stein Gramian certifies stability
there (`rclift.linalg.observability_gramian`), the pivoted Gram-Schmidt
loop that `rclift.linalg._canonical_basis` replaced, and the numerical
null space of the intertwining equation that the closed forms of
`rclift.generators` replaced, and the colligation of a realization that
`rclift.redheffer.kyp_norm` bounds."""

import numpy as np


def spectral_radius(m) -> float:
    """max |eigenvalue| of a square matrix; 0 for a 0 x 0 matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def pivoted_gram_schmidt(p, rank: int) -> np.ndarray:
    """Orthonormal basis of the range of a projector p: take the remaining
    column with the largest residual norm (lowest index on ties),
    orthogonalize it twice, and fix its phase so the largest entry is real
    positive."""
    n = p.shape[0]
    basis = np.zeros((n, rank), dtype=complex)
    cols = np.array(p, dtype=complex)
    remaining = list(range(n))
    for k in range(rank):
        pick = remaining[int(np.argmax(np.linalg.norm(cols[:, remaining], axis=0)))]
        v = cols[:, pick] / np.linalg.norm(cols[:, pick])
        v -= basis[:, :k] @ (basis[:, :k].conj().T @ v)
        v /= np.linalg.norm(v)
        i = int(np.argmax(np.abs(v)))
        basis[:, k] = v * np.conj(v[i]) / abs(v[i])
        remaining.remove(pick)
        for j in remaining:
            cols[:, j] -= basis[:, k] * (basis[:, k].conj() @ cols[:, j])
    return basis


def intertwining_nullspace(t_prime, r, q, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the null space of A -> T' A R - A Q, columns as
    row-major flattened h' x h matrices, from a full SVD of its Kronecker
    matrix: vec(T' A R - A Q) = (T' kron R^T - I kron Q^T) vec(A)."""
    h_prime, h = t_prime.shape[0], r.shape[0]
    k = np.kron(t_prime, r.T) - np.kron(np.eye(h_prime), q.T)
    if k.shape[0] == 0:
        return np.eye(h_prime * h, dtype=complex)
    _, s, vh = np.linalg.svd(k)
    rank = int(np.sum(s > rtol * s[0])) if s.size and s[0] > 0 else 0
    return vh[rank:].conj().T


def colligation(rc) -> np.ndarray:
    """The system matrix [[X1, X2], [X3, 0], [X4, X5]] of a realization,
    mapping (state, parameter output) to (next state, parameter input,
    dilation defect output)."""
    return np.block([
        [rc.x1, rc.x2],
        [rc.x3, np.zeros((rc.x3.shape[0], rc.x2.shape[1]), dtype=complex)],
        [rc.x4, rc.x5],
    ])
