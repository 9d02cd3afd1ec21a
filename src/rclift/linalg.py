"""Dense complex-matrix kernel.

Everything in the package runs through this module: products and adjoints
are plain numpy, while the structured operations here (PSD square roots,
spectral radii, canonical subspace bases, HPD solves) carry the tolerance
policy.  All matrices are complex128 throughout; real data is treated as a
special case of complex.  Zero-dimensional matrices (0 x n, n x 0) are
legal and behave as empty linear maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NotHermitian,
    NotPositiveDefinite,
)

# Relative eigenvalue / singular value cutoff used for rank decisions and
# for clamping PSD rounding noise.  Test instances keep their spectral gaps
# far away from this threshold.
RANK_RTOL = 1e-10


def cmatrix(a) -> np.ndarray:
    """Coerce input to a 2-d complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    if m.size and not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def adj(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=complex)


def operator_norm(m) -> float:
    """Largest singular value; 0 for zero-dimensional matrices."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def spectral_radius(m) -> float:
    """max |eigenvalue| of a square matrix."""
    m = cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"spectral radius needs a square matrix, got {m.shape}")
    if m.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _require_hermitian(m: np.ndarray, tol: float, message: str) -> None:
    """Raise NotHermitian when ||m - m*||_2 > tol * max(||m||_2, 1).

    The Frobenius test ||m - m*||_F <= tol/2 * max(||m||_F / sqrt(n), 1)
    settles most inputs without an SVD: ||.||_2 <= ||.||_F and
    ||m||_2 >= ||m||_F / sqrt(n) make it sufficient, and the factor 1/2
    leaves room for the rounding of both norms.  Only the inputs it does
    not settle pay the two SVDs of the exact rule, so the verdict is the
    exact rule's on every input.
    """
    n = m.shape[0]
    if n == 0:
        return
    anti = m - adj(m)
    bound = 0.5 * tol * max(float(np.linalg.norm(m)) / np.sqrt(n), 1.0)
    if float(np.linalg.norm(anti)) <= bound:
        return
    if operator_norm(anti) > tol * max(operator_norm(m), 1.0):
        raise NotHermitian(message)


def hermitian_eig(m: np.ndarray, tol: float = RANK_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, with a Hermiticity check.

    Returns (w, v) with m = v @ diag(w) @ v*.  Raises NotHermitian when the
    anti-Hermitian part exceeds tol * ||m||.
    """
    m = cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {m.shape}")
    _require_hermitian(m, tol, f"anti-Hermitian part exceeds {tol:g} * ||m||")
    w, v = np.linalg.eigh(0.5 * (m + adj(m)))
    return w, v.astype(complex)


def psd_sqrt(m, tol: float = RANK_RTOL) -> np.ndarray:
    """Positive square root of a Hermitian PSD matrix.

    Eigenvalues in [-tol*||m||, 0) are treated as rounding noise and
    clamped to zero; anything below that raises NegativeEigenvalue.
    """
    w, v = hermitian_eig(m, tol=tol)
    if w.size == 0:
        return np.asarray(m, dtype=complex).copy()
    scale = float(np.max(np.abs(w)))
    if np.any(w < -tol * max(scale, 1.0)):
        raise NegativeEigenvalue(f"min eigenvalue {w.min():.3e} below clamp threshold")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ adj(v)
    return 0.5 * (root + adj(root))


def solve_hpd(m, b) -> np.ndarray:
    """Solve m @ x = b for Hermitian positive definite m via Cholesky."""
    m = cmatrix(m)
    b = np.asarray(b, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {m.shape}")
    if m.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"rhs rows {b.shape[0]} != matrix size {m.shape[0]}")
    _require_hermitian(m, RANK_RTOL, "solve_hpd requires a Hermitian matrix")
    if m.shape[0] == 0:
        return b.copy()
    try:
        factor = scipy.linalg.cho_factor(0.5 * (m + adj(m)), lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - alias in scipy
        raise NotPositiveDefinite(str(exc)) from exc
    return scipy.linalg.cho_solve(factor, b)


def inv_hpd(m) -> np.ndarray:
    """Inverse of a Hermitian positive definite matrix."""
    m = cmatrix(m)
    return solve_hpd(m, eye(m.shape[0]))


def rank_from_singular_values(s: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Rank from descending singular values with a relative cutoff.

    The one rank rule of the package: callers that already hold the
    singular values of a matrix take its rank here instead of running a
    second SVD.
    """
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


@dataclass(frozen=True)
class SubspaceEmbedding:
    """Orthonormal column basis of a subspace of C^ambient_dim.

    The basis matrix plays the role of the adjoint of the canonical
    projection onto the subspace: ``basis.conj().T @ x`` gives subspace
    coordinates and ``basis @ c`` embeds them back.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = cmatrix(self.basis)
        if b.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis has {b.shape[0]} rows, ambient dimension is {self.ambient_dim}"
            )
        if b.shape[1] > self.ambient_dim:
            raise DimensionMismatch("more basis columns than ambient dimensions")
        gram = adj(b) @ b
        if operator_norm(gram - eye(b.shape[1])) > 1e-10:
            raise ValueError("basis columns are not orthonormal within 1e-10")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace, as an ambient operator."""
        return self.basis @ adj(self.basis)

    def coords(self, m: np.ndarray) -> np.ndarray:
        """Compress ambient rows to subspace coordinates."""
        return adj(self.basis) @ m


def _canonical_basis_from_projector(p: np.ndarray, rank: int) -> np.ndarray:
    """Deterministic orthonormal basis of the range of a projector.

    Pivoted Gram-Schmidt over the projector columns: at each step take the
    remaining column with the largest residual norm (lowest index on ties),
    orthogonalize twice, and fix the phase so the largest entry is real
    positive.  Exactly diagonal 0/1 projectors therefore yield coordinate
    vectors in index order, which keeps structured kernel bases literal.
    """
    n = p.shape[0]
    basis = np.zeros((n, rank), dtype=complex)
    cols = p.astype(complex).copy()
    remaining = list(range(n))
    for k in range(rank):
        norms = np.linalg.norm(cols[:, remaining], axis=0)
        pick = remaining[int(np.argmax(norms))]
        v = cols[:, pick].copy()
        v /= np.linalg.norm(v)
        if k:
            v -= basis[:, :k] @ (adj(basis[:, :k]) @ v)
            v /= np.linalg.norm(v)
        i = int(np.argmax(np.abs(v)))
        v *= np.conj(v[i]) / abs(v[i])
        basis[:, k] = v
        remaining.remove(pick)
        for j in remaining:
            cols[:, j] -= v * (v.conj() @ cols[:, j])
    return basis


def psd_sqrt_and_range(m, rtol: float = RANK_RTOL) -> tuple[np.ndarray, SubspaceEmbedding]:
    """PSD square root with noise-rank control, plus its range embedding.

    Rank decisions happen on the eigenvalues of m itself (relative to
    max(||m||, 1)), not on their square roots: a zero defect contaminated
    by 1e-15 rounding would otherwise grow 1e-8 singular values that pass
    any relative cutoff after the square root.  Sub-threshold eigenvalues
    are zeroed in the root, so its range equals the embedded subspace.
    """
    w, v = hermitian_eig(m, tol=rtol)
    n = w.size
    if n == 0:
        return np.asarray(m, dtype=complex).copy(), SubspaceEmbedding(0, zeros(0, 0))
    scale = max(float(np.max(np.abs(w))), 1.0)
    if float(w[0]) < -rtol * scale:
        raise NegativeEigenvalue(f"min eigenvalue {w[0]:.3e} below clamp threshold")
    keep = w > rtol * scale
    root = (v * np.where(keep, np.sqrt(np.clip(w, 0.0, None)), 0.0)) @ adj(v)
    root = 0.5 * (root + adj(root))
    r = int(np.count_nonzero(keep))
    if r == 0:
        return root, SubspaceEmbedding(n, zeros(n, 0))
    vk = v[:, keep]
    basis = _canonical_basis_from_projector(vk @ adj(vk), r)
    return root, SubspaceEmbedding(n, basis)


def _left_singular_basis(m: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """Leading left singular vectors spanning the column space, and the rank,
    from one SVD."""
    if m.size == 0:
        return zeros(m.shape[0], 0), 0
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    r = rank_from_singular_values(s, rtol)
    return u[:, :r], r


def range_embedding(m, rtol: float = RANK_RTOL) -> SubspaceEmbedding:
    """Canonical orthonormal basis of the column space of m."""
    m = cmatrix(m)
    n = m.shape[0]
    u, r = _left_singular_basis(m, rtol)
    if r == 0:
        return SubspaceEmbedding(n, zeros(n, 0))
    return SubspaceEmbedding(n, _canonical_basis_from_projector(u @ adj(u), r))


def kernel_embedding(m, rtol: float = RANK_RTOL) -> SubspaceEmbedding:
    """Canonical orthonormal basis of Ker(m*), the left null space of m."""
    m = cmatrix(m)
    n = m.shape[0]
    u, r = _left_singular_basis(m, rtol)
    k = n - r
    if k == 0:
        return SubspaceEmbedding(n, zeros(n, 0))
    if r == 0:
        return SubspaceEmbedding(n, _canonical_basis_from_projector(np.eye(n, dtype=complex), n))
    p = np.eye(n, dtype=complex) - u @ adj(u)
    return SubspaceEmbedding(n, _canonical_basis_from_projector(p, k))


def min_singular_value(m) -> float:
    """Smallest singular value; +inf for matrices with no columns."""
    m = np.asarray(m, dtype=complex)
    if m.shape[1] == 0:
        return float("inf")
    if m.shape[0] == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def min_eig_hermitian(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix; +inf when 0-dimensional."""
    w, _ = hermitian_eig(m)
    if w.size == 0:
        return float("inf")
    return float(w[0])


# --- seeded random material -------------------------------------------------

def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex Gaussian matrix with unit-variance entries."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    if n == 0:
        return zeros(0, 0)
    q, r = np.linalg.qr(ginibre(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))

