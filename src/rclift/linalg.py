"""Dense complex-matrix kernel.

Everything in the package runs through this module: products and adjoints
are plain numpy, while the structured operations here (PSD square roots,
canonical subspace bases, HPD solves, Stein Gramians) carry the tolerance
policy.  Every PSD root comes from one spectral core, `_psd_root`, and no
other module takes an eigenvector decomposition.  All matrices are
complex128 throughout; real data is treated as a special case of complex.
Zero-dimensional matrices (0 x n, n x 0) are legal and behave as empty
linear maps.  The functions that need a Hermitian matrix take the
Hermitian part (m + m*) / 2 of what they are given and test nothing else
about it: the package passes them only Grams it formed itself, and the
values from files are checked where they are read (`serialize`).

A subspace of C^n is carried as a plain n x r array E with orthonormal
columns, its embedding: E* x gives the coordinates of x, E c embeds them
back, and E E* is the orthogonal projector.  Every such basis comes from
`_canonical_basis` on the orthonormal basis the caller already holds, so
it is orthonormal by construction, depends on the subspace alone, and
coordinates written by one run are read the same way by another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NegativeEigenvalue, NotPositiveDefinite

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
    """Largest singular value of a matrix, or the largest over a (k, r, c)
    stack of matrices; 0 when there are no entries."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[..., 0].max())


def disc_stack(lam) -> np.ndarray:
    """Disc points as a factor that broadcasts against matrices.

    A scalar becomes a (1, 1) array and a 1-d array of k points a
    (k, 1, 1) stack, so an expression in matrices and this factor gives
    one matrix or a stack of k, evaluated point by point; the stacked
    `np.linalg` routines and `matmul` run the same LAPACK and BLAS calls
    on each slice.  ValueError unless every point lies in the open unit
    disc.
    """
    lam = np.asarray(lam)
    if lam.ndim > 1:
        raise DimensionMismatch(f"expected a disc point or a 1-d array of them, got ndim={lam.ndim}")
    if not np.all(np.abs(lam) < 1.0):  # NaN is outside too
        raise ValueError("disc functions are only evaluated inside the open unit disc")
    return lam[..., None, None]


def _hermitian(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + adj(m))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2 of a square matrix; ValueError on a NaN or Inf entry.

    Every matrix the package passes here is a Gram it formed itself, so
    its anti-Hermitian part is rounding, dropped rather than tested.
    """
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {m.shape}")
    h = _hermitian(m)
    if not np.isfinite(h).all():
        raise ValueError("expected finite entries, got NaN or Inf")
    return h


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of the Hermitian part h of m
    (`_hermitian_part`), h = v @ diag(w) @ v*."""
    return np.linalg.eigh(_hermitian_part(m))


def _psd_root(m, rank_cut: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one PSD spectral core: (root, w, v) of a Hermitian PSD matrix,
    with m = v diag(w) v* up to the noise policy and root = v diag(w)^(1/2) v*.

    With s = max(||m||, 1), an eigenvalue below -RANK_RTOL * s raises
    NegativeEigenvalue, and the other negative ones are rounding and become
    0.  The root of a defect (`rank_cut`: `psd_sqrt_and_range`,
    `psd_sqrt_and_inverses`) also zeroes every eigenvalue at or below
    +RANK_RTOL * s, since a zero defect contaminated by 1e-15 rounding would
    grow 1e-8 roots that pass any relative cutoff after the square root.
    `psd_sqrt` has no cut: the root of an ill-conditioned weight such as
    Delta_Omega^-1 keeps its genuine small eigenvalues.
    """
    w, v = hermitian_eig(m)
    if w.size:
        scale = max(float(np.max(np.abs(w))), 1.0)
        if float(w[0]) < -RANK_RTOL * scale:
            raise NegativeEigenvalue(f"min eigenvalue {w[0]:.3e} below clamp threshold")
        w = np.where(w > RANK_RTOL * scale, w, 0.0) if rank_cut else np.clip(w, 0.0, None)
    return _hermitian((v * np.sqrt(w)) @ adj(v)), w, v


def psd_sqrt(m) -> np.ndarray:
    """Positive square root of a Hermitian PSD matrix (no rank cut)."""
    return _psd_root(m, rank_cut=False)[0]


def psd_sqrt_and_inverses(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m^(1/2), m^(-1/2) and m^-1 of a positive definite defect, rank-cut;
    NotPositiveDefinite when an eigenvalue falls to the cut."""
    root, w, v = _psd_root(m, rank_cut=True)
    if not np.all(w > 0.0):
        raise NotPositiveDefinite("the defect has eigenvalues at or below the rank cut")
    return root, _hermitian((v / np.sqrt(w)) @ adj(v)), _hermitian((v / w) @ adj(v))


# The LAPACK routines of `scipy.linalg.cho_factor`/`cho_solve`, called
# directly: those wrappers' argument checks cost several times the Cholesky
# factorization and solve of the small matrices passed here.  `solve_hpd`
# makes the wrappers' calls (lower factor; the cleaned upper triangle is
# never read by `potrs`), so its results are bit-identical, and keeps their
# finiteness check, which `potrf` alone would not make.  `trtrs` is the
# triangular solve behind `solve_factor_adjoint`.
_CHOLESKY_ROUTINES = scipy.linalg.get_lapack_funcs(("potrf", "potrs", "trtrs"), dtype=complex)


def _factor_hpd(m: np.ndarray, lower: bool) -> np.ndarray:
    """Cholesky factor of a Hermitian positive definite m with the other
    triangle zeroed: lower L with m = L L*, or upper W with m = W* W.

    The factor is that of the Hermitian part (`_hermitian_part`, with its
    ValueError on NaN or Inf entries); NotPositiveDefinite when the
    factorization meets a leading minor that is not positive definite.
    """
    h = _hermitian_part(m)
    if h.shape[0] == 0:
        return h
    factor, info = _CHOLESKY_ROUTINES[0](h, lower=lower, overwrite_a=True, clean=True)
    if info > 0:
        raise NotPositiveDefinite(f"{info}-th leading minor of the array is not positive definite")
    return factor


def solve_hpd(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve m @ x = b for Hermitian positive definite m via Cholesky,
    with the errors of `_factor_hpd` and ValueError on a right-hand side
    with NaN or Inf entries."""
    if m.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"rhs rows {b.shape[0]} != matrix size {m.shape[0]}")
    factor = _factor_hpd(m, lower=True)
    if not np.isfinite(b).all():
        raise ValueError("solve_hpd needs finite entries, got NaN or Inf")
    if m.shape[0] == 0:
        return b.copy()
    return _CHOLESKY_ROUTINES[1](factor, b, lower=True)[0]


def hpd_factor(m: np.ndarray) -> np.ndarray:
    """The upper triangular Cholesky factor W of a Hermitian positive
    definite m, m = W* W, with the errors of `_factor_hpd`."""
    return _factor_hpd(m, lower=False)


def solve_factor_adjoint(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W^-* b for an upper triangular W from `hpd_factor`: one triangular
    solve with W* over all columns of b."""
    if w.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"rhs rows {b.shape[0]} != factor size {w.shape[0]}")
    if w.shape[0] == 0:
        return b.copy()
    return _CHOLESKY_ROUTINES[2](w, b, lower=False, trans=2)[0]


def inv_hpd(m: np.ndarray) -> np.ndarray:
    """Inverse of a Hermitian positive definite matrix."""
    return solve_hpd(m, eye(m.shape[0]))


def rank_from_singular_values(s: np.ndarray) -> int:
    """Rank from descending singular values with the relative cutoff RANK_RTOL.

    The one rank rule of the package: callers that already hold the
    singular values of a matrix take its rank here instead of running a
    second SVD.
    """
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


# The LAPACK routines of `scipy.linalg.qr(..., pivoting=True)`, called
# directly: that wrapper's argument checks and two workspace queries cost
# more than the factorization of the small matrices passed here.  With the
# wrappers' default workspace both routines run their unblocked code, which
# LAPACK also runs at scipy's optimal workspace for bases of fewer than 128
# vectors, so those come out bit-identical.
_QR_ROUTINES = scipy.linalg.get_lapack_funcs(("geqp3", "ungqr"), dtype=complex)


def _canonical_basis(u: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the span of orthonormal columns u.

    The identity when u spans the whole space.  Otherwise the pivoted
    Gram-Schmidt of the projector columns u u* e_j, taken from LAPACK's
    column-pivoted QR of u* (whose columns are their coordinates): the
    largest remaining residual first, the first index on ties, then each
    phase fixed so the largest entry is real positive.  The result depends
    on the span only, and exactly diagonal 0/1 projectors give coordinate
    vectors in index order, which keeps structured kernel bases literal.
    """
    n, r = u.shape
    if r in (0, n):
        return eye(n)[:, :r]
    geqp3, ungqr = _QR_ROUTINES
    qr, _, tau, _, _ = geqp3(adj(u))
    q = ungqr(qr[:, :r], tau)[0]
    basis = u @ q
    top = basis[np.argmax(np.abs(basis), axis=0), np.arange(r)]
    return basis * (top.conj() / np.abs(top))


def psd_sqrt_and_range(m) -> tuple[np.ndarray, np.ndarray]:
    """Rank-cut PSD square root of a defect (`_psd_root`) plus a basis of
    its range: the span of the eigenvectors whose eigenvalues clear the cut."""
    root, w, v = _psd_root(m, rank_cut=True)
    return root, _canonical_basis(v[:, w > 0.0])


def range_and_pinv(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical orthonormal basis of the column space of m and the
    pseudoinverse of m, both from one thin SVD and one rank decision."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    r = rank_from_singular_values(s)
    return _canonical_basis(u[:, :r]), (adj(vh[:r]) / s[:r]) @ adj(u[:, :r])


def kernel_embedding(m: np.ndarray) -> np.ndarray:
    """Canonical orthonormal basis of Ker(m*), the left null space of m,
    from one full SVD."""
    u, s, _ = np.linalg.svd(m)
    return _canonical_basis(u[:, rank_from_singular_values(s):])


def min_singular_value(m) -> float:
    """Smallest singular value; +inf for matrices with no columns."""
    if m.shape[1] == 0:
        return float("inf")
    if m.shape[0] == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def min_eig_hermitian(m) -> float:
    """Smallest eigenvalue of the Hermitian part of m, as `hermitian_eig`
    takes it, but with no eigenvectors; +inf when 0-dimensional."""
    h = _hermitian_part(m)
    if h.shape[0] == 0:
        return float("inf")
    return float(np.linalg.eigvalsh(h)[0])


# --- Stein equations ----------------------------------------------------------

STEIN_MAX_DOUBLINGS = 64  # a^(2^64) is past any stable transient


def _stein(a: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve X = a* X a + q for a stack of Hermitian PSD q by Smith doubling.

    X is the sum of a*^t q a^t; after k doublings it holds the terms up to
    t = 2^k - 1, and each doubling squares a.  The sum stops once the
    squared norm of a is below machine epsilon or after
    STEIN_MAX_DOUBLINGS; what it leaves out shows in the Stein residual
    ||a* X a + q - X||, returned with X, which every bound built on X
    carries.  The last q is I, the W of `_lyapunov`, and the sum also stops
    once k (||a||_1 ||a||_inf + 1) max_i W_ii, with k = (n + 2) eps,
    reaches 1: that is at most the rounding allowance `_residual_bound`
    adds to the residual of W, and the partial sums only grow, so the
    finished W could certify nothing either.
    """
    x, power = qs, a
    eps = float(np.finfo(float).eps)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows is caught below
        allowance = (a.shape[0] + 2) * eps * (
            float(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf)) + 1.0)
        for _ in range(STEIN_MAX_DOUBLINGS):
            x = x + adj(power) @ x @ power
            power = power @ power
            if (not np.linalg.norm(power) ** 2 > eps
                    or allowance * max(np.diagonal(x[-1]).real) >= 1.0):
                break
    if not np.all(np.isfinite(x)):
        return x, np.full(len(qs), np.inf)
    x = 0.5 * (x + np.swapaxes(x, -1, -2).conj())
    return x, np.array([operator_norm(adj(a) @ xk @ a + q - xk) for xk, q in zip(x, qs)])


def _residual_bound(a: np.ndarray, x: np.ndarray, q: np.ndarray, residual: float) -> float:
    """A certified bound on ||Delta|| = ||a* x a + q - x|| for a computed x,
    from the computed value `residual`.  With k = (n + 2) eps, forming Delta
    and its norm rounds by at most k (||a||_1 ||a||_inf ||x||_1 + ||q||_1 +
    ||x||_1 + residual), a first-order bound; not finite on overflow.
    """
    n = a.shape[0]
    if n == 0:
        return residual
    k = (n + 2) * float(np.finfo(float).eps)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow proves nothing
        x_1 = float(np.linalg.norm(x, 1))
        a_sq = float(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf))
        return residual + k * (a_sq * x_1 + float(np.linalg.norm(q, 1)) + x_1 + residual)


def _lyapunov(a: np.ndarray, w: np.ndarray, residual: float) -> tuple[float, float]:
    """The certified bound `_residual_bound` on ||Delta_W|| = ||a* w a + I - w||
    for a computed w, from the computed value `residual`, and the bound on
    rho(a) that w proves (inf when none).  Each computed eigenvalue of w is
    within e = k ||w||, k = (n + 2) eps, of its own (a first-order bound).
    A least eigenvalue above e proves w > 0, so w - a* w a >= (1 -
    ||Delta_W||) I gives, at a v = mu v, Lyapunov's rho(a)^2 <= 1 - (1 -
    ||Delta_W||) / (lambda_max(w) + e), padded by 8 eps for the rounding of
    these last steps.
    """
    n = a.shape[0]
    delta = _residual_bound(a, w, eye(n), residual)
    if n == 0:
        return delta, 0.0
    if not delta < 1.0:
        return delta, math.inf
    eps = float(np.finfo(float).eps)
    k = (n + 2) * eps
    lam = np.linalg.eigvalsh(w)
    e = k * max(-lam[0], lam[-1])
    if not lam[0] > e:
        return delta, math.inf
    bound = math.sqrt(max(1.0 - (1.0 - delta) / (lam[-1] + e), 0.0) + 8.0 * eps)
    return delta, bound if bound < 1.0 else math.inf


@dataclass(frozen=True)
class SteinGramian:
    """Observability Gramian P = a* P a + c* c, with its roundoff bound.

    The exact Gramian is the computed `p` plus sum_t a*^t Delta a^t, Delta
    the Stein residual of `p`, so its error seen through b1* (.) b2 is at
    most ||Delta|| sqrt(weight(b1) weight(b2)) (`form`), where `weight(b)`
    bounds ||b* W b|| for the exact W = a* W a + I, solved alongside P
    (`w`).  `p_residual` and `w_residual` are the certified bounds
    `_residual_bound` on the Stein residuals of p and w.  That w also
    proves a stable: `radius_bound` < 1 bounds its spectral radius
    (`_lyapunov`).
    """

    p: np.ndarray
    p_residual: float
    w: np.ndarray
    w_residual: float
    radius_bound: float

    def weight(self, b: np.ndarray) -> float:
        """||b* W b|| for the exact W, which is at most b* w b / (1 - ||Delta_W||);
        inf when b* w b overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            m = adj(b) @ self.w @ b
        if not np.all(np.isfinite(m)):
            return float("inf")
        return operator_norm(m) / (1.0 - self.w_residual)

    def form(self, b1: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, float]:
        """b1* p b2, and the bound ||Delta|| sqrt(weight(b1) weight(b2)) on
        its distance from b1* P b2; inf when either overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            m = adj(b1) @ self.p @ b2
        w1 = self.weight(b1)
        w2 = w1 if b2 is b1 else self.weight(b2)
        err = self.p_residual * math.sqrt(w1 * w2)
        return m, err if np.all(np.isfinite(m)) and math.isfinite(err) else math.inf


def observability_gramian(a: np.ndarray, c: np.ndarray) -> SteinGramian | None:
    """The Gramian of (a, c) by Smith doubling, or None unless its W proves
    a stable and the bound on the Stein residual of P is finite: the one
    place that decides whether a is stable.
    """
    q = adj(c) @ c
    (p, w), (stein_p, stein_w) = _stein(a, np.stack([q, eye(a.shape[0])]))
    w_residual, radius = _lyapunov(a, w, float(stein_w))
    p_residual = _residual_bound(a, p, q, float(stein_p))
    if not (radius < 1.0 and math.isfinite(p_residual)):
        return None
    return SteinGramian(p, p_residual, w, w_residual, radius)


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

