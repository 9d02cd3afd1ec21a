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
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NegativeEigenvalue, NotPositiveDefinite

# Relative eigenvalue / singular value cutoff used for rank decisions and
# for clamping PSD rounding noise.  Test instances keep their spectral gaps
# far away from this threshold.
RANK_RTOL = 1e-10

# Machine epsilon, the unit of every rounding allowance, and the least
# subnormal, the unit of an allowance for underflow; the largest float is
# the floor of a norm past it.
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).smallest_subnormal)
HUGE = float(np.finfo(float).max)


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


# --- brackets of computed norms -----------------------------------------------


def _frobenius_upper_scaled(m: np.ndarray) -> tuple[float, int]:
    """(u, e), u 2^e an upper bound on the Frobenius norm of m: the
    computed norm, a sum of m.size squares, widened by (m.size + 2) eps for
    its rounding.  e is 0 unless that sum lies below m.size tiny / eps,
    where the squares lost to underflow (tiny / 2 each at most) could
    exceed eps of it, or overflows while the entries are finite.  Then it
    is summed again over the entries scaled by 2^-e, their largest real or
    imaginary part in [1/2, 1): a scaling exact but for parts that
    underflow, which like the squares that do lose tiny / 2 each, far below
    eps of a sum of at least 1/4."""
    widen = 1.0 + (m.size + 2) * EPS
    sq = float(np.vdot(m, m).real)
    if m.size * TINY / EPS <= sq < math.inf:
        return math.sqrt(sq) * widen, 0
    parts = (m.real, m.imag)
    largest = max(float(np.max(np.abs(p), initial=0.0)) for p in parts)
    if not 0.0 < largest < math.inf:  # zero, or an entry not finite
        return math.sqrt(sq) * widen, 0
    e = math.frexp(largest)[1]
    re, im = (np.ldexp(p, -e) for p in parts)
    return math.sqrt(float(np.vdot(re, re) + np.vdot(im, im))) * widen, e


def _scaled_outward(x: float, e: int, upper: bool) -> float:
    """x 2^e, moved out by tiny for its rounding below the normal range
    when e is not 0: up for an upper end, which overflows to inf, and down
    for a lower one, which stays at most the largest float and at least 0."""
    if not e:
        return x
    try:
        y = math.ldexp(x, e)
    except OverflowError:
        return math.inf if upper else HUGE
    return y + TINY if upper else max(y - TINY, 0.0)


def frobenius_upper(m: np.ndarray) -> float:
    """An upper bound on the Frobenius norm of m: the computed norm
    widened by (m.size + 2) eps for its rounding (`_frobenius_upper_scaled`)."""
    upper, e = _frobenius_upper_scaled(m)
    return _scaled_outward(upper, e, True) if e else upper


def norm_bracket(m: np.ndarray, err: float) -> tuple[float, float]:
    """Lower and upper ends of the norm of a matrix whose computed form m
    is within err of it in norm: the computed norm of m widened by
    (size + 2) eps of itself for its SVD, by err, and, unless it is 0, by
    tiny for underflow, the lower end floored at 0.  LAPACK scales a
    matrix below the normal range up for its SVD and the singular values
    back down by one product, which rounds on the subnormal grid, by at
    most tiny / 2, and norm (1 +- k) rounds there too, by tiny / 2 more.
    An end from 2^-1019 up keeps its bits: x +- tiny rounds to x there."""
    norm, k = operator_norm(m), (m.size + 2) * EPS
    tiny = TINY if norm else 0.0
    return max(norm * (1.0 - k) - err - tiny, 0.0), norm * (1.0 + k) + err + tiny


def frobenius_bracket(m: np.ndarray) -> tuple[float, float]:
    """Lower and upper ends of the norm of m with no SVD:
    ||m||_F / sqrt(n) <= ||m|| <= ||m||_F for n = min(rows, cols), the
    upper end from `frobenius_upper` and the lower one taken down by
    (size + 2) eps twice, once to undo that widening and once for the
    rounding of the computed norm, and by 4 eps for the root and the
    division."""
    if m.size == 0:
        return 0.0, 0.0
    upper, e = _frobenius_upper_scaled(m)
    k = (m.size + 2) * EPS
    lower = upper * (1.0 - 2.0 * k) / math.sqrt(min(m.shape)) * (1.0 - 4.0 * EPS)
    return _scaled_outward(lower, e, False), _scaled_outward(upper, e, True)


@dataclass(frozen=True)
class Gram:
    """The Gram x* x of one r x c matrix x, formed once for every bracket
    read off it (`root_of_max_eig`), with the part of their allowance that
    it fixes: (r + 2) eps ||x||_F^2 for forming it (||x||_F^2 from its
    trace, widened by (r + c + 2) eps), plus 2 r c tiny for underflow, tiny
    the least subnormal.  Each of the r products summed into an entry
    loses at most tiny / 2 to underflow in each of its four real products,
    so an entry is off by at most sqrt(2) r tiny and the Gram by c times
    that; LAPACK scales a Gram that small before its eigenvalues, so the
    spectrum adds no underflow of its own.  The allowance is not finite
    when the Gram overflows.

    The bound holds for any order of summation, so it also covers a Gram
    formed from the structure of x (`formed`) whose every entry is a sum
    of the same r products as the entry of x* x, added in another order.
    """

    g: np.ndarray
    allowance: float

    @classmethod
    def formed(cls, g: np.ndarray, rows: int) -> Gram:
        """The Gram g of a matrix with `rows` rows, formed by the caller as
        sums of the products of x* x, each entry at most `rows` of them."""
        cols = g.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught by the reader
            fro_sq = float(g.trace().real) * (1.0 + (rows + cols + 2) * EPS)
        return cls(g, (rows + 2) * EPS * fro_sq + 2 * rows * cols * TINY)

    @classmethod
    def of(cls, x: np.ndarray) -> Gram:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught by the reader
            g = adj(x) @ x
        return cls.formed(g, x.shape[0])

    def root_of_max_eig(
        self, form: np.ndarray | None = None, err: float = 0.0
    ) -> tuple[float, float]:
        """Lower and upper ends of sqrt(lambda_max(x* x + F)) for a
        Hermitian PSD F whose computed form `form` (None for F = 0, which
        gives ||x||) lies within err of it in norm; (0, inf) when the Gram
        overflows.

        Both ends move by one first-order allowance for forming the c x c
        Gram G = x* x (+ form) and its top eigenvalue, read off the lower
        triangle: err, the Gram's own (`Gram`), and (c + 4) eps ||G||_F;
        the roots are padded by 2 eps, and the lower end is floored at 0.
        """
        g = self.g
        if g.shape[0] == 0:
            return 0.0, 0.0
        if form is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
                g = g + form
        allowance = err + self.allowance + (g.shape[0] + 4) * EPS * frobenius_upper(g)
        if not math.isfinite(allowance):  # so is every entry of g
            return 0.0, math.inf
        lam = float(np.linalg.eigvalsh(g)[-1])
        return (math.sqrt(max(lam - allowance, 0.0)) * (1.0 - 2.0 * EPS),
                math.sqrt(max(lam + allowance, 0.0)) * (1.0 + 2.0 * EPS))


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
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows is caught below
        allowance = (a.shape[0] + 2) * EPS * (
            float(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf)) + 1.0)
        for _ in range(STEIN_MAX_DOUBLINGS):
            x = x + adj(power) @ x @ power
            power = power @ power
            if (not np.linalg.norm(power) ** 2 > EPS
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
    k = (n + 2) * EPS
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
    k = (n + 2) * EPS
    lam = np.linalg.eigvalsh(w)
    e = k * max(-lam[0], lam[-1])
    if not lam[0] > e:
        return delta, math.inf
    bound = math.sqrt(max(1.0 - (1.0 - delta) / (lam[-1] + e), 0.0) + 8.0 * EPS)
    return delta, bound if bound < 1.0 else math.inf


@dataclass(frozen=True)
class SteinGramian:
    """Observability Gramian P = a* P a + c* c, with its roundoff bound.

    The exact Gramian is the computed `p` plus sum_t a*^t Delta a^t, Delta
    the Stein residual a* p a + c* c - p of `p` against the exact c* c, so
    its error seen through b1* (.) b2 is at most ||Delta|| sqrt(weight(b1)
    weight(b2)) (`form`), where `weight(b)` bounds ||b* W b|| for the exact
    W = a* W a + I, solved alongside P (`w`).  `p_residual` and
    `w_residual` are the certified bounds on the Stein residuals of p and
    w (`observability_gramian`).  That w also proves a stable:
    `radius_bound` < 1 bounds its spectral radius (`_lyapunov`).
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
        """b1* p b2, and a bound on its distance from b1* P b2: ||Delta||
        sqrt(weight(b1) weight(b2)), plus 2 (n + 2) eps ||b1||_F ||b2||_F
        ||p||_F for the rounding of forming it; inf when either overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            m = adj(b1) @ self.p @ b2
        w1 = self.weight(b1)
        w2 = w1 if b2 is b1 else self.weight(b2)
        f = frobenius_upper
        err = (self.p_residual * math.sqrt(w1 * w2)
               + 2 * (self.p.shape[0] + 2) * EPS * f(b1) * f(b2) * f(self.p))
        return m, err if np.all(np.isfinite(m)) and math.isfinite(err) else math.inf

    def forms(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """b* p b as both a lower and an upper form of b* P b, with the
        `form` bound."""
        m, err = self.form(b, b)
        return m, m, err


@dataclass(frozen=True)
class StorageGramian:
    """The bounds of `storage_gramian_bound`: 0 <= P <= (1 + eta) I, the
    two-sided ||P - I|| <= epsilon, rho(a) <= radius_bound < 1, and
    ||a|| <= a_norm for the state matrix `a` they were read from."""

    eta: float
    epsilon: float
    radius_bound: float
    a_norm: float
    a: np.ndarray = field(compare=False, repr=False)

    def _norm(self, b: np.ndarray) -> float:
        """An upper bound on ||b||: `a_norm` for the state matrix itself,
        else the upper end of `Gram.root_of_max_eig`."""
        return self.a_norm if b is self.a else Gram.of(b).root_of_max_eig()[1]

    def form(self, b1: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, float]:
        """b1* b2, and a bound on its distance from b1* P b2: epsilon ||b1||
        ||b2||, each norm bounded by `_norm`, plus (n + 2) eps ||b1||_F
        ||b2||_F for the rounding of forming it; inf when either
        overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            m = adj(b1) @ b2
        norm1 = self._norm(b1)
        norm2 = norm1 if b2 is b1 else self._norm(b2)
        err = (self.epsilon * norm1 * norm2
               + (b1.shape[0] + 2) * EPS * frobenius_upper(b1) * frobenius_upper(b2))
        return m, err if np.all(np.isfinite(m)) and math.isfinite(err) else math.inf

    def forms(self, b: np.ndarray) -> tuple[None, np.ndarray, float]:
        """The zero form (None) below b* P b, (1 + eta) b* b above it, and
        (n + 3) eps (1 + eta) ||b||_F^2 for the rounding of forming that."""
        with np.errstate(over="ignore", invalid="ignore"):  # the reader tests it finite
            upper = (1.0 + self.eta) * (adj(b) @ b)
        b_fro = frobenius_upper(b)
        return None, upper, (b.shape[0] + 3) * EPS * (1.0 + self.eta) * b_fro * b_fro


def storage_gramian_bound(a: np.ndarray, c: np.ndarray) -> StorageGramian | None:
    """Bounds on the observability Gramian P = a* P a + c* c read off the
    storage inequality without a Stein solve: P <= (1 + eta) I, ||P - I||
    <= epsilon, rho(a) <= radius_bound and ||a|| <= a_norm; None unless
    repeated squaring proves a stable.

    Proof.  Let M = [a; c] with M* M <= (1 + e) I, e >= 0.  Along
    x_(t+1) = a x_t, ||c x_t||^2 = x_t* M* M x_t - ||x_(t+1)||^2 <=
    ||x_t||^2 - ||x_(t+1)||^2 + e ||x_t||^2, and summed over t = 0..T-1
    the first two terms telescope, so
    x_0* P x_0 = sum_t ||c x_t||^2 <= ||x_0||^2 + e sum_t ||a^t x_0||^2.
    From a* a <= M* M, ||a^j||^2 <= (1 + e)^j; so if ||a^m|| <= theta < 1,
    writing t = q m + j with j < m,
    sum_t ||a^t||^2 <= sum_q theta^(2q) sum_(j<m) (1 + e)^j
    <= S = m (1 + e)^m / (1 - theta^2),
    which proves a stable and gives P <= (1 + e S) I: eta = e S.  Both
    sides of the same telescope give, with Delta = M* M - I,
    P - I = sum_t a*^t Delta a^t, so |x* b1* (P - I) b2 y| <=
    ||Delta|| sum_t ||a^t||^2 ||b1 x|| ||b2 y|| and ||b1* (P - I) b2|| <=
    delta S ||b1|| ||b2|| for any delta >= ||Delta||: epsilon = delta S.
    And rho(a)^m <= ||a^m|| <= theta gives radius_bound = theta^(1/m),
    padded by 4 eps for its power, and a* a <= M* M <= (1 + e) I gives
    a_norm = sqrt(1 + e), padded by 2 eps for its sum and root.

    Rounding, to first order as in `_residual_bound`, with k = (r + 2) eps
    for an inner dimension r.  The computed Gram of M is within
    (n + p + 2) eps ||M||_F^2 of M* M in norm and its computed top
    eigenvalue within (n + 2) eps ||M||_F^2 of its own, so e = lambda_max
    - 1 plus both allowances, and at least 0, bounds the exact one.  For
    delta, entry by entry: the computed Gram, whose n + p rows include
    those of c* c, is within (n + p + 2) eps |M|^T |M| of M* M, and its
    Hermitian part, with one more rounding, within (n + p + 3) eps of
    that; in norm this is at most (n + p + 3) eps || |M|^T |M| ||, and the
    norm of that symmetric nonnegative matrix is at most its 1-norm, a
    largest row sum.  D = that Gram - I rounds its diagonal by eps of
    itself, and ||D|| <= sqrt(||D||_1 ||D||_inf), whose computed value, n
    moduli summed per column or row, then a product and a root, is low by
    at most (n + 4) eps of itself; so
    delta = sqrt(||D||_1 ||D||_inf) (1 + (n + 6) eps) +
    (n + p + 3) eps || |M|^T |M| ||_1, the last eps for forming delta
    itself.  The squarings run on computed powers: with X_j the computed
    a^(2^j) and d_j a bound on ||X_j - a^(2^j)||_F, the exact square
    differs from the computed one by at most d_j (2 ||X_j||_F + d_j) +
    (n + 2) eps ||X_j||_F^2, which is d_(j+1) (d_0 = 0).  theta =
    ||X_j||_F + d_j, each Frobenius norm from `frobenius_upper`, bounds
    ||a^m|| for m = 2^j, and the squaring stops at the first theta <= 1/2,
    after at most STEIN_MAX_DOUBLINGS squarings.  Nothing assumes a
    stable: a theta that never reaches 1/2, or a power or S that
    overflows, gives None.
    """
    n = a.shape[0]
    if n == 0:
        return StorageGramian(0.0, 0.0, 0.0, 0.0, a)
    k = (n + 2) * EPS
    p = c.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow proves nothing
        m = np.vstack([a, c])
        m_fro_sq = frobenius_upper(m) ** 2
        gram = _hermitian(adj(m) @ m)
        lam = float(np.linalg.eigvalsh(gram)[-1])
        e = max(lam - 1.0 + (2 * n + p + 4) * EPS * m_fro_sq, 0.0)
        d, m_abs = gram - eye(n), np.abs(m)
        delta = (math.sqrt(float(np.linalg.norm(d, 1) * np.linalg.norm(d, np.inf)))
                 * (1.0 + (n + 6) * EPS)
                 + (n + p + 3) * EPS * float(np.linalg.norm(m_abs.T @ m_abs, 1)))
        power, span, drift = a, 1, 0.0
        for _ in range(STEIN_MAX_DOUBLINGS + 1):
            norm = frobenius_upper(power)
            theta = norm + drift
            if not math.isfinite(theta):
                return None
            if theta <= 0.5:
                break
            drift = drift * (2.0 * norm + drift) + k * norm * norm
            power = power @ power
            span *= 2
        else:
            return None
        try:
            s = span * (1.0 + e) ** span / (1.0 - theta * theta)
        except OverflowError:
            return None
    eta, epsilon = e * s, delta * s
    if not (math.isfinite(eta) and math.isfinite(epsilon)):
        return None
    return StorageGramian(eta, epsilon, theta ** (1.0 / span) * (1.0 + 4.0 * EPS),
                          math.sqrt(1.0 + e) * (1.0 + 2.0 * EPS), a)


def observability_gramian(a: np.ndarray, c: np.ndarray) -> SteinGramian | None:
    """The Gramian of (a, c) by Smith doubling, or None unless its W proves
    a stable and the bound on the Stein residual of P is finite.  Each
    Gramian bound proves stability its own way: this one by Lyapunov's
    inequality on W (`_lyapunov`), `storage_gramian_bound` by repeated
    squaring.

    The Stein residual of P is taken against the exact c* c: the bound
    `_residual_bound` on it against the computed q = c* c, plus (p + 2)
    eps ||c||_F^2 for the rounding of q, p the rows of c.
    """
    q = adj(c) @ c
    (p, w), (stein_p, stein_w) = _stein(a, np.stack([q, eye(a.shape[0])]))
    w_residual, radius = _lyapunov(a, w, float(stein_w))
    p_residual = (_residual_bound(a, p, q, float(stein_p))
                  + (c.shape[0] + 2) * EPS * frobenius_upper(c) ** 2)
    if not (radius < 1.0 and math.isfinite(p_residual)):
        return None
    return SteinGramian(p, p_residual, w, w_residual, radius)


# The Gramian bounds, in the order a certificate offers their verdicts to
# `lifting.decide`: the storage bound, which costs no Stein solve and
# decides every realization in storage coordinates, then the Stein
# Gramian.  `hardy.certify_interpolant` and `redheffer.isometry_certificate`
# read them here and nowhere else.
GRAMIAN_BOUNDS = (storage_gramian_bound, observability_gramian)


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

