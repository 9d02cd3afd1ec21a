"""The relaxed Nehari extension problem for finitely supported taps.

Data: a window size N and finitely many taps F_-1, ..., F_-K mapping U to
Y.  A sequence H_0, H_1, ... solves the problem when the doubly infinite
block matrix with the taps frozen above the diagonal and the H's filling
the lower triangle has norm at most one.  With finite tap support the
truncated Hankel matrix, its defect Gram, and every derived operator are
honest finite matrices, so all checks are exact up to truncation of the
solution tail.

Row indexing convention: the combined operator has integer row indices
with H_0 boxed at index 0 and tap rows at negative indices; matrices are
serialized bottom-up, so coordinate n corresponds to index -n.

The problem is the specialisation of relaxed commutant lifting to the data
set `to_lifting_data` builds, so its closed-form coefficient functions are
the lifting ones: `coefficients` returns a `redheffer.Realization` whose
input embedding E is e_n (the first window slot) and whose base block is
the first window column Gamma_- of the Hankel matrix.  Evaluation,
solutions and the stacked-operator check all run through `redheffer`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schur
from .errors import CornerNotPD, DimensionMismatch, HankelNotStrict, NotPositiveDefinite
from .hardy import TaylorSeries, series_mul, series_neumann
from .lifting import LiftingDataSet
from .redheffer import IsometryCertificate, Realization, isometry_certificate, solution_taylor
from .linalg import (
    adj,
    cmatrix,
    eye,
    inv_hpd,
    min_eig_hermitian,
    psd_sqrt,
    solve_hpd,
    zeros,
)

GRAM_MIN_EIG = 1e-8


@dataclass(frozen=True)
class NehariProblem:
    """Window size, port dimensions, and the finitely many nonzero taps."""

    n_window: int
    u_dim: int
    y_dim: int
    taps: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.n_window < 1:
            raise ValueError("the window size must be at least 1")
        if self.u_dim < 0 or self.y_dim < 0:
            raise ValueError("port dimensions must be nonnegative")
        taps = tuple(cmatrix(t) for t in self.taps)
        for t in taps:
            if t.shape != (self.y_dim, self.u_dim):
                raise DimensionMismatch(
                    f"tap shape {t.shape}, expected ({self.y_dim}, {self.u_dim})"
                )
        object.__setattr__(self, "taps", taps)

    @property
    def k_taps(self) -> int:
        return len(self.taps)

    def tap(self, n: int) -> np.ndarray:
        """F_{-n}; zero for n beyond the stored support (n >= 1)."""
        if n < 1:
            raise IndexError("taps are indexed from 1 (meaning F_{-1})")
        if n <= len(self.taps):
            return self.taps[n - 1]
        return zeros(self.y_dim, self.u_dim)


def hankel(p: NehariProblem, rows: int | None = None) -> np.ndarray:
    """The N-truncated Hankel matrix, serialized bottom-up.

    Block row n (coordinate n, index -n) is [F_-n, F_-n-1, ..., F_-n-N+1].
    With rows >= K no nonzero row is dropped, so the norm is the exact
    Hankel norm.
    """
    if rows is None:
        rows = max(p.k_taps, 1)
    if rows < p.k_taps:
        raise ValueError(f"rows={rows} would drop nonzero tap rows (K={p.k_taps})")
    out = zeros(rows * p.y_dim, p.n_window * p.u_dim)
    for n in range(1, rows + 1):
        for j in range(p.n_window):
            out[
                (n - 1) * p.y_dim : n * p.y_dim,
                j * p.u_dim : (j + 1) * p.u_dim,
            ] = p.tap(n + j)
    return out


def gram(p: NehariProblem) -> np.ndarray:
    """The defect Gram of the Hankel matrix, from the displayed sums.

    Block (i, j) is I - S(i, j) with S(i, j) = sum_{n>=i} F_-n* F_{-n+i-j}
    (all sums finite), which equals I - A*A of the Hankel matrix.  The
    sums run down the block diagonals: S(i, j) = F_-i* F_-j + S(i+1, j+1)
    with S(K+1, .) = 0, one batched product over the stacked taps per i
    from K down to 1, with j over 1..N+K so every later step finds its
    shifted row.
    """
    n_w, u, y, k = p.n_window, p.u_dim, p.y_dim, p.k_taps
    f = np.zeros((n_w + k, y, u), dtype=complex)  # F_-1, ..., F_-(N+K)
    if k:
        f[:k] = p.taps
    s = np.zeros((n_w + k + 1, u, u), dtype=complex)  # S(i, 1..N+K), then a zero
    rows = np.zeros((n_w, n_w, u, u), dtype=complex)
    for i in range(k, 0, -1):
        s[:-1] = np.matmul(adj(f[i - 1]), f) + s[1:]
        if i <= n_w:
            rows[i - 1] = s[:n_w]
    out = eye(n_w * u) - rows.transpose(0, 2, 1, 3).reshape(n_w * u, n_w * u)
    return 0.5 * (out + adj(out))


def lambda_cross(lam: np.ndarray) -> np.ndarray:
    """Inverse of the defect Gram `lam`; requires a strictly contractive Hankel."""
    min_eig = min_eig_hermitian(lam)
    if min_eig < GRAM_MIN_EIG:
        raise HankelNotStrict(
            f"defect Gram min eigenvalue {min_eig:.3e} < {GRAM_MIN_EIG:g}"
        )
    return inv_hpd(lam)


def _block(m: np.ndarray, i: int, j: int, u: int) -> np.ndarray:
    """1-based u x u block (i, j) of a square block matrix."""
    return m[(i - 1) * u : i * u, (j - 1) * u : j * u]


def solve_g(p: NehariProblem, lam: np.ndarray) -> list[np.ndarray]:
    """Solve the corner system for [G_1 ... G_{N-1}].

    The (N-1)-corner of the defect Gram `lam` applied to the stacked
    adjoints must give the stacked tap adjoints; empty for N = 1.  The
    Cholesky factorisation of the corner is its positive-definiteness
    gate.  After `lambda_cross` has accepted the Gram it cannot fire:
    by eigenvalue interlacing the corner's smallest eigenvalue is at
    least the Gram's, which is at least GRAM_MIN_EIG.
    """
    n_w, u = p.n_window, p.u_dim
    if n_w == 1:
        return []
    corner = lam[: (n_w - 1) * u, : (n_w - 1) * u]
    rhs = np.vstack([adj(p.tap(i)) for i in range(1, n_w)])
    try:
        sol = solve_hpd(corner, rhs)
    except NotPositiveDefinite as exc:
        raise CornerNotPD("leading Gram corner is not positive definite") from exc
    return [adj(sol[(i - 1) * u : i * u, :]) for i in range(1, n_w)]


@dataclass(frozen=True)
class NehariCoefficients(Realization):
    """The closed-form realization with the operators it is built from.

    X1 = T, X2 = -[G*(I+FG*)^(-1/2), C2], X3 = Lambda11^(-1/2) e_n*,
    X4 = F T, X5 = [(I+FG*)^(-1/2), 0], E = e_n and base Gamma_-: the
    X-operators of the lifting data set `to_lifting_data`, with T e_n = -C1.
    """

    problem: NehariProblem
    lam: np.ndarray
    lam_cross: np.ndarray
    g_row: tuple[np.ndarray, ...]
    c1: np.ndarray
    c2: np.ndarray
    f_row: np.ndarray
    g_big: np.ndarray


def coefficients(p: NehariProblem) -> NehariCoefficients:
    """Derive every operator of the closed-form description."""
    n_w, u, y = p.n_window, p.u_dim, p.y_dim
    lam = gram(p)
    lam_x = lambda_cross(lam)
    g_row = solve_g(p, lam)

    lam11 = _block(lam_x, 1, 1, u)
    lam11_inv = inv_hpd(lam11)
    lam_nn = _block(lam_x, n_w, n_w, u)

    t_state = zeros(n_w * u, n_w * u)
    for i in range(1, n_w):
        t_state[(i - 1) * u : i * u, i * u : (i + 1) * u] = eye(u)
        t_state[(i - 1) * u : i * u, :u] = -_block(lam_x, i + 1, 1, u) @ lam11_inv

    e_n = np.vstack([eye(u)] + [zeros(u, u)] * (n_w - 1))
    c1 = np.vstack(
        [_block(lam_x, i, 1, u) for i in range(2, n_w + 1)] + [zeros(u, u)]
    ) @ lam11_inv
    c2 = np.vstack([_block(lam_x, i, n_w, u) for i in range(1, n_w + 1)]) @ psd_sqrt(
        inv_hpd(lam_nn)
    )
    f_row = np.hstack([p.tap(n) for n in range(1, n_w + 1)])
    g_big = np.hstack(g_row + [zeros(y, u)] * (n_w - len(g_row)))
    i_fg_neg_half = psd_sqrt(inv_hpd(eye(y) + f_row @ adj(g_big)))

    return NehariCoefficients(
        x1=t_state,
        x2=-np.hstack([adj(g_big) @ i_fg_neg_half, c2]),
        x3=psd_sqrt(lam11_inv) @ adj(e_n),
        x4=f_row @ t_state,
        x5=np.hstack([i_fg_neg_half, zeros(y, u)]),
        e=e_n,
        base=np.vstack([p.tap(n) for n in range(1, max(p.k_taps, 1) + 1)]),  # Gamma_-
        problem=p,
        lam=lam,
        lam_cross=lam_x,
        g_row=tuple(g_row),
        c1=c1,
        c2=c2,
        f_row=f_row,
        g_big=g_big,
    )


def solve_h(nc: NehariCoefficients, v: schur.SchurParameter, deg: int) -> TaylorSeries:
    """Taylor coefficients of the solution attached to a Schur parameter.

    The Hardy-space block of `redheffer.solution_taylor` on the Nehari
    realization; V = 0 gives the central solution.
    """
    return TaylorSeries(solution_taylor(nc, v, deg).gamma_coeffs)


@dataclass(frozen=True)
class LContractionReport:
    """Largest singular value of the truncated combined operator.

    The truncation keeps a subset of the rows of the full operator, so
    `sigma_max` is a lower bound on the full norm.  `accepted` therefore
    means "not refuted": a truncated norm above 1 + tol proves that the
    coefficients are no solution, and nothing read from the solution can
    widen that threshold.  Certifying the
    full norm needs a tail the verifier computes itself, which waits on the
    exact tail certificates planned in ROADMAP.md.
    """

    sigma_max: float

    def accepted(self, tol: float = 1e-6) -> bool:
        return self.sigma_max <= 1.0 + tol


def assemble_l(p: NehariProblem, h: TaylorSeries) -> LContractionReport:
    """Assemble the truncated combined tap/solution operator and measure its norm.

    Rows -K..deg are materialized (every other tap row is exactly zero);
    the rows beyond the solution degree are dropped, so the reported norm
    bounds the norm of any extension of these coefficients from below.
    Block (i, j) is the term of index i - j + 1 of the sequence
    F_-K, ..., F_-1, H_0, ..., H_deg (zero before F_-K), gathered in one
    indexing pass; the norm is the root of the top eigenvalue of the
    N*u x N*u Gram of the block-Toeplitz matrix.
    """
    if h.coeffs[0].shape != (p.y_dim, p.u_dim):
        raise DimensionMismatch("solution coefficients have wrong port dims")
    n_w, u, y, k = p.n_window, p.u_dim, p.y_dim, p.k_taps
    deg = h.degree
    rows = k + deg + 1
    seq = np.zeros((rows + n_w - 1, y, u), dtype=complex)
    if k:
        seq[:k] = p.taps[::-1]
    seq[k:rows] = h.coeffs
    # row r (index i = r - K) and column c (slot j = c + 1) take the term of
    # index i - j + 1, stored at r - c; the negative positions pick the
    # n_w - 1 zero blocks at the end
    idx = np.arange(rows)[:, None] - np.arange(n_w)[None, :]
    out = seq[idx].transpose(0, 2, 1, 3).reshape(rows * y, n_w * u)
    if out.size == 0:
        return LContractionReport(sigma_max=0.0)
    top = np.linalg.eigvalsh(adj(out) @ out)[-1]
    return LContractionReport(sigma_max=float(np.sqrt(max(top, 0.0))))


def hat_m_check(nc: NehariCoefficients, _deg: int) -> IsometryCertificate:
    """Isometry certificate of the full stacked operator M-hat.

    `redheffer.isometry_certificate` on the Nehari realization: three n x n
    identities and the exact Gramian decide the whole operator, so the
    degree `_deg` changes nothing.  It stays in the signature for the
    callers that pass a degree: `rclift nehari --degree` and the
    benchmark's degree sweep.
    """
    return isometry_certificate(nc)


def special_n1(p: NehariProblem, v: schur.SchurParameter, deg: int) -> TaylorSeries:
    """Closed form for window size 1: H = P_Y V (I - lam P_U V)^-1 D_A.

    Requires a strictly contractive column of taps so the defect root is
    invertible on U.
    """
    if p.n_window != 1:
        raise DimensionMismatch("this closed form needs window size 1")
    if v.in_dim != p.u_dim or v.out_dim != p.y_dim + p.u_dim:
        raise DimensionMismatch("parameter dims disagree with the problem ports")
    g = gram(p)
    if min_eig_hermitian(g) < GRAM_MIN_EIG:
        raise HankelNotStrict("the tap column must be a strict contraction")
    d_a = psd_sqrt(g)
    vt = schur.taylor(v, deg)
    vy = [c[: p.y_dim, :] for c in vt.coeffs]
    lam_vu = [zeros(p.u_dim, p.u_dim)] + [c[p.y_dim :, :] for c in vt.coeffs[:deg]]
    coeffs = series_mul(vy, series_neumann(lam_vu, deg), deg)
    return TaylorSeries(tuple(c @ d_a for c in coeffs))


def special_f0(
    n_window: int, u_dim: int, y_dim: int, v: schur.SchurParameter, deg: int
) -> TaylorSeries:
    """Closed form for zero taps: H = P_Y V (I + lam^N P_U V)^-1.

    The sign in the resolvent is the one the coefficient functions
    actually produce on a zero-tap problem, so this agrees with the
    general solver coefficientwise.  The variant with a minus holds for
    the sign-bridged parameter [P_Y V; -P_U V], which runs over the same
    parameter set.
    """
    if v.in_dim != u_dim or v.out_dim != y_dim + u_dim:
        raise DimensionMismatch("parameter dims disagree with the problem ports")
    vt = schur.taylor(v, deg)
    vy = [c[:y_dim, :] for c in vt.coeffs]
    lam_n_vu = [zeros(u_dim, u_dim)] * n_window + [-c[y_dim:, :] for c in vt.coeffs]
    return TaylorSeries(tuple(series_mul(vy, series_neumann(lam_n_vu, deg), deg)))


def to_lifting_data(p: NehariProblem, rows: int | None = None) -> LiftingDataSet:
    """The lifting data set whose interpolants are exactly the solutions.

    A is the truncated Hankel matrix, T' the truncated backward shift on
    the tap rows, and R, Q drop the last / first window slot.  Exact for
    rows >= K because all deeper tap rows vanish.
    """
    if rows is None:
        rows = max(p.k_taps, 1)
    a = hankel(p, rows)
    y, u, n_w = p.y_dim, p.u_dim, p.n_window
    t_prime = zeros(rows * y, rows * y)
    for n in range(rows - 1):
        t_prime[n * y : (n + 1) * y, (n + 1) * y : (n + 2) * y] = eye(y)
    r = np.vstack([eye((n_w - 1) * u), zeros(u, (n_w - 1) * u)])
    q = np.vstack([zeros(u, (n_w - 1) * u), eye((n_w - 1) * u)])
    return LiftingDataSet(a=a, t_prime=t_prime, r=r, q=q)
