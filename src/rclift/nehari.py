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
The closed forms of the two special cases, window size one (`special_n1`)
and zero taps (`special_f0`), are `redheffer.Realization`s as well, with
constant X-operators, so their solutions come from the same feedback loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schur
from .errors import CornerNotPD, DimensionMismatch, HankelNotStrict, NotPositiveDefinite
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


def hankel(p: NehariProblem) -> np.ndarray:
    """The N-truncated Hankel matrix, serialized bottom-up.

    Block row n (coordinate n, index -n) is [F_-n, F_-n-1, ..., F_-n-N+1],
    for n = 1..max(K, 1).  Every deeper row is zero, so the norm is the
    exact Hankel norm.
    """
    rows = max(p.k_taps, 1)
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
    """The closed-form realization with the Gram, its inverse and the
    corner solution it is built from.

    X1 = T, X2 = -[G*(I+FG*)^(-1/2), C2], X3 = Lambda11^(-1/2) e_n*,
    X4 = F T, X5 = [(I+FG*)^(-1/2), 0], E = e_n and base Gamma_-: the
    X-operators of the lifting data set `to_lifting_data`.  F is the tap
    row [F_-1 .. F_-N], G the row `g_row` padded with a zero block, and C2
    the last block column of Lambda^x times (Lambda^x_NN)^(-1/2).
    """

    lam: np.ndarray
    lam_cross: np.ndarray
    g_row: tuple[np.ndarray, ...]


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
        lam=lam,
        lam_cross=lam_x,
        g_row=tuple(g_row),
    )


def solve_h(nc: NehariCoefficients, v: schur.SchurParameter, deg: int) -> np.ndarray:
    """Taylor coefficients H_0..H_deg of the solution attached to a Schur
    parameter, as a (deg + 1, y, u) array.

    The Hardy-space block of `redheffer.solution_taylor` on the Nehari
    realization; V = 0 gives the central solution.
    """
    return solution_taylor(nc, v, deg).gamma_coeffs


def assemble_l(p: NehariProblem, h: np.ndarray) -> float:
    """The largest singular value of the truncated combined tap/solution
    operator, for the coefficients H_0..H_deg in a (deg + 1, y, u) array h.

    Rows -K..deg are materialized (every other tap row is exactly zero);
    the rows beyond the solution degree are dropped, so the value bounds
    the norm of any extension of these coefficients from below.  A value
    above 1 + tol therefore refutes the coefficients, and one within it
    certifies nothing: certifying the full norm waits on Nehari solutions
    written as realizations, as lifting solutions are
    (`hardy.certify_interpolant`).
    Block (i, j) is the term of index i - j + 1 of the sequence
    F_-K, ..., F_-1, H_0, ..., H_deg (zero before F_-K), gathered in one
    indexing pass; the norm is the root of the top eigenvalue of the
    N*u x N*u Gram of the block-Toeplitz matrix.
    """
    if h.shape[1:] != (p.y_dim, p.u_dim):
        raise DimensionMismatch("solution coefficients have wrong port dims")
    n_w, u, y, k = p.n_window, p.u_dim, p.y_dim, p.k_taps
    rows = k + len(h)
    seq = np.zeros((rows + n_w - 1, y, u), dtype=complex)
    if k:
        seq[:k] = p.taps[::-1]
    seq[k:rows] = h
    # row r (index i = r - K) and column c (slot j = c + 1) take the term of
    # index i - j + 1, stored at r - c; the negative positions pick the
    # n_w - 1 zero blocks at the end
    idx = np.arange(rows)[:, None] - np.arange(n_w)[None, :]
    out = seq[idx].transpose(0, 2, 1, 3).reshape(rows * y, n_w * u)
    if out.size == 0:
        return 0.0
    top = np.linalg.eigvalsh(adj(out) @ out)[-1]
    return float(np.sqrt(max(top, 0.0)))


def hat_m_check(nc: NehariCoefficients, _deg: int) -> IsometryCertificate:
    """Isometry certificate of the full stacked operator M-hat.

    `redheffer.isometry_certificate` on the Nehari realization: three n x n
    identities and the exact Gramian decide the whole operator, so the
    degree `_deg` changes nothing.  It stays in the signature for the
    callers that pass a degree: `rclift nehari --degree` and the
    benchmark's degree sweep.
    """
    return isometry_certificate(nc)


def special_n1(p: NehariProblem) -> Realization:
    """Closed form for window size 1: H = P_Y V (I - lam P_U V)^-1 D_A.

    The realization X1 = 0, X2 = P_U, X3 = I, X4 = 0, X5 = P_Y, E = D_A
    (the defect root of the tap column) with base Gamma_-, whose
    coefficient functions are P11 = lam P_U, P12 = D_A, P21 = P_Y and
    P22 = 0.  Requires a strictly contractive column of taps so the defect
    root is invertible on U.
    """
    if p.n_window != 1:
        raise DimensionMismatch("this closed form needs window size 1")
    u, y = p.u_dim, p.y_dim
    g = gram(p)
    if min_eig_hermitian(g) < GRAM_MIN_EIG:
        raise HankelNotStrict("the tap column must be a strict contraction")
    return Realization(
        x1=zeros(u, u),
        x2=np.hstack([zeros(u, y), eye(u)]),
        x3=eye(u),
        x4=zeros(y, u),
        x5=np.hstack([eye(y), zeros(y, u)]),
        e=psd_sqrt(g),
        base=hankel(p),  # Gamma_-, the one window column
    )


def special_f0(n_window: int, u_dim: int, y_dim: int) -> Realization:
    """Closed form for zero taps: H = P_Y V (I + lam^N P_U V)^-1.

    The realization on N blocks of U: X1 shifts every block down by one,
    X2 puts -P_U into the first block, X3 reads the last block, E feeds
    it, X4 = 0, X5 = P_Y and the base is 0, so the coefficient functions
    are P11 = -lam^N P_U, P12 = I, P21 = P_Y and P22 = 0.  The sign in the
    resolvent is the one the coefficient functions actually produce on a
    zero-tap problem, so this agrees with the general solver.  The variant
    with a minus holds for the sign-bridged parameter [P_Y V; -P_U V],
    which runs over the same parameter set.
    """
    n, u, y = n_window * u_dim, u_dim, y_dim
    last = np.vstack([zeros(n - u, u), eye(u)])
    x2 = zeros(n, y + u)
    x2[:u, y:] = -eye(u)
    return Realization(
        x1=np.eye(n, k=-u, dtype=complex),
        x2=x2,
        x3=adj(last),
        x4=zeros(y, n),
        x5=np.hstack([eye(y), zeros(y, u)]),
        e=last,
        base=zeros(y, u),
    )


def to_lifting_data(p: NehariProblem) -> LiftingDataSet:
    """The lifting data set whose interpolants are exactly the solutions.

    A is the truncated Hankel matrix, T' the truncated backward shift on
    its max(K, 1) tap rows, and R, Q drop the last / first window slot.
    Exact because all deeper tap rows vanish.
    """
    rows = max(p.k_taps, 1)
    a = hankel(p)
    y, u, n_w = p.y_dim, p.u_dim, p.n_window
    t_prime = zeros(rows * y, rows * y)
    for n in range(rows - 1):
        t_prime[n * y : (n + 1) * y, (n + 1) * y : (n + 2) * y] = eye(y)
    r = np.vstack([eye((n_w - 1) * u), zeros(u, (n_w - 1) * u)])
    q = np.vstack([zeros(u, (n_w - 1) * u), eye((n_w - 1) * u)])
    return LiftingDataSet(a=a, t_prime=t_prime, r=r, q=q)
