"""The relaxed Nehari extension problem for finitely supported taps.

Data: a window size N and finitely many taps F_-1, ..., F_-K mapping U to
Y.  A sequence H_0, H_1, ... solves the problem when the doubly infinite
block matrix with the taps frozen above the diagonal and the H's filling
the lower triangle has norm at most one.  With finite tap support the
truncated Hankel matrix, its defect Gram, and every derived operator are
honest finite matrices, so all checks are exact up to truncation of the
solution tail.

One layout serves every block operator.  Block row n of the Hankel matrix
holds coordinate n, the row of index -n (matrices are serialized
bottom-up), and block column j holds window slot j.  Every operator reads
one zero-padded sequence s = F_-K, ..., F_-1, H_0, ..., H_deg
(`_sequence`).  `_gather` lays out the Hankel matrix A from it, block
s[K - n - j] at (n, j), and `to_lifting_data` selects slots of that
layout: T' shifts the tap rows up by one block, R drops the last window
slot and Q the first.  The combined tap/solution operator of
`assemble_l`, whose row of index i and slot j hold s[i - j + 1], is never
laid out: `combined_gram` forms its N*u x N*u Gram from the block
diagonals of s.  With no H it is A with its block rows reversed, so the
same kernel forms A*A, and the defect Gram Lambda is I - A*A.  A problem
forms each of A, A*A and Lambda once, read-only, for every reader
(`NehariProblem.a`, `.a_gram`, `.defect_gram`).

The problem is the specialisation of relaxed commutant lifting to the data
set `to_lifting_data` builds, so its coefficient functions are the lifting
ones, and `coefficients` builds them with the lifting core,
`redheffer.storage_coefficients`, in that module's one coordinate
convention: the state is W x for the upper Cholesky factor W of the defect
Gram Lambda = W*W (= D_A^2 of the data set).  The returned
`redheffer.Realization` has the input embedding E = W e_1 (the first
window slot) and the base block Gamma_-, the first window column of the
Hankel matrix.  Evaluation, solutions and the stacked-operator check all
run through `redheffer`.  The closed forms of the two special cases,
window size one (`special_n1`) and zero taps (`special_f0`), are
`redheffer.Realization`s as well, with constant X-operators, so their
solutions come from the same feedback loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HankelNotStrict, NotFinite, NotPositiveDefinite
from .lifting import LiftingDataSet, Verdict
from .linalg import (
    Gram,
    adj,
    eye,
    hpd_factor,
    min_eig_hermitian,
    psd_sqrt,
    solve_factor_adjoint,
    zeros,
)
from .redheffer import Realization, isometry_certificate, storage_coefficients

GRAM_MIN_EIG = 1e-8


@dataclass(frozen=True)
class NehariProblem:
    """Window size, port dimensions, and the finitely many nonzero taps.

    The sizes are range-checked and each tap is checked to be y_dim x
    u_dim; the taps are taken as they are, their entries checked where
    they enter the package, by the `serialize` reader.
    """

    n_window: int
    u_dim: int
    y_dim: int
    taps: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.n_window < 1:
            raise ValueError("the window size must be at least 1")
        if self.u_dim < 0 or self.y_dim < 0:
            raise ValueError("port dimensions must be nonnegative")
        for t in self.taps:
            if t.shape != (self.y_dim, self.u_dim):
                raise DimensionMismatch(
                    f"tap shape {t.shape}, expected ({self.y_dim}, {self.u_dim})"
                )

    @property
    def k_taps(self) -> int:
        return len(self.taps)

    @functools.cached_property
    def a(self) -> np.ndarray:
        """The N-truncated Hankel matrix, serialized bottom-up.

        Block row n (coordinate n, index -n) is [F_-n, F_-n-1, ...,
        F_-n-N+1], for n = 1..max(K, 1).  Every deeper row is zero, so the
        norm is the exact Hankel norm.  Laid out once, read-only.
        """
        n = np.arange(1, max(self.k_taps, 1) + 1)[:, None]
        a = _gather(_sequence(self), self.k_taps + self.n_window - n - np.arange(self.n_window))
        a.flags.writeable = False
        return a

    @functools.cached_property
    def a_gram(self) -> Gram:
        """The Gram A*A of the Hankel matrix, `combined_gram` with no H;
        formed once, its matrix read-only."""
        gram = combined_gram(self, np.zeros((0, self.y_dim, self.u_dim)))
        gram.g.flags.writeable = False
        return gram

    @functools.cached_property
    def defect_gram(self) -> np.ndarray:
        """The defect Gram Lambda = I - A*A, made Hermitian, from `a_gram`:
        block (i, j) is I - sum_{n>=i} F_-n* F_{-n+i-j} (all sums finite).
        Formed once, read-only."""
        out = eye(self.n_window * self.u_dim) - self.a_gram.g
        lam = 0.5 * (out + adj(out))
        lam.flags.writeable = False
        return lam


def _sequence(p: NehariProblem, h: np.ndarray | tuple = ()) -> np.ndarray:
    """s = F_-K, ..., F_-1, H_0, ..., H_deg for the coefficients in a
    (deg + 1, y, u) array h, with s[i] at index i + N of one stack: zero
    for -N <= i < 0 and for the N - 1 indices past its end."""
    y, u, n_w = p.y_dim, p.u_dim, p.n_window
    return np.concatenate([np.zeros((n_w, y, u)), np.reshape(p.taps[::-1], (p.k_taps, y, u)),
                           np.reshape(h, (len(h), y, u)), np.zeros((n_w - 1, y, u))], dtype=complex)


def _gather(seq: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The block matrix whose block (r, c) is seq[idx[r, c]], for a
    (k, y, u) stack seq and an integer table idx."""
    rows, cols = idx.shape
    _, y, u = seq.shape
    return seq[idx].transpose(0, 2, 1, 3).reshape(rows * y, cols * u)


def _strict_gram(p: NehariProblem) -> np.ndarray:
    """The problem's defect Gram (`defect_gram`); HankelNotStrict unless
    its least eigenvalue is at least GRAM_MIN_EIG, so that the Hankel
    matrix is a strict contraction.

    The gate is whether Lambda - GRAM_MIN_EIG I has a Cholesky factor,
    several times cheaper than its least eigenvalue, which is computed for
    the message only.  Cholesky is backward stable, so the two decisions
    can differ only for a least eigenvalue within about n eps ||Lambda||
    of GRAM_MIN_EIG; then the message says that the factorization failed.
    """
    lam = p.defect_gram
    try:
        hpd_factor(lam - GRAM_MIN_EIG * eye(lam.shape[0]))
    except NotPositiveDefinite:
        min_eig = min_eig_hermitian(lam)
        why = (f"< {GRAM_MIN_EIG:g}" if min_eig < GRAM_MIN_EIG else
               f">= {GRAM_MIN_EIG:g}, but the Cholesky factorization of"
               f" Lambda - {GRAM_MIN_EIG:g} I failed")
        raise HankelNotStrict(f"defect Gram min eigenvalue {min_eig:.3e} {why}") from None
    return lam


def coefficients(p: NehariProblem) -> Realization:
    """The realization of the lifting data set `to_lifting_data(p)`:
    `redheffer.storage_coefficients` with W the upper Cholesky factor of
    the gated defect Gram Lambda = W*W, E = W e_1 and base Gamma_-.

    The structure of the data set is known in closed form, so nothing but
    Lambda is factored.  R and Q drop the last and the first window slot,
    so W R and W Q are column blocks of W, and R* Lambda R and
    Q* Lambda Q the leading and the trailing corner of Lambda.  Ker Q* and
    Ker R* are the first and the last slot, so W^-* E_Q and W^-* E_R come
    from one triangular solve.  Q*Q = R*R = I leaves D0 = 0, and T' shifts
    the tap rows up, so its defect keeps the first tap row and J is the
    first tap row of A R.
    """
    n_w, u, y = p.n_window, p.u_dim, p.y_dim
    m = (n_w - 1) * u
    lam = _strict_gram(p)
    w = hpd_factor(lam)
    slots = eye(n_w * u)
    w_slots = solve_factor_adjoint(w, np.hstack([slots[:, :u], slots[:, m:]]))  # [E_Q, E_R]
    return storage_coefficients(
        w[:, :m], w[:, u:], lam[:m, :m], lam[u:, u:], w_slots[:, :u], w_slots[:, u:],
        p.a[:y, :m], 0, w[:, :u], p.a[:, :u]
    )


def combined_gram(p: NehariProblem, h: np.ndarray) -> Gram:
    """The Gram L* L of the truncated combined tap/solution operator L of
    the coefficients H_0..H_deg in a (deg + 1, y, u) array h, formed from
    its block diagonals; L itself is never laid out.

    L has the r = K + deg + 1 block rows of index -K..deg, and the row of
    index i and window slot j hold s[i - j + 1] (`_sequence`), so block row
    t of L (from 0) holds s[t - c] in slot c (from 0).  Block (a, b) of the
    Gram is the sum over the rows t >= max(a, b) of s[t - a]* s[t - b], so
    G(a, b) = G(a + 1, b + 1) + s[r - 1 - a]* s[r - 1 - b], and lag d of
    the lower triangle starts at its bottom-right block
    G(N - 1, N - 1 - d) = sum_(t <= r - N) s[t]* s[t + d], the one product
    over the rows that every slot holds, U_0* U_d for the strided windows
    U_d = s[d : d + r - N + 1] (no copy).  The walk up-left adds the
    products of the N - 1 later rows, all formed by one product of their
    blocks, one row per step.  Every entry is thus a sum of the products
    of the same entry of L* L, so `linalg.Gram.formed` with r y rows gives
    its allowance.  With fewer rows than slots (r < N) the windows are
    empty and s is read past its ends as zeros.
    """
    n_w, u, y = p.n_window, p.u_dim, p.y_dim
    rows = p.k_taps + len(h)
    pad = _sequence(p, h)
    span, item = rows - n_w + 1, pad.itemsize
    walk = np.zeros((n_w, n_w, u, u), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught by the reader
        if span > 0:
            windows = np.ndarray((n_w, span * y, u), complex, pad, n_w * y * u * item,
                                 (y * u * item, u * item, item))
            walk[0] = adj(windows[0]) @ windows
        # the later rows s[rows - n_w + 1 + m] against s[rows - n_w + 1 + m + d]
        later = pad[rows + 1 :].transpose(1, 0, 2).reshape(y, (2 * n_w - 2) * u)
        products = (adj(later[:, : (n_w - 1) * u]) @ later).reshape(n_w - 1, u, 2 * n_w - 2, u)
        block_row, row, block_col, entry = products.strides
        walk[1:] = np.ndarray((n_w - 1, n_w, u, u), complex, products, 0,
                              (block_row + block_col, block_col, row, entry))
        for m in range(1, n_w):  # walk[m, d] becomes G(n_w - 1 - m, n_w - 1 - m - d)
            walk[m] += walk[m - 1]
        slot = np.arange(n_w)
        lower = walk[n_w - 1 - slot[:, None], slot[:, None] - slot]
        blocks = np.where((slot[:, None] >= slot)[:, :, None, None], lower,
                          lower.transpose(1, 0, 3, 2).conj())
    return Gram.formed(blocks.transpose(0, 2, 1, 3).reshape(n_w * u, n_w * u), rows * y)


def assemble_l(p: NehariProblem, h: np.ndarray) -> float:
    """The largest singular value of the truncated combined tap/solution
    operator, for the coefficients H_0..H_deg in a (deg + 1, y, u) array h.

    Only rows -K..deg enter (every other tap row is exactly zero); the rows
    beyond the solution degree are dropped, so the value bounds the norm
    of any extension of these coefficients from below.  A value above
    1 + tol therefore refutes the coefficients, and one within it
    certifies nothing: certifying the full norm waits on Nehari solutions
    written as realizations, as lifting solutions are
    (`hardy.certify_interpolant`).  The value is the lower end of the
    root of the top eigenvalue of the N*u x N*u Gram of the operator,
    formed from its block diagonals (`combined_gram`), a floor of the
    exact truncated norm.  A Gram that overflows floating point raises
    NotFinite.
    """
    if h.shape[1:] != (p.y_dim, p.u_dim):
        raise DimensionMismatch("solution coefficients have wrong port dims")
    lower, upper = combined_gram(p, h).root_of_max_eig()
    if not math.isfinite(upper):
        raise NotFinite("the combined operator of the coefficients overflows floating point")
    return lower


def hat_m_check(nc: Realization, _deg: int) -> tuple[Verdict, Verdict]:
    """The isometry verdicts of the full stacked operator M-hat.

    `redheffer.isometry_certificate` on the Nehari realization: three n x n
    identities and a bound on the Gramian decide the whole operator (the
    storage bound, which needs no Stein solve in the storage coordinates
    of `coefficients`, else the Stein Gramian), so the degree `_deg`
    changes nothing.  It stays in the signature for the
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
    return Realization(
        x1=zeros(u, u),
        x2=np.hstack([zeros(u, y), eye(u)]),
        x3=eye(u),
        x4=zeros(y, u),
        x5=np.hstack([eye(y), zeros(y, u)]),
        e=psd_sqrt(_strict_gram(p)),
        base=p.a,  # Gamma_-, the one window column
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
    slots = eye(p.n_window * p.u_dim)
    return LiftingDataSet(
        a=p.a,
        t_prime=np.eye(p.a.shape[0], k=p.y_dim, dtype=complex),
        r=slots[:, : (p.n_window - 1) * p.u_dim],
        q=slots[:, p.u_dim :],
    )
