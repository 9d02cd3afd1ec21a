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
bottom-up), and block column j holds window slot j.  `_gather` lays out
every operator from a (k, y, u) stack of blocks and an index table: the
Hankel matrix takes the padded taps F_-1, ..., F_-(N+K) at n + j, and the
combined tap/solution operator of `assemble_l` the sequence F_-K, ...,
F_-1, H_0, H_1, ... at i - j.  `gram` sums over the same padded taps, and
`to_lifting_data` selects slots of that layout: T' shifts the tap rows
up by one block, R drops the last window slot and Q the first.

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

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HankelNotStrict, NotFinite
from .lifting import LiftingDataSet, Verdict
from .linalg import (
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


def _padded_taps(p: NehariProblem) -> np.ndarray:
    """F_-1, ..., F_-(N+K) as one (N + K, y, u) stack, zero past F_-K."""
    f = np.zeros((p.n_window + p.k_taps, p.y_dim, p.u_dim), dtype=complex)
    if p.k_taps:
        f[: p.k_taps] = p.taps
    return f


def _gather(seq: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The block matrix whose block (r, c) is seq[idx[r, c]], for a
    (k, y, u) stack seq and an integer table idx."""
    rows, cols = idx.shape
    _, y, u = seq.shape
    return seq[idx].transpose(0, 2, 1, 3).reshape(rows * y, cols * u)


def hankel(p: NehariProblem) -> np.ndarray:
    """The N-truncated Hankel matrix, serialized bottom-up.

    Block row n (coordinate n, index -n) is [F_-n, F_-n-1, ..., F_-n-N+1],
    for n = 1..max(K, 1).  Every deeper row is zero, so the norm is the
    exact Hankel norm.
    """
    rows = max(p.k_taps, 1)
    idx = np.arange(rows)[:, None] + np.arange(p.n_window)[None, :]
    return _gather(_padded_taps(p), idx)


def gram(p: NehariProblem) -> np.ndarray:
    """The defect Gram of the Hankel matrix, from the displayed sums.

    Block (i, j) is I - S(i, j) with S(i, j) = sum_{n>=i} F_-n* F_{-n+i-j}
    (all sums finite), which equals I - A*A of the Hankel matrix.  The
    sums run down the block diagonals: S(i, j) = F_-i* F_-j + S(i+1, j+1)
    with S(K+1, .) = 0, one batched product over the stacked taps per i
    from K down to 1, with j over 1..N+K so every later step finds its
    shifted row.
    """
    n_w, u, k = p.n_window, p.u_dim, p.k_taps
    f = _padded_taps(p)
    s = np.zeros((n_w + k + 1, u, u), dtype=complex)  # S(i, 1..N+K), then a zero
    rows = np.zeros((n_w, n_w, u, u), dtype=complex)
    for i in range(k, 0, -1):
        s[:-1] = np.matmul(adj(f[i - 1]), f) + s[1:]
        if i <= n_w:
            rows[i - 1] = s[:n_w]
    out = eye(n_w * u) - rows.transpose(0, 2, 1, 3).reshape(n_w * u, n_w * u)
    return 0.5 * (out + adj(out))


def _strict_gram(p: NehariProblem) -> np.ndarray:
    """The defect Gram `gram(p)`; HankelNotStrict unless its least
    eigenvalue is at least GRAM_MIN_EIG, so that the Hankel matrix is a
    strict contraction."""
    lam = gram(p)
    min_eig = min_eig_hermitian(lam)
    if min_eig < GRAM_MIN_EIG:
        raise HankelNotStrict(
            f"defect Gram min eigenvalue {min_eig:.3e} < {GRAM_MIN_EIG:g}"
        )
    return lam


def coefficients(p: NehariProblem) -> Realization:
    """The realization of the lifting data set `to_lifting_data(p)`:
    `redheffer.storage_coefficients` with W the upper Cholesky factor of
    the gated defect Gram Lambda = W*W, E = W e_1 and base Gamma_-.

    The structure of the data set is known in closed form, so nothing but
    Lambda is factored.  R and Q drop the last and the first window slot,
    so W R and W Q are column blocks of W.  Ker Q* and Ker R* are the first
    and the last slot, so W^-* E_Q and W^-* E_R come from one triangular
    solve.  Q*Q = R*R = I leaves D0 = 0, and T' shifts the tap rows up, so
    its defect keeps the first tap row and J is the first tap row of A R.
    """
    n_w, u, y = p.n_window, p.u_dim, p.y_dim
    m = (n_w - 1) * u
    a = hankel(p)
    w = hpd_factor(_strict_gram(p))
    slots = eye(n_w * u)
    w_slots = solve_factor_adjoint(w, np.hstack([slots[:, :u], slots[:, m:]]))  # [E_Q, E_R]
    xs, _, _ = storage_coefficients(
        w[:, :m], w[:, u:], w_slots[:, :u], w_slots[:, u:], a[:y, :m], 0
    )
    return Realization(**xs, e=w[:, :u], base=a[:, :u])


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
    F_-K, ..., F_-1, H_0, ..., H_deg (zero before F_-K), laid out by
    `_gather`; the norm is the root of the top eigenvalue of the
    N*u x N*u Gram of the block-Toeplitz matrix.  A Gram that overflows
    floating point raises NotFinite.
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
    out = _gather(seq, idx)
    if out.size == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        gram_out = adj(out) @ out
    if not np.all(np.isfinite(gram_out)):
        raise NotFinite("the combined operator of the coefficients overflows floating point")
    top = np.linalg.eigvalsh(gram_out)[-1]
    return float(np.sqrt(max(top, 0.0)))


def hat_m_check(nc: Realization, _deg: int) -> tuple[Verdict, Verdict]:
    """The isometry verdicts of the full stacked operator M-hat.

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
    return Realization(
        x1=zeros(u, u),
        x2=np.hstack([zeros(u, y), eye(u)]),
        x3=eye(u),
        x4=zeros(y, u),
        x5=np.hstack([eye(y), zeros(y, u)]),
        e=psd_sqrt(_strict_gram(p)),
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
    slots = eye(p.n_window * p.u_dim)
    return LiftingDataSet(
        a=hankel(p),
        t_prime=np.eye(rows * p.y_dim, k=p.y_dim, dtype=complex),
        r=slots[:, : (p.n_window - 1) * p.u_dim],
        q=slots[:, p.u_dim :],
    )
