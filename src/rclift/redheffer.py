"""State-space coefficients of the linear fractional solution formula.

For a strict instance the four coefficient functions

    P11(lam) = lam * X3 (I - lam X1)^-1 X2,   P12(lam) = X3 (I - lam X1)^-1 E,
    P21(lam) = X5 + lam * X4 (I - lam X1)^-1 X2,   P22(lam) = X4 (I - lam X1)^-1 E,

are built from five operators X1..X5, an input embedding E, and three
positive definite weights.  Every solution of the lifting problem is
P22 + P21 V (I - P11 V)^-1 P12 over a free Schur parameter V; V = 0 gives
the central solution.  The input space of X2/X5 is the orthogonal sum of
the gap-defect coordinates, the dilation-defect coordinates, and Ker R*,
in that order.

`Realization`, the one realization type, holds X1..X5, E and the base
block of the stacked solution operator; every function below takes any
realization, the contraction certificate `kyp_norm` too.  One core,
`storage_coefficients`, returns both problems' realizations, in one
coordinate convention: the state is written in storage coordinates W x,
for a factor W with W*W = D_A^2, so that E = W, the base block is A and
the colligation [[X1, X2], [X3, 0], [X4, X5]] is a contraction, which
`kyp_norm` reads off the realization alone.  The lifting front end
`build_coefficients` takes W = D_A.  The relaxed Nehari problem is the
specialisation of the lifting theorem to the data set
`nehari.to_lifting_data`, and `nehari.coefficients` takes W the upper
Cholesky factor of its defect Gram, with E and the base block restricted
to the first window slot.  The proof-layer checks at the end read the
lifting `DerivedData`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import schur
from .errors import DimensionMismatch, NotClassicalShape, ResolventSingular
from .hardy import (
    SolutionRealization,
    SolutionTaylor,
    StateSpace,
    markov,
    mult_matrix,
    observability_matrix,
)
from .lifting import DerivedData, Verdict, decide, left_inverse_dar
from .linalg import (
    EPS,
    GRAMIAN_BOUNDS,
    adj,
    disc_stack,
    eye,
    frobenius_upper,
    inv_hpd,
    kernel_embedding,
    min_singular_value,
    norm_bracket,
    operator_norm,
    psd_sqrt,
    solve_hpd,
    zeros,
)


@dataclass(frozen=True)
class Realization:
    """Coefficient-function realization (X1..X5, E) plus the base block.

    `base` is the block the stacked solution operator maps into the base
    space; a solution's first block is `base` and its Hardy-space block
    the transfer function of the solved feedback loop, fed through E.
    Besides the lifting and Nehari realizations, the closed forms of the
    Nehari special cases are realizations with constant X-operators:
    `nehari.special_n1` (window one) and `nehari.special_f0` (zero taps).
    """

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    x4: np.ndarray
    x5: np.ndarray
    e: np.ndarray
    base: np.ndarray

    @property
    def w_dim(self) -> int:
        """Dimension of the parameter output space (X2/X5 input)."""
        return self.x2.shape[1]

    @property
    def kq_dim(self) -> int:
        """Dimension of the parameter input space (X3 output)."""
        return self.x3.shape[0]

    @property
    def dt_dim(self) -> int:
        return self.x4.shape[0]


def omega_weight(j: np.ndarray, rdr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R* D_A^2 R)^-1 J* and the omega weight
    Delta_Omega = I + J (R* D_A^2 R)^-1 J*, for J and R* D_A^2 R."""
    rdr_j = solve_hpd(rdr, adj(j))
    return rdr_j, eye(j.shape[0]) + j @ rdr_j


def storage_coefficients(
    w_r: np.ndarray,
    w_q: np.ndarray,
    rdr: np.ndarray,
    qdq: np.ndarray,
    w_e_q: np.ndarray,
    w_e_r: np.ndarray,
    j: np.ndarray,
    d0: int,
    e: np.ndarray,
    base: np.ndarray,
) -> Realization:
    """The realization of a strict problem written in storage coordinates,
    with input embedding e and base block base.

    For a factor W with W*W = D_A^2 the arguments are W R, W Q,
    R* D_A^2 R, Q* D_A^2 Q, W^-* E_Q, W^-* E_R, J and dim D0 (the first
    rows of J).  The caller passes R* D_A^2 R and Q* D_A^2 Q, which it may
    hold already (corners of D_A^2 when R and Q select slots), or else
    forms as the Grams (W R)*(W R) and (W Q)*(W Q).  The weights are
    Delta_Omega (`omega_weight`) and Grams of the arguments:
    Delta_Q = E_Q* D_A^-2 E_Q = (W^-* E_Q)*(W^-* E_Q), Delta_R likewise.
    With (W Q)^+ = (Q* D_A^2 Q)^-1 (W Q)*:

        X1 = (W R) (W Q)^+,   X4 = (the D_T' rows of J) (W Q)^+,
        X2 = [-(W R) (R* D_A^2 R)^-1 J* Delta_Omega^-1/2, -W^-* E_R Delta_R^-1/2],
        X3 = Delta_Q^-1/2 (W^-* E_Q)*,   X5 = [the D_T' rows of Delta_Omega^-1/2, 0].

    The state is W x, whose storage function is the squared norm; the
    caller's input embedding e is W on the input space.  Two factors differ
    by a unitary on the left, which the realization inherits as a unitary
    change of state coordinates, so the coefficient functions do not
    depend on the choice.
    """
    rdr_j, delta_omega = omega_weight(j, rdr)
    dom_nh = psd_sqrt(inv_hpd(delta_omega))
    dq_nh = psd_sqrt(inv_hpd(adj(w_e_q) @ w_e_q))
    dr_nh = psd_sqrt(inv_hpd(adj(w_e_r) @ w_e_r))
    wq_pinv = solve_hpd(qdq, adj(w_q))
    dt = j.shape[0] - d0
    return Realization(
        x1=w_r @ wq_pinv,
        x2=np.hstack([-w_r @ rdr_j @ dom_nh, -w_e_r @ dr_nh]),
        x3=dq_nh @ adj(w_e_q),
        x4=j[d0:] @ wq_pinv,
        x5=np.hstack([dom_nh[d0:, :], zeros(dt, w_e_r.shape[1])]),
        e=e, base=base,
    )


def build_coefficients(dd: DerivedData) -> Realization:
    """The lifting realization: `storage_coefficients` with W = D_A, so
    E = D_A and base A.

    E_T* D_T' A R is the lower block of J, so [X4; X1] is omega on the F
    coordinates extended by zero, omega E_F*.
    """
    ds = dd.ds
    w_r, w_q = dd.d_a @ ds.r, dd.d_a @ ds.q
    return storage_coefficients(
        w_r, w_q, adj(w_r) @ w_r, adj(w_q) @ w_q, dd.d_a_inv @ dd.ker_q_star,
        dd.d_a_inv @ dd.ker_r_star, dd.j, dd.dim_d_circ, dd.d_a, ds.a
    )


def delta_omega_inverse_residual(dd: DerivedData) -> float:
    """Residual of the closed-form inverse of the omega weight.

    The inverse must equal I - J (Q* D_A^2 Q)^-1 J*, computed here from
    scratch against a direct HPD inversion.
    """
    ds = dd.ds
    dar = dd.d_a @ ds.r
    _, delta_omega = omega_weight(dd.j, adj(dar) @ dar)
    qdq = adj(ds.q) @ (dd.d_a @ dd.d_a) @ ds.q
    closed = eye(dd.j.shape[0]) - dd.j @ solve_hpd(qdq, adj(dd.j))
    return operator_norm(inv_hpd(delta_omega) - closed)


def _resolvent(rc: Realization, lam: np.ndarray) -> np.ndarray:
    """(I - lam X1)^-1 for a factor from `linalg.disc_stack`."""
    try:
        return np.linalg.inv(eye(rc.x1.shape[0]) - lam * rc.x1)
    except np.linalg.LinAlgError as exc:
        raise ResolventSingular(f"I - lam*X1 singular at lam={lam.ravel()!r}") from exc


def phi_eval(
    rc: Realization, lam
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate (P11, P12, P21, P22) at a disc point, or as (k, ., .)
    stacks at a 1-d array of k disc points."""
    lam = disc_stack(lam)
    res = _resolvent(rc, lam)
    res_e = res @ rc.e
    p11 = lam * rc.x3 @ res @ rc.x2
    p12 = rc.x3 @ res_e
    p21 = rc.x5 + lam * rc.x4 @ res @ rc.x2
    p22 = rc.x4 @ res_e
    return p11, p12, p21, p22


def phi_taylor(
    rc: Realization, deg: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Taylor coefficients of the four coefficient functions to degree deg,
    each a (deg + 1, ., .) array.

    Past their constant terms 0 and X5, P11 and P21 have the coefficients
    X3 X1^k X2 and X4 X1^k X2; P12 and P22 have X3 X1^k E and X4 X1^k E.
    All four are blocks of the Markov parameters of X1 with B = [X2, E]
    and C = [X3; X4].
    """
    kq, w = rc.kq_dim, rc.w_dim
    mk = markov(rc.x1, np.hstack([rc.x2, rc.e]), np.vstack([rc.x3, rc.x4]), deg + 1)
    p11 = np.concatenate([zeros(kq, w)[None], mk[:deg, :kq, :w]])
    p21 = np.concatenate([rc.x5[None], mk[:deg, kq:, :w]])
    return p11, mk[:, :kq, w:], p21, mk[:, kq:, w:]


def _check_parameter(rc: Realization, v: StateSpace) -> None:
    if v.in_dim != rc.kq_dim or v.out_dim != rc.w_dim:
        raise DimensionMismatch(
            f"parameter dims {v.out_dim}x{v.in_dim}, "
            f"expected {rc.w_dim}x{rc.kq_dim}"
        )


def z_from_v(rc: Realization, v: StateSpace, lam) -> np.ndarray:
    """The underlying disc function pinned to omega on F, at one point, or
    as a (k, ., .) stack at a 1-d array of k points:
    [X4; X1] + [X5; X2] V(lam) X3.

    Maps the contraction defect space into the orthogonal sum of dilation
    defect and contraction defect coordinates; its restriction to the F
    basis equals omega for every parameter and every disc point, because
    X3 vanishes on F and [X4; X1] is omega E_F*.
    """
    _check_parameter(rc, v)
    gain = np.vstack([rc.x5, rc.x2])
    return np.vstack([rc.x4, rc.x1]) + gain @ schur.eval(v, lam) @ rc.x3


def solution_realization(rc: Realization, v: StateSpace) -> SolutionRealization:
    """The solution attached to a Schur parameter, in state-space form.

    The base block is the realization's `base`; the Hardy-space block is
    the transfer function C_cl (I - lam A_cl)^-1 E_cl of the solved
    feedback loop, whose state stacks the coefficient state on top of the
    parameter state, with the input entering the coefficient state through
    E.  It is written Gamma_0 + lam C (I - lam A)^-1 B with
    Gamma_0 = C_cl E_cl, A = A_cl, B = A_cl E_cl and C = C_cl: the
    quadruple {A, B, C, D = Gamma_0} of a transfer function.
    """
    _check_parameter(rc, v)
    a_cl = np.block(
        [
            [rc.x1 + rc.x2 @ v.d @ rc.x3, rc.x2 @ v.c],
            [v.b @ rc.x3, v.a],
        ]
    )
    c_cl = np.hstack([rc.x4 + rc.x5 @ v.d @ rc.x3, rc.x5 @ v.c])
    e_cl = np.vstack([rc.e, zeros(v.state_dim, rc.e.shape[1])])
    return SolutionRealization(
        a_part=rc.base, gamma_coeffs=(c_cl @ e_cl)[None], a=a_cl, b=a_cl @ e_cl, c=c_cl
    )


def solution_taylor(rc: Realization, v: StateSpace, deg: int) -> SolutionTaylor:
    """Taylor coefficients of the solution attached to a Schur parameter.

    The base block is the realization's `base`; the Hardy-space block
    holds the closed-loop coefficients to degree deg.
    """
    return solution_realization(rc, v).taylor(deg)


# --- the stacked solution operator ----------------------------------------------

FP_GRAM_TOL = 1e-10  # roundoff allowance of the n x n certificate identities
M_EXTRA_ROWS = 16  # coefficient rows `assemble_m` keeps past the degree


def assemble_m(rc: Realization, deg: int) -> np.ndarray:
    """Dense truncation of the stacked solution operator M.

    Rows: the base space, then coefficient rows (0..deg+M_EXTRA_ROWS) of
    the two Hardy-space outputs; columns: coefficient columns (0..deg) of the
    parameter-output space, then the input space of E.  No check uses it:
    `isometry_certificate` and `kyp_norm` decide the full operator exactly.
    It, and with it `hardy.mult_matrix`, stays in the package only because
    the benchmark's degree sweep times it; the tests use it as the dense
    oracle of both certificates.
    """
    deg_out = deg + M_EXTRA_ROWS
    p11, p12, p21, p22 = phi_taylor(rc, deg_out)
    m11 = mult_matrix(p11, deg, deg_out=deg_out)
    m21 = mult_matrix(p21, deg, deg_out=deg_out)
    g12 = observability_matrix(p12)
    g22 = observability_matrix(p22)
    top = np.hstack([zeros(rc.base.shape[0], (deg + 1) * rc.w_dim), rc.base])
    return np.block(
        [
            [top],
            [m11, g12],
            [m21, g22],
        ]
    )


def isometry_certificate(rc: Realization) -> tuple[Verdict, Verdict]:
    """Decide whether the full stacked solution operator is an isometry.

    M is the output map of x+ = X1 x + X2 w, y = C x + D w with C = [X3; X4],
    D = [0; X5] and initial state E u, plus the base row.  With the
    observability Gramian P = X1* P X1 + C*C its Gram is I exactly when

        D*D + X2* P X2 = I,   C*D + X1* P X2 = 0,   base*base + E* P E = I,

    three identities of size at most n x n.  Roundoff: each B1* P B2 comes
    from a bound on P, with the bound on its error that the bound's `form`
    gives, for (X2, X2), (X1, X2) and (E, E).  The explicit parts D*D, C*D
    and base*base, an inner dimension r each, round by at most
    (r + 2) eps times the product of their factors' Frobenius norms, and
    the two sums by 2 eps times the sum of the Frobenius norms of their
    terms (first order).  Those errors and the form's widen the computed
    residual both ways, with that of its SVD (`linalg.norm_bracket`), and
    none is ever added to the threshold.

    Each bound of `linalg.GRAMIAN_BOUNDS` that has a check offers its
    verdicts, in that order.  First the storage bound, which needs no
    Stein solve: in storage coordinates (`storage_coefficients`, both
    problems) [X1; C] has orthonormal columns up to rounding, so P is I up
    to a rounding-level error and it decides every realization that is
    not near the strictness boundary.  Then the Stein Gramian, and last
    the verdicts that know nothing, (0, inf) each; `lifting.decide` picks
    the verdicts that stand.

    Two verdicts: `state_spectral_radius`, with the deciding bound's
    bound on the spectral radius of X1 as its upper end and 0 as its
    lower, at 1.0; and `stacked_isometry_residual`, the largest residual
    of the three identities widened both ways, the lower end floored at
    0, at FP_GRAM_TOL.  The radius is certified whenever a bound proves X1
    stable; when neither does, there is no Gramian, both upper ends are
    inf and the residual's floor is 0, so neither verdict is certified.
    """
    exact = (_isometry_verdicts(rc, gramian_bound) for gramian_bound in GRAMIAN_BOUNDS)
    unknown = (Verdict("state_spectral_radius", 0.0, np.inf, 1.0),
               Verdict("stacked_isometry_residual", 0.0, np.inf, FP_GRAM_TOL))
    return decide(chain((v for v in exact if v is not None), [unknown]))


def _isometry_verdicts(rc: Realization, gramian_bound) -> tuple[Verdict, Verdict] | None:
    """The verdicts of `isometry_certificate` over one bound on the
    Gramian (a function of `linalg.GRAMIAN_BOUNDS`), None when it has no
    check."""
    c = np.vstack([rc.x3, rc.x4])
    bound = gramian_bound(rc.x1, c)
    if bound is None:
        return None
    d = np.vstack([zeros(rc.kq_dim, rc.w_dim), rc.x5])
    f = frobenius_upper
    identities = (  # the explicit part's factors, B1* P B2 with its error, dim of I (0: zero)
        (d, d, bound.form(rc.x2, rc.x2), rc.w_dim),
        (c, d, bound.form(rc.x1, rc.x2), 0),
        (rc.base, rc.base, bound.form(rc.e, rc.e), rc.e.shape[1]),
    )
    brackets = []
    for f1, f2, (bpb, err), dim in identities:
        m = adj(f1) @ f2
        residual = m + bpb - eye(dim) if dim else m + bpb
        formed = ((f1.shape[0] + 2) * EPS * f(f1) * f(f2)
                  + 2.0 * EPS * (f(m) + f(bpb) + math.sqrt(dim)))
        brackets.append(norm_bracket(residual, err + formed))
    return (Verdict("state_spectral_radius", 0.0, bound.radius_bound, 1.0),
            Verdict("stacked_isometry_residual", max(lo for lo, _ in brackets),
                    max(hi for _, hi in brackets), FP_GRAM_TOL))


def kyp_norm(rc: Realization) -> float:
    """max(||[[X1, X2], [X3, 0], [X4, X5]]||, ||[base; E]||): at most 1
    certifies ||M|| <= 1.

    With the storage function ||x||^2 the colligation maps (x, w) to
    (x+, y), so its norm at most 1 is the bounded real (KYP) inequality of
    the system behind M: summed over time the outputs carry at most
    ||E u||^2 + ||w||^2, and ||[base; E]|| <= 1 closes the base row with
    the initial state E u.  [P11; P21] is the transfer function of the
    colligation, so the same bound certifies P11 and P21 as Schur class on
    the whole disc.  It is 1 on every realization of `storage_coefficients`
    (storage coordinates), lifting and Nehari alike.
    A truncation of M keeping T output steps (T = deg+M_EXTRA_ROWS+1 in
    `assemble_m`) has norm at most max(1, kyp_norm)^(T+1), so a value
    within 1 + 1e-10 keeps every truncation below 10^4 steps within
    1 + 1e-6.
    """
    colligation = np.block(
        [[rc.x1, rc.x2], [rc.x3, zeros(rc.kq_dim, rc.w_dim)], [rc.x4, rc.x5]]
    )
    return max(operator_norm(colligation), operator_norm(np.vstack([rc.base, rc.e])))


# --- proof-layer consistency checks ---------------------------------------------


@dataclass(frozen=True)
class YGramReport:
    residual: float
    sigma_min_y_star: float


def y_gram_check(dd: DerivedData) -> YGramReport:
    """Gram identity for the column operator behind the parameterization.

    Builds Y from the omega weight, J, the left inverse of D_A R, and the
    kernel coordinates of R* D_A, and compares Y*Y with the defect square
    of omega-adjoint.  Also reports the smallest singular value of Y*,
    which must be positive (trivial kernel).
    """
    ds = dd.ds
    d0 = dd.dim_d_circ
    dt = dd.dim_dt
    dar = dd.d_a @ ds.r
    _, delta_omega = omega_weight(dd.j, adj(dar) @ dar)
    dom_nh = psd_sqrt(inv_hpd(delta_omega))
    l_dar = left_inverse_dar(dd)
    ker_rda = kernel_embedding(dar)
    kr = ker_rda.shape[1]
    h = ds.dim_h
    embed_t = np.vstack([zeros(d0, dt), eye(dt)])
    y = np.block(
        [
            [dom_nh @ embed_t, -dom_nh @ dd.j @ l_dar],
            [zeros(kr, dt), -adj(ker_rda)],
        ]
    )
    omega = dd.omega
    d_om_star_sq = eye(dt + h) - omega @ adj(omega)
    residual = operator_norm(adj(y) @ y - d_om_star_sq)
    return YGramReport(residual=residual, sigma_min_y_star=min_singular_value(adj(y)))


def projection_identity_check(dd: DerivedData) -> tuple[float, float]:
    """Residuals of the weighted projection formulas onto Ker N* D_A.

    For N in {Q, R} the projector onto Ker N* D_A must equal
    D_A^-1 Pi* Delta_N^-1 Pi D_A^-1 with Pi the compression onto Ker N*;
    the oracle projector comes from an SVD kernel basis.
    """
    ds = dd.ds
    out = []
    for n_mat, e in ((ds.q, dd.ker_q_star), (ds.r, dd.ker_r_star)):
        delta = adj(e) @ dd.d_a_sq_inv @ e
        formula = dd.d_a_inv @ e @ solve_hpd(delta, adj(e)) @ dd.d_a_inv
        k = kernel_embedding(dd.d_a @ n_mat)
        oracle = k @ adj(k)
        out.append(operator_norm(formula - oracle))
    return out[0], out[1]


def classical_phi_eval(
    dd: DerivedData, lam, exponent_reading: str = "corrected"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form coefficient functions for the classical shape (R = I,
    Q isometric), used only to cross-check the general pipeline: at a disc
    point, or as (k, ., .) stacks at a 1-d array of k points, with the
    factors that do not depend on the point computed once.

    The printed closed forms carry ambiguous defect exponents: the Ker Q*
    weight appears with a first power where the general construction
    prescribes the square, and the derivation of the second Schur-class
    coefficient mixes first and second inverse powers in its middle
    factor.  `as-printed` keeps the first powers, `corrected` uses the
    squares throughout.  Exactly one reading agrees with the general
    pipeline; the suite records which.
    """
    if exponent_reading not in ("as-printed", "corrected"):
        raise ValueError(f"unknown exponent reading {exponent_reading!r}")
    ds = dd.ds
    h = ds.dim_h
    if ds.r.shape != (h, h) or operator_norm(ds.r - eye(h)) > 1e-10:
        raise NotClassicalShape("classical shape needs R = I")
    if operator_norm(adj(ds.q) @ ds.q - eye(ds.q.shape[1])) > 1e-10:
        raise NotClassicalShape("classical shape needs an isometric Q")
    lam = disc_stack(lam)

    d_a_sq = dd.d_a @ dd.d_a
    aq = ds.a @ ds.q
    daq_sq = eye(ds.q.shape[1]) - adj(aq) @ aq
    t_a = solve_hpd(daq_sq, adj(ds.q) @ d_a_sq)

    e_q = dd.ker_q_star
    d_t, e_t = ds.t_prime_defect
    j_cls = adj(e_t) @ (d_t @ ds.a)
    delta_om = eye(dd.dim_dt) + j_cls @ dd.d_a_sq_inv @ adj(j_cls)
    if exponent_reading == "as-printed":
        delta_q = adj(e_q) @ dd.d_a_inv @ e_q
        middle = dd.d_a_inv
    else:
        delta_q = adj(e_q) @ dd.d_a_sq_inv @ e_q
        middle = dd.d_a_sq_inv
    dq_nh = psd_sqrt(inv_hpd(delta_q))
    dom_nh = psd_sqrt(inv_hpd(delta_om))
    dom_h = psd_sqrt(delta_om)

    try:
        res = np.linalg.inv(eye(h) - lam * t_a)
    except np.linalg.LinAlgError as exc:
        raise ResolventSingular(f"I - lam*T_A singular at lam={lam.ravel()!r}") from exc
    p11 = -lam * dq_nh @ adj(e_q) @ res @ dd.d_a_sq_inv @ adj(j_cls) @ dom_nh
    p12 = dq_nh @ adj(e_q) @ res
    p21 = dom_h - j_cls @ res @ middle @ adj(j_cls) @ dom_nh
    p22 = j_cls @ res @ t_a
    return p11, p12, p21, p22
