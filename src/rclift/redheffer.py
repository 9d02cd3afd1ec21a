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

`Realization` holds X1..X5, E and the base block of the stacked solution
operator; every function below takes any realization, the contraction
certificate `kyp_norm` too.  The lifting realization is written in
storage coordinates, the state D_A x, so that E = D_A, the base block is
A and the colligation [[X1, X2], [X3, 0], [X4, X5]] is a contraction,
which `kyp_norm` reads off the realization alone; the relaxed Nehari
problem is the specialisation of the lifting theorem whose realization
`nehari` builds in closed form, in the paper's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schur
from .errors import DimensionMismatch, NotClassicalShape, ResolventSingular
from .hardy import (
    SolutionRealization,
    SolutionTaylor,
    markov,
    mult_matrix,
    observability_matrix,
)
from .lifting import DerivedData, left_inverse_dar
from .linalg import (
    adj,
    disc_stack,
    eye,
    inv_hpd,
    kernel_embedding,
    observability_gramian,
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


@dataclass(frozen=True)
class RedhefferCoefficients(Realization):
    """The lifting realization, in storage coordinates (`build_coefficients`),
    with its derived data and weights."""

    dd: DerivedData
    delta_q: np.ndarray
    delta_omega: np.ndarray


def build_coefficients(dd: DerivedData) -> RedhefferCoefficients:
    """Assemble X1..X5 and the weights from derived data (strict only).

    The state is written in storage coordinates D_A x, whose storage
    function is the squared norm.  With (D_A Q)^+ = (Q* D_A^2 Q)^-1 (D_A Q)*:

        X1 = (D_A R) (D_A Q)^+,   X4 = (E_T* D_T' A R) (D_A Q)^+,
        X2 = [-(D_A R) (R* D_A^2 R)^-1 J* Delta_Omega^-1/2, -D_A^-1 E_R Delta_R^-1/2],
        X3 = Delta_Q^-1/2 E_Q* D_A^-1,   X5 = [the D_T' rows of Delta_Omega^-1/2, 0],

    E = D_A and base A.  E_T* D_T' A R is the lower block of J, so [X4; X1]
    is omega on the F coordinates extended by zero, omega E_F*.
    """
    dd.require_strict()
    ds = dd.ds
    d_a_sq = dd.d_a @ dd.d_a
    qdq = adj(ds.q) @ d_a_sq @ ds.q
    rdr = adj(ds.r) @ d_a_sq @ ds.r
    dar = dd.d_a @ ds.r

    e_q = dd.ker_q_star
    e_r = dd.ker_r_star
    d0 = dd.dim_d_circ
    dt = dd.dim_dt
    kr = e_r.shape[1]

    rdr_j = solve_hpd(rdr, adj(dd.j))
    delta_omega = eye(d0 + dt) + dd.j @ rdr_j
    delta_q = adj(e_q) @ dd.d_a_sq_inv @ e_q
    delta_r = adj(e_r) @ dd.d_a_sq_inv @ e_r

    dom_nh = psd_sqrt(inv_hpd(delta_omega))
    dq_nh = psd_sqrt(inv_hpd(delta_q))
    dr_nh = psd_sqrt(inv_hpd(delta_r))

    daq_pinv = solve_hpd(qdq, adj(dd.d_a @ ds.q))
    x1 = dar @ daq_pinv
    x2 = np.hstack([-dar @ rdr_j @ dom_nh, -dd.d_a_inv @ e_r @ dr_nh])
    x3 = dq_nh @ adj(e_q) @ dd.d_a_inv
    x4 = dd.j[d0:] @ daq_pinv
    x5 = np.hstack([dom_nh[d0:, :], zeros(dt, kr)])

    return RedhefferCoefficients(
        x1=x1,
        x2=x2,
        x3=x3,
        x4=x4,
        x5=x5,
        e=dd.d_a,
        base=ds.a,
        dd=dd,
        delta_q=delta_q,
        delta_omega=delta_omega,
    )


def delta_omega_inverse_residual(rc: RedhefferCoefficients) -> float:
    """Residual of the closed-form inverse of the omega weight.

    The inverse must equal I - J (Q* D_A^2 Q)^-1 J*, computed here from
    scratch against a direct HPD inversion.
    """
    dd = rc.dd
    ds = dd.ds
    qdq = adj(ds.q) @ (dd.d_a @ dd.d_a) @ ds.q
    closed = eye(dd.j.shape[0]) - dd.j @ solve_hpd(qdq, adj(dd.j))
    return operator_norm(inv_hpd(rc.delta_omega) - closed)


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


def z_from_v(
    rc: RedhefferCoefficients, v: schur.SchurParameter, lam
) -> np.ndarray:
    """The underlying disc function pinned to omega on F, at one point, or
    as a (k, ., .) stack at a 1-d array of k points:
    [X4; X1] + [X5; X2] V(lam) X3.

    Maps the contraction defect space into the orthogonal sum of dilation
    defect and contraction defect coordinates; its restriction to the F
    basis equals omega for every parameter and every disc point, because
    X3 vanishes on F and [X4; X1] is omega E_F*.
    """
    if v.in_dim != rc.kq_dim or v.out_dim != rc.w_dim:
        raise DimensionMismatch(
            f"parameter dims {v.out_dim}x{v.in_dim}, "
            f"expected {rc.w_dim}x{rc.kq_dim}"
        )
    gain = np.vstack([rc.x5, rc.x2])
    return np.vstack([rc.x4, rc.x1]) + gain @ schur.eval(v, lam) @ rc.x3


def closed_loop_realization(
    rc: Realization, v: schur.SchurParameter
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Realization (A_cl, C_cl, E_cl) of the solved feedback loop.

    The solution function equals C_cl (I - lam A_cl)^-1 E_cl: the loop
    state stacks the coefficient state on top of the parameter state, and
    the input enters the coefficient state through E, so Taylor
    coefficients come out as C_cl @ A_cl^k @ E_cl.
    """
    if v.in_dim != rc.kq_dim or v.out_dim != rc.w_dim:
        raise DimensionMismatch(
            f"parameter dims {v.out_dim}x{v.in_dim}, "
            f"expected {rc.w_dim}x{rc.kq_dim}"
        )
    a_cl = np.block(
        [
            [rc.x1 + rc.x2 @ v.d @ rc.x3, rc.x2 @ v.c],
            [v.b @ rc.x3, v.a],
        ]
    )
    c_cl = np.hstack([rc.x4 + rc.x5 @ v.d @ rc.x3, rc.x5 @ v.c])
    e_cl = np.vstack([rc.e, zeros(v.state_dim, rc.e.shape[1])])
    return a_cl, c_cl, e_cl


def solution_realization(rc: Realization, v: schur.SchurParameter) -> SolutionRealization:
    """The solution attached to a Schur parameter, in state-space form.

    The base block is the realization's `base`; the Hardy-space block
    C_cl (I - lam A_cl)^-1 E_cl is written Gamma_0 + lam C (I - lam A)^-1 B
    with Gamma_0 = C_cl E_cl, A = A_cl, B = A_cl E_cl and C = C_cl: the
    quadruple {A, B, C, D = Gamma_0} of a transfer function.
    """
    a_cl, c_cl, e_cl = closed_loop_realization(rc, v)
    return SolutionRealization(
        a_part=rc.base, gamma_coeffs=(c_cl @ e_cl)[None], a=a_cl, b=a_cl @ e_cl, c=c_cl
    )


def solution_taylor(
    rc: Realization, v: schur.SchurParameter, deg: int
) -> SolutionTaylor:
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


@dataclass(frozen=True)
class IsometryCertificate:
    """Exact isometry test of the full stacked solution operator M.

    `residual` bounds from above, and `residual_floor` from below, the
    largest residual of the three identities that make M an isometry, taken
    with the exact Gramian; `stein_residual` is the Stein residual of the
    computed one, and `radius_bound` its bound on the spectral radius of X1.
    `status` is "certified" when the upper bound is within FP_GRAM_TOL,
    "refuted" when the lower bound exceeds it, and "uncertified" otherwise,
    always so when X1 is not certified stable (no Gramian, floor 0, rest inf).
    """

    residual: float
    residual_floor: float
    stein_residual: float
    radius_bound: float

    @property
    def status(self) -> str:
        if self.residual <= FP_GRAM_TOL:
            return "certified"
        if self.residual_floor > FP_GRAM_TOL:
            return "refuted"
        return "uncertified"


def isometry_certificate(rc: Realization) -> IsometryCertificate:
    """Decide whether the full stacked solution operator is an isometry.

    M is the output map of x+ = X1 x + X2 w, y = C x + D w with C = [X3; X4],
    D = [0; X5] and initial state E u, plus the base row.  With the
    observability Gramian P = X1* P X1 + C*C its Gram is I exactly when

        D*D + X2* P X2 = I,   C*D + X1* P X2 = 0,   base*base + E* P E = I,

    three identities of size at most n x n.  Roundoff: each B1* P B2 comes
    with the bound on its error that `linalg.SteinGramian.form` gives, for
    (X2, X2), (X1, X2) and (E, E); it widens the computed residual both
    ways and is never added to the threshold.
    """
    c = np.vstack([rc.x3, rc.x4])
    d = np.vstack([zeros(rc.kq_dim, rc.w_dim), rc.x5])
    g = observability_gramian(rc.x1, c)
    if g is None:
        return IsometryCertificate(np.inf, 0.0, np.inf, np.inf)
    identities = (  # explicit part, (B1* P B2, its error bound), identity
        (adj(d) @ d, g.form(rc.x2, rc.x2), eye(rc.w_dim)),
        (adj(c) @ d, g.form(rc.x1, rc.x2), 0.0),
        (adj(rc.base) @ rc.base, g.form(rc.e, rc.e), eye(rc.e.shape[1])),
    )
    computed = [(operator_norm(m + bpb - i), err) for m, (bpb, err), i in identities]
    return IsometryCertificate(
        residual=float(max(r + err for r, err in computed)),
        residual_floor=float(max(r - err for r, err in computed)),
        stein_residual=g.stein_residual,
        radius_bound=g.radius_bound,
    )


def kyp_norm(rc: Realization) -> float:
    """max(||[[X1, X2], [X3, 0], [X4, X5]]||, ||[base; E]||): at most 1
    certifies ||M|| <= 1.

    With the storage function ||x||^2 the colligation maps (x, w) to
    (x+, y), so its norm at most 1 is the bounded real (KYP) inequality of
    the system behind M: summed over time the outputs carry at most
    ||E u||^2 + ||w||^2, and ||[base; E]|| <= 1 closes the base row with
    the initial state E u.  [P11; P21] is the transfer function of the
    colligation, so the same bound certifies P11 and P21 as Schur class on
    the whole disc.  It is 1 on a lifting realization (storage
    coordinates); in other coordinates it may exceed 1 on a contractive M.
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


def y_gram_check(rc: RedhefferCoefficients) -> YGramReport:
    """Gram identity for the column operator behind the parameterization.

    Builds Y from the omega weight of `rc`, J, the left inverse of D_A R,
    and the kernel coordinates of R* D_A, and compares Y*Y with the defect
    square of omega-adjoint.  Also reports the smallest singular value of
    Y*, which must be positive (trivial kernel).
    """
    dd = rc.dd
    ds = dd.ds
    d0 = dd.dim_d_circ
    dt = dd.dim_dt
    dom_nh = psd_sqrt(inv_hpd(rc.delta_omega))
    l_dar = left_inverse_dar(dd)
    ker_rda = kernel_embedding(dd.d_a @ ds.r)
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
    svals = np.linalg.svd(y, compute_uv=False)
    sigma_min = float(svals[-1]) if svals.size else float("inf")
    return YGramReport(residual=residual, sigma_min_y_star=sigma_min)


def projection_identity_check(dd: DerivedData) -> tuple[float, float]:
    """Residuals of the weighted projection formulas onto Ker N* D_A.

    For N in {Q, R} the projector onto Ker N* D_A must equal
    D_A^-1 Pi* Delta_N^-1 Pi D_A^-1 with Pi the compression onto Ker N*;
    the oracle projector comes from an SVD kernel basis.
    """
    dd.require_strict()
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
    dd.require_strict()
    lam = disc_stack(lam)

    d_a_sq = dd.d_a @ dd.d_a
    aq = ds.a @ ds.q
    daq_sq = eye(ds.q.shape[1]) - adj(aq) @ aq
    t_a = solve_hpd(daq_sq, adj(ds.q) @ d_a_sq)

    e_q = dd.ker_q_star
    j_cls = adj(dd.dt_embedding) @ (dd.d_t_prime @ ds.a)
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
