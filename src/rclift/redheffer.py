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
operator; the evaluation, Taylor expansion, feedback loop, stacked
operator and its isometry certificate below take any realization, while
the contraction certificate `kyp_norm` needs the lifting weight D_A.
For the lifting problem E is the identity and the base block is A; the
relaxed Nehari problem is the specialisation of the lifting theorem whose
realization `nehari` builds in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import schur
from .errors import DimensionMismatch, NotClassicalShape, ResolventSingular
from .hardy import SolutionTaylor, TaylorSeries, mult_matrix, observability_matrix
from .lifting import DerivedData, left_inverse_dar
from .linalg import (
    adj,
    eye,
    inv_hpd,
    kernel_embedding,
    operator_norm,
    psd_sqrt,
    solve_hpd,
    spectral_radius,
    zeros,
)


@dataclass(frozen=True)
class Realization:
    """Coefficient-function realization (X1..X5, E) plus the base block.

    `base` is the block the stacked solution operator maps into the base
    space; a solution's first block is `base` and its Hardy-space block
    the transfer function of the solved feedback loop, fed through E.
    """

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    x4: np.ndarray
    x5: np.ndarray
    e: np.ndarray
    base: np.ndarray
    r_spec_x1: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "r_spec_x1", spectral_radius(self.x1))

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
    """The lifting realization with its derived data and weights."""

    dd: DerivedData
    delta_q: np.ndarray
    delta_omega: np.ndarray


def build_coefficients(dd: DerivedData) -> RedhefferCoefficients:
    """Assemble X1..X5 and the weights from derived data (strict only)."""
    dd.require_strict()
    ds = dd.ds
    d_a_sq = dd.d_a @ dd.d_a
    qdq = adj(ds.q) @ d_a_sq @ ds.q
    rdr = adj(ds.r) @ d_a_sq @ ds.r

    e_q = dd.ker_q_star.basis
    e_r = dd.ker_r_star.basis
    d0 = dd.dim_d_circ
    dt = dd.dim_dt
    kr = e_r.shape[1]

    delta_omega = eye(d0 + dt) + dd.j @ solve_hpd(rdr, adj(dd.j))
    delta_q = adj(e_q) @ dd.d_a_sq_inv @ e_q
    delta_r = adj(e_r) @ dd.d_a_sq_inv @ e_r

    dom_nh = psd_sqrt(inv_hpd(delta_omega))
    dq_nh = psd_sqrt(inv_hpd(delta_q))
    dr_nh = psd_sqrt(inv_hpd(delta_r))

    x1 = ds.r @ solve_hpd(qdq, adj(ds.q) @ d_a_sq)
    x2 = np.hstack(
        [
            -ds.r @ solve_hpd(rdr, adj(dd.j)) @ dom_nh,
            -dd.d_a_sq_inv @ e_r @ dr_nh,
        ]
    )
    x3 = dq_nh @ adj(e_q)
    dtc_a = dd.dt_embedding.coords(dd.d_t_prime @ ds.a)
    x4 = dtc_a @ x1
    x5 = np.hstack([dom_nh[d0:, :], zeros(dt, kr)])

    return RedhefferCoefficients(
        x1=x1,
        x2=x2,
        x3=x3,
        x4=x4,
        x5=x5,
        e=eye(ds.dim_h),
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


def x_tilde_matrix(rc: RedhefferCoefficients) -> np.ndarray:
    """The similarity-conjugated block matrix [[X1~, X2~], [X3~, 0], [X4~, X5~]].

    Conjugation by D_A turns the coefficient data into a contraction; the
    block matrix is unitary exactly when the defect gap vanishes.
    """
    dd = rc.dd
    da, dai = dd.d_a, dd.d_a_inv
    x1t = da @ rc.x1 @ dai
    x2t = da @ rc.x2
    x3t = rc.x3 @ dai
    x4t = rc.x4 @ dai
    return np.block(
        [
            [x1t, x2t],
            [x3t, zeros(rc.kq_dim, rc.w_dim)],
            [x4t, rc.x5],
        ]
    )


def _resolvent(rc: Realization, lam: complex) -> np.ndarray:
    if abs(lam) >= 1.0:
        raise ValueError("coefficient functions live on the open unit disc")
    n = rc.x1.shape[0]
    try:
        return np.linalg.inv(eye(n) - lam * rc.x1)
    except np.linalg.LinAlgError as exc:
        raise ResolventSingular(f"I - lam*X1 singular at lam={lam!r}") from exc


def phi_eval(
    rc: Realization, lam: complex
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate (P11, P12, P21, P22) at a disc point."""
    res = _resolvent(rc, lam)
    res_e = res @ rc.e
    p11 = lam * rc.x3 @ res @ rc.x2
    p12 = rc.x3 @ res_e
    p21 = rc.x5 + lam * rc.x4 @ res @ rc.x2
    p22 = rc.x4 @ res_e
    return p11, p12, p21, p22


def phi_taylor(
    rc: Realization, deg: int
) -> tuple[TaylorSeries, TaylorSeries, TaylorSeries, TaylorSeries]:
    """Taylor coefficients of the four coefficient functions to degree deg."""
    c11 = [zeros(rc.kq_dim, rc.w_dim)]
    c12 = [rc.x3 @ rc.e]
    c21 = [rc.x5.copy()]
    c22 = [rc.x4 @ rc.e]
    x3p = rc.x3
    x4p = rc.x4
    for _ in range(deg):
        c11.append(x3p @ rc.x2)
        c21.append(x4p @ rc.x2)
        x3p = x3p @ rc.x1
        x4p = x4p @ rc.x1
        c12.append(x3p @ rc.e)
        c22.append(x4p @ rc.e)
    return (
        TaylorSeries(tuple(c11)),
        TaylorSeries(tuple(c12)),
        TaylorSeries(tuple(c21)),
        TaylorSeries(tuple(c22)),
    )


def z_from_v(
    dd: DerivedData,
    rc: RedhefferCoefficients,
    v: schur.SchurParameter,
    lam: complex,
) -> np.ndarray:
    """The underlying disc function pinned to omega on F, at one point.

    Maps the contraction defect space into the orthogonal sum of dilation
    defect and contraction defect coordinates; its restriction to the F
    basis equals omega for every parameter and every disc point.
    """
    if v.in_dim != rc.kq_dim or v.out_dim != rc.w_dim:
        raise DimensionMismatch(
            f"parameter dims {v.out_dim}x{v.in_dim}, "
            f"expected {rc.w_dim}x{rc.kq_dim}"
        )
    dai = dd.d_a_inv
    base = np.vstack([rc.x4 @ dai, dd.d_a @ rc.x1 @ dai])
    gain = np.vstack([rc.x5, dd.d_a @ rc.x2])
    return base + gain @ schur.eval(v, lam) @ (rc.x3 @ dai)


def _v_realization(v: schur.SchurParameter) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """State-space quadruple of a parameter (trivial state when static)."""
    if v.kind == "transfer":
        sys = v.system
        return sys.a_s, sys.b_s, sys.c_s, sys.d_s
    d = v.matrix if v.kind == "constant" else zeros(v.out_dim, v.in_dim)
    return zeros(0, 0), zeros(0, v.in_dim), zeros(v.out_dim, 0), d


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
    av, bv, cv, dv = _v_realization(v)
    sv = av.shape[0]
    a_cl = np.block(
        [
            [rc.x1 + rc.x2 @ dv @ rc.x3, rc.x2 @ cv],
            [bv @ rc.x3, av],
        ]
    )
    c_cl = np.hstack([rc.x4 + rc.x5 @ dv @ rc.x3, rc.x5 @ cv])
    e_cl = np.vstack([rc.e, zeros(sv, rc.e.shape[1])])
    return a_cl, c_cl, e_cl


def solution_taylor(
    rc: Realization, v: schur.SchurParameter, deg: int
) -> SolutionTaylor:
    """Taylor coefficients of the solution attached to a Schur parameter.

    The base block is the realization's `base`; the Hardy-space block
    holds the closed-loop coefficients to degree deg.
    """
    a_cl, c_cl, e_cl = closed_loop_realization(rc, v)
    gammas = []
    cur = e_cl
    for _ in range(deg + 1):
        gammas.append(c_cl @ cur)
        cur = a_cl @ cur
    return SolutionTaylor(a_part=rc.base, gamma_coeffs=tuple(gammas))


# --- the stacked solution operator ----------------------------------------------

FP_GRAM_TOL = 1e-10  # roundoff allowance of the n x n certificate identities


def assemble_m(rc: Realization, deg: int, extra: int = 16) -> np.ndarray:
    """Dense truncation of the stacked solution operator M.

    Rows: the base space, then coefficient rows (0..deg+extra) of the two
    Hardy-space outputs; columns: coefficient columns (0..deg) of the
    parameter-output space, then the input space of E.  No check uses it:
    `isometry_certificate` and `kyp_norm` decide the full operator exactly.
    It, and with it `hardy.mult_matrix` and `hardy.observability_matrix`,
    stays in the package only because the benchmark's degree sweep times
    it; the tests use it as the dense oracle of both certificates.
    """
    deg_out = deg + extra
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


STEIN_MAX_DOUBLINGS = 64  # X1^(2^64) is past any stable transient


def _stein(a: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve X = a* X a + q for a stack of Hermitian q by Smith doubling.

    X is the sum of a*^t q a^t; after k doublings it holds the terms up to
    t = 2^k - 1, and each doubling squares a.  The sum stops once the
    squared norm of a is below machine epsilon or after
    STEIN_MAX_DOUBLINGS; what it leaves out shows in the Stein residual
    ||a* X a + q - X||, returned with X, which every bound built on X
    carries.
    """
    x, power = qs, a
    for _ in range(STEIN_MAX_DOUBLINGS):
        x = x + adj(power) @ x @ power
        power = power @ power
        if not np.linalg.norm(power) ** 2 > np.finfo(float).eps:
            break
    if not np.all(np.isfinite(x)):
        return x, np.full(len(qs), np.inf)
    x = 0.5 * (x + np.swapaxes(x, -1, -2).conj())
    return x, np.array([operator_norm(adj(a) @ xk @ a + q - xk) for xk, q in zip(x, qs)])


@dataclass(frozen=True)
class IsometryCertificate:
    """Exact isometry test of the full stacked solution operator M.

    `residual` bounds from above, and `residual_floor` from below, the
    largest residual of the three identities that make M an isometry, taken
    with the exact Gramian; `stein_residual` is the Stein residual of the
    computed one.  `status` is "certified" when the upper bound is within
    FP_GRAM_TOL, "refuted" when the lower bound exceeds it, and
    "uncertified" otherwise, always so when X1 is not stable (no Gramian).
    """

    residual: float
    residual_floor: float
    stein_residual: float

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

    three identities of size at most n x n.  Roundoff: the exact Gramian
    is the computed P plus sum_t X1*^t Delta X1^t, Delta the Stein
    residual of P, so its error seen through B1* (.) B2 is at most
    ||Delta|| sqrt(||B1* W B1|| ||B2* W B2||) with W = X1* W X1 + I, a
    second Stein equation solved alongside P (and corrected for its own
    residual).  That bound, for (X2, X2), (X1, X2) and (E, E), widens each
    computed residual both ways; it is never added to the threshold.
    """
    n = rc.x1.shape[0]
    if rc.r_spec_x1 >= 1.0:
        return IsometryCertificate(np.inf, 0.0, np.inf)
    c = np.vstack([rc.x3, rc.x4])
    d = np.vstack([zeros(rc.kq_dim, rc.w_dim), rc.x5])
    (p, w), (stein, stein_w) = _stein(rc.x1, np.stack([adj(c) @ c, eye(n)]))
    if not (stein_w < 1.0 and np.isfinite(stein)):
        return IsometryCertificate(np.inf, 0.0, np.inf)

    def weight(b: np.ndarray) -> float:
        # ||b* W b|| for the exact W, which is at most b* W b / (1 - ||Delta_W||)
        return operator_norm(adj(b) @ w @ b) / (1.0 - stein_w)

    w_x2 = weight(rc.x2)
    identities = (
        (adj(d) @ d + adj(rc.x2) @ p @ rc.x2 - eye(rc.w_dim), w_x2),
        (adj(c) @ d + adj(rc.x1) @ p @ rc.x2, np.sqrt(weight(rc.x1) * w_x2)),
        (adj(rc.base) @ rc.base + adj(rc.e) @ p @ rc.e - eye(rc.e.shape[1]),
         weight(rc.e)),
    )
    computed = [(operator_norm(m), stein * gain) for m, gain in identities]
    return IsometryCertificate(
        residual=float(max(r + err for r, err in computed)),
        residual_floor=float(max(r - err for r, err in computed)),
        stein_residual=float(stein),
    )


def kyp_norm(rc: RedhefferCoefficients) -> float:
    """max(||X~||, ||[A; D_A]||): at most 1 certifies ||M|| <= 1 on a lifting.

    With the storage function ||D_A x||^2 the colligation X~ of
    `x_tilde_matrix` maps (D_A x, w) to (D_A x+, y), so ||X~|| <= 1 is the
    bounded real (KYP) inequality of the system behind M: summed over time
    the outputs carry at most ||D_A u||^2 + ||w||^2, and ||[A; D_A]|| <= 1
    closes the base row with the initial state u (E = I).  [P11; P21] is
    the transfer function of X~, so the same bound certifies P11 and P21 as
    Schur class on the whole disc.  A truncation of M keeping T output
    steps (T = deg+extra+1 in `assemble_m`) has norm at most
    max(1, kyp_norm)^(T+1), so a value within 1 + 1e-10 keeps every
    truncation below 10^4 steps within 1 + 1e-6.
    """
    base = np.vstack([rc.base, rc.dd.d_a])
    return max(operator_norm(x_tilde_matrix(rc)), operator_norm(base))


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
    dd.require_strict()
    ds = dd.ds
    d0 = dd.dim_d_circ
    dt = dd.dim_dt
    rdr = adj(ds.r) @ (dd.d_a @ dd.d_a) @ ds.r
    delta_omega = eye(d0 + dt) + dd.j @ solve_hpd(rdr, adj(dd.j))
    dom_nh = psd_sqrt(inv_hpd(delta_omega))
    l_dar = left_inverse_dar(dd)
    ker_rda = kernel_embedding(dd.d_a @ ds.r)
    kr = ker_rda.dim
    h = ds.dim_h
    embed_t = np.vstack([zeros(d0, dt), eye(dt)])
    y = np.block(
        [
            [dom_nh @ embed_t, -dom_nh @ dd.j @ l_dar],
            [zeros(kr, dt), -adj(ker_rda.basis)],
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
    for n_mat, emb in ((ds.q, dd.ker_q_star), (ds.r, dd.ker_r_star)):
        e = emb.basis
        delta = adj(e) @ dd.d_a_sq_inv @ e
        formula = dd.d_a_inv @ e @ solve_hpd(delta, adj(e)) @ dd.d_a_inv
        oracle = kernel_embedding(dd.d_a @ n_mat).projector()
        out.append(operator_norm(formula - oracle))
    return out[0], out[1]


def classical_phi_eval(
    dd: DerivedData, lam: complex, exponent_reading: str = "corrected"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form coefficient functions for the classical shape (R = I,
    Q isometric), used only to cross-check the general pipeline.

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
    if abs(lam) >= 1.0:
        raise ValueError("coefficient functions live on the open unit disc")

    d_a_sq = dd.d_a @ dd.d_a
    aq = ds.a @ ds.q
    daq_sq = eye(ds.q.shape[1]) - adj(aq) @ aq
    t_a = solve_hpd(daq_sq, adj(ds.q) @ d_a_sq)

    e_q = dd.ker_q_star.basis
    j_cls = dd.dt_embedding.coords(dd.d_t_prime @ ds.a)
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
        raise ResolventSingular(f"I - lam*T_A singular at lam={lam!r}") from exc
    p11 = -lam * dq_nh @ adj(e_q) @ res @ dd.d_a_sq_inv @ adj(j_cls) @ dom_nh
    p12 = dq_nh @ adj(e_q) @ res
    p21 = dom_h - j_cls @ res @ middle @ adj(j_cls) @ dom_nh
    p22 = j_cls @ res @ t_a
    return p11, p12, p21, p22
