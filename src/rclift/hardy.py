"""Hardy-space functions in state-space form, and interpolant checks.

Analytic operator-valued functions on the unit disc are handled through
their Taylor coefficients at zero.  Every transfer function is a
`StateSpace` {A, B, C, D}, the function D + lam C (I - lam A)^-1 B; a
constant is the system with state dimension 0.  Its Taylor coefficients
[D, CB, CAB, CA^2 B, ...] come from `markov`, the one expansion loop of
the package; no power-series arithmetic is done on them, since products
and inverses of transfer functions are formed as state-space feedback
(`redheffer.closed_loop_realization`).  A sequence of k coefficients
mapping C^q to C^p is one complex (k, p, q) array, as `markov` returns
it, wherever the package holds one.  Multiplication operators become
block lower-triangular Toeplitz matrices on coefficient space.

The containers here take their arrays as they are (complex 2-d arrays,
and 3-d for coefficient sequences, as the package and the JSON readers
make them) and check shapes only;
coercion and the NaN/Inf rejection happen where data enters.

A lifting solution comes either as leading Taylor coefficients
(`SolutionTaylor`), which `verify_interpolant` checks truncated, or with
a state-space tail (`SolutionRealization`), which `certify_interpolant`
checks whole through one Stein Gramian and `coefficient_gap` compares
with another exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lifting
from .errors import DimensionMismatch, NotFinite
from .linalg import (
    adj,
    eye,
    observability_gramian,
    operator_norm,
    psd_sqrt_and_range,
    zeros,
)


def _all_finite(*ms: np.ndarray) -> bool:
    return all(np.all(np.isfinite(m)) for m in ms)


def markov(a: np.ndarray, b: np.ndarray, c: np.ndarray, count: int) -> np.ndarray:
    """The Markov parameters C A^k B for k = 0..count-1, stacked on axis 0.

    Each is formed as C (A^k B), one product with A per step; the stacked
    result is tested finite once and raises NotFinite when it overflows.
    """
    out = np.empty((count, c.shape[0], b.shape[1]), dtype=complex)
    cur = b
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        for k in range(count):
            if k:
                cur = a @ cur
            out[k] = c @ cur
    if not np.all(np.isfinite(out)):
        raise NotFinite(f"the Markov parameters to power {count - 1} overflow floating point")
    return out


@dataclass(frozen=True)
class StateSpace:
    """The transfer function D + lam C (I - lam A)^-1 B of {A, B, C, D}."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        n, (p, m) = self.a.shape[0], self.d.shape
        if self.a.shape != (n, n) or self.b.shape != (n, m) or self.c.shape != (p, n):
            raise DimensionMismatch("the shapes of A, B, C and D disagree")

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def in_dim(self) -> int:
        return self.d.shape[1]

    @property
    def out_dim(self) -> int:
        return self.d.shape[0]

    def system_matrix(self) -> np.ndarray:
        return np.block([[self.a, self.b], [self.c, self.d]])


@dataclass(frozen=True)
class SolutionTaylor:
    """Contractive interpolant in stacked Taylor form.

    a_part is the block acting into the base space; gamma_coeffs, a
    (m, p, q) array, holds the Taylor coefficients Gamma_0..Gamma_{m-1} of
    the Hardy-space block, expressed in orthonormal defect coordinates.
    """

    a_part: np.ndarray
    gamma_coeffs: np.ndarray

    def __post_init__(self):
        if self.gamma_coeffs.ndim != 3 or self.gamma_coeffs.shape[2] != self.a_part.shape[1]:
            raise DimensionMismatch("gamma and a_part input dimensions disagree")

    @property
    def degree(self) -> int:
        return len(self.gamma_coeffs) - 1


@dataclass(frozen=True)
class SolutionRealization:
    """Contractive interpolant whose Hardy-space block is a state-space formula.

    The Hardy-space block is
    Gamma(lam) = sum_{k<m} Gamma_k lam^k + lam^m C (I - lam A)^-1 B with
    gamma_coeffs the (m, p, q) array of Gamma_0, ..., Gamma_{m-1}, m >= 0,
    so its Taylor coefficients past the listed ones are the Markov
    parameters Gamma_k = C A^(k-m) B.
    """

    a_part: np.ndarray
    gamma_coeffs: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        n = self.a.shape[0]
        if (self.a.shape != (n, n) or self.b.shape != (n, self.a_part.shape[1])
                or self.c.shape[1] != n):
            raise DimensionMismatch("tail matrices disagree with each other or with a_part")
        if (self.gamma_coeffs.ndim != 3
                or self.gamma_coeffs.shape[1:] != (self.c.shape[0], self.a_part.shape[1])):
            raise DimensionMismatch("gamma coefficient dimensions disagree with the tail")

    def taylor(self, deg: int) -> SolutionTaylor:
        """The solution truncated to the coefficients Gamma_0..Gamma_deg."""
        listed = self.gamma_coeffs[: deg + 1]
        tail = markov(self.a, self.b, self.c, deg + 1 - len(listed))
        return SolutionTaylor(a_part=self.a_part, gamma_coeffs=np.concatenate([listed, tail]))


def coefficient_gap(f: SolutionRealization, g: SolutionRealization) -> float:
    """Largest norm of a difference of the Hardy-space coefficients of f
    and g over Gamma_0..Gamma_d, with d = max(m_f, m_g) + n_f + n_g - 1
    for m listed coefficients and n states: 0 exactly when the two
    Hardy-space blocks are the same function.

    Past both lists the coefficient differences are C A^j B of the
    block-diagonal difference system with n_f + n_g states, so by
    Cayley-Hamilton they all vanish once the first n_f + n_g of them do.
    """
    if f.c.shape[0] != g.c.shape[0] or f.b.shape[1] != g.b.shape[1]:
        raise DimensionMismatch("the two solutions act between different spaces")
    deg = max(len(f.gamma_coeffs), len(g.gamma_coeffs)) + f.a.shape[0] + g.a.shape[0] - 1
    return operator_norm(f.taylor(deg).gamma_coeffs - g.taylor(deg).gamma_coeffs)


def mult_matrix(h: np.ndarray, deg: int, deg_out: int | None = None) -> np.ndarray:
    """Truncated multiplication operator of the coefficients h, a (k, p, q)
    array, on coefficient space.

    Block (i, j) is h[i - j] for i >= j, so the result is block lower
    triangular Toeplitz, mapping inputs of degree <= deg to outputs of
    degree <= deg_out (deg by default).
    """
    if deg_out is None:
        deg_out = deg
    k, p, q = h.shape
    out = zeros((deg_out + 1) * p, (deg + 1) * q)
    for i in range(deg_out + 1):
        for j in range(max(i - k + 1, 0), min(i, deg) + 1):
            out[i * p:(i + 1) * p, j * q:(j + 1) * q] = h[i - j]
    return out


def observability_matrix(g: np.ndarray) -> np.ndarray:
    """Stack the coefficients g, a (k, p, q) array, into one (k p, q)
    column operator."""
    k, p, q = g.shape
    return g.reshape(k * p, q)


# --- interpolation verification ------------------------------------------------


@dataclass(frozen=True)
class InterpolantReport:
    """Residuals of the contractive-interpolant conditions for one solution.

    `status` is "refuted" when a residual proves that the solution is
    none, "certified" when all three are proven within their thresholds,
    and "uncertified" otherwise; a truncated check can refute but never
    certify.
    """

    projection_residual: float
    intertwining_residual: float
    sigma_max: float
    status: str

    @property
    def passed(self) -> bool:
        """Whether the solution is not refuted."""
        return self.status != "refuted"


def _defect_coords(ds: lifting.LiftingDataSet) -> np.ndarray:
    """E_T* D_T': H' into the defect coordinates of the dilation of T'."""
    d_t, e_t = psd_sqrt_and_range(eye(ds.dim_h_prime) - adj(ds.t_prime) @ ds.t_prime)
    return adj(e_t) @ d_t


def verify_interpolant(
    ds: lifting.LiftingDataSet,
    sol: SolutionTaylor,
    deg: int,
    tol: float = 1e-6,
) -> InterpolantReport:
    """Check the two interpolation identities and contractivity of a
    solution truncated at `deg`.

    The three reported numbers are (i) the distance of the base block from
    the target operator, (ii) the intertwining residual ||(U' b) R - b Q||
    against the truncated Sz.-Nagy-Schaffer dilation U' of T', and (iii)
    the largest singular value of the stacked solution b truncated at
    `deg`.  U' acts on H' plus deg+1 Taylor slots of defect vectors, so it
    is applied as the shift it is, never formed: U' b stacks T' b_H',
    (E_T* D_T') b_H' and the slots 0..deg-1 of b moved up one slot, the top
    slot overflowing out of the truncation.  The truncation keeps a subset
    of the rows of the full solution and of the full residual, so (ii) and
    (iii) bound their full values from below: the solution is "refuted"
    when (i) or (ii) exceeds tol or (iii) exceeds 1 + tol, and
    "uncertified" otherwise.  A truncation that overflows floating point
    raises NotFinite.  `certify_interpolant` decides a solution in
    state-space form exactly.
    """
    if deg < 0:
        raise ValueError("deg must be nonnegative")
    if sol.degree < deg:
        raise DimensionMismatch(
            f"solution holds coefficients to degree {sol.degree}, need {deg}"
        )
    if sol.a_part.shape != ds.a.shape:
        raise DimensionMismatch("a_part shape disagrees with the data set")
    b = np.vstack([sol.a_part, observability_matrix(sol.gamma_coeffs[: deg + 1])])
    h = ds.dim_h_prime
    defect = _defect_coords(ds)
    dt = defect.shape[0]
    n = h + dt * (deg + 1)
    if n != b.shape[0]:
        raise DimensionMismatch(
            "defect dimension of the solution disagrees with the data set"
        )
    top = b[:h]
    with np.errstate(over="ignore", invalid="ignore"):
        u_prime_b = np.vstack([ds.t_prime @ top, defect @ top, b[h:n - dt]])
        residual = u_prime_b @ ds.r - b @ ds.q
    if not _all_finite(residual):
        raise NotFinite(f"the solution truncated at degree {deg} overflows floating point")
    res_a = operator_norm(sol.a_part - ds.a)
    res_int = operator_norm(residual)
    sigma = operator_norm(b)
    passed = res_a <= tol and res_int <= tol and sigma <= 1.0 + tol
    return InterpolantReport(
        projection_residual=res_a,
        intertwining_residual=res_int,
        sigma_max=sigma,
        status="uncertified" if passed else "refuted",
    )


def _root_of_max_eig(m: np.ndarray, err: float) -> tuple[float, float]:
    """Upper and lower ends of sqrt(lambda_max) of a PSD matrix whose
    computed form is within err of it in norm."""
    lam = float(np.linalg.eigvalsh(0.5 * (m + adj(m)))[-1]) if m.size else 0.0
    return math.sqrt(max(lam + err, 0.0)), math.sqrt(max(lam - err, 0.0))


def certify_interpolant(
    ds: lifting.LiftingDataSet,
    sol: SolutionRealization,
    deg: int,
    tol: float = 1e-6,
) -> InterpolantReport:
    """Decide the three conditions of `verify_interpolant` on the full,
    untruncated solution.

    Past the m listed coefficients Gamma_k = C A^(k-m) B, so with the
    observability Gramian P = A* P A + C* C every infinite sum is finite:

    * ||b||^2 = lambda_max(a_part* a_part + sum_{k<m} Gamma_k* Gamma_k
      + B* P B);
    * the residual (U' b) R - b Q has the explicit rows T' a_part R -
      a_part Q on H', E_T* D_T' a_part R - Gamma_0 Q in slot 0 and
      Gamma_(k-1) R - Gamma_k Q in slots k = 1..m (Gamma_m = C B); slot
      m+1+j is C A^j Y with Y = B R - A B Q, whose rows sum to the Gram
      Y* P Y.  Its squared norm is lambda_max of the explicit rows' Gram
      plus Y* P Y.

    Both squared values are widened both ways by the Stein roundoff bound
    of P (`linalg.SteinGramian`); the reported values are the upper ends.
    The lower ends are at least the norms of the explicit rows and of
    [a_part; Gamma_0..Gamma_(m-1)], which need no Gramian, so a
    realization that widens the bound (large B on states C does not see)
    cannot lower them.  The status is "certified" when every upper end is
    within its threshold (tol, tol, 1 + tol), and "refuted" when a lower
    end, or the exact projection residual, is past one.  Otherwise, and
    when there is no exact verdict (the Stein solve does not prove A
    stable, or a Gram overflows), the solution is also expanded
    to `deg` and checked by `verify_interpolant`, so the verdict is never
    weaker than that truncated check: its report is returned when it
    refutes or when there is no exact one.
    """
    if sol.a_part.shape != ds.a.shape:
        raise DimensionMismatch("a_part shape disagrees with the data set")
    defect = _defect_coords(ds)
    if sol.c.shape[0] != defect.shape[0]:
        raise DimensionMismatch(
            "defect dimension of the solution disagrees with the data set"
        )
    exact = _exact_report(ds, sol, defect, tol)
    if exact is not None and exact.status != "uncertified":
        return exact
    truncated = verify_interpolant(ds, sol.taylor(deg), deg, tol=tol)
    return exact if exact is not None and truncated.passed else truncated


def _exact_report(
    ds: lifting.LiftingDataSet,
    sol: SolutionRealization,
    defect: np.ndarray,
    tol: float,
) -> InterpolantReport | None:
    """The exact verdict of `certify_interpolant`, or None without one."""
    gram = observability_gramian(sol.a, sol.c)
    if gram is None:
        return None
    r, q = ds.r, ds.q
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        gammas = np.concatenate([sol.gamma_coeffs, (sol.c @ sol.b)[None]])
        shifted = np.concatenate([(defect @ sol.a_part)[None], sol.gamma_coeffs])
        rows = np.vstack([
            ds.t_prime @ sol.a_part @ r - sol.a_part @ q,
            observability_matrix(shifted @ r - gammas @ q),
        ])
        y = sol.b @ r - sol.a @ (sol.b @ q)
        head = np.vstack([sol.a_part, observability_matrix(sol.gamma_coeffs)])
        ypy, int_err = gram.form(y, y)
        bpb, sigma_err = gram.form(sol.b, sol.b)
        int_gram = adj(rows) @ rows + ypy
        sigma_gram = adj(head) @ head + bpb
    if not (_all_finite(int_gram, sigma_gram) and math.isfinite(int_err + sigma_err)):
        return None
    res_int, floor_int = _root_of_max_eig(int_gram, int_err)
    sigma, floor_sigma = _root_of_max_eig(sigma_gram, sigma_err)
    floor_int = max(floor_int, operator_norm(rows))
    floor_sigma = max(floor_sigma, operator_norm(head))
    res_a = operator_norm(sol.a_part - ds.a)
    if res_a > tol or floor_int > tol or floor_sigma > 1.0 + tol:
        status = "refuted"
    elif res_int <= tol and sigma <= 1.0 + tol:
        status = "certified"
    else:
        status = "uncertified"
    return InterpolantReport(
        projection_residual=res_a,
        intertwining_residual=res_int,
        sigma_max=sigma,
        status=status,
    )
