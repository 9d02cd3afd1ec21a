"""Hardy-space functions in state-space form, and interpolant checks.

Analytic operator-valued functions on the unit disc are handled through
their Taylor coefficients at zero.  Every transfer function is a
`StateSpace` {A, B, C, D}, the function D + lam C (I - lam A)^-1 B; a
constant is the system with state dimension 0.  Its Taylor coefficients
[D, CB, CAB, CA^2 B, ...] come from `markov`, the one expansion loop of
the package; no power-series arithmetic is done on them, since products
and inverses of transfer functions are formed as state-space feedback
(`redheffer.solution_realization`).  A sequence of k coefficients
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
checks whole, from the storage inequality of the tail or else from one
Stein Gramian, and `coefficient_gap` compares with another exactly.
Both checks read the defect coordinates of the dilation of T' from the
data set (`lifting.LiftingDataSet.t_prime_defect`) and form the rows of
the dilation residual (U' b) R - b Q in one helper, `_dilation_residual`.
Each returns one `lifting.Verdict` per condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lifting
from .errors import DimensionMismatch, NotFinite
from .lifting import Verdict, combined_status
from .linalg import (
    EPS,
    adj,
    eye,
    frobenius_upper,
    observability_gramian,
    operator_norm,
    storage_gramian_bound,
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


def _dilation_residual(
    ds: lifting.LiftingDataSet, a_part: np.ndarray, gammas: np.ndarray
) -> np.ndarray:
    """The rows of (U' b) R - b Q for b = [a_part; gammas] with gammas the
    (k, dt, h) array Gamma_0..Gamma_(k-1): T' a_part R - a_part Q on H',
    (E_T* D_T' a_part) R - Gamma_0 Q in slot 0 and Gamma_(i-1) R - Gamma_i Q
    in slots i = 1..k-1.  U' moves slot i of b to slot i+1, so the row of
    Gamma_(k-1) R falls off the end: `verify_interpolant` drops it with the
    truncation, and `_exact_verdicts` sums it with the tail.
    """
    d_t, e_t = ds.t_prime_defect
    if gammas.shape[1] != e_t.shape[1]:
        raise DimensionMismatch("defect dimension of the solution disagrees with the data set")
    r, q = ds.r, ds.q
    shifted = np.concatenate([(adj(e_t) @ d_t @ a_part)[None], gammas[:-1]])
    return np.vstack([
        ds.t_prime @ a_part @ r - a_part @ q,
        observability_matrix(shifted @ r - gammas @ q),
    ])


def verify_interpolant(
    ds: lifting.LiftingDataSet,
    sol: SolutionTaylor,
    deg: int,
    tol: float = 1e-6,
) -> tuple[Verdict, Verdict, Verdict]:
    """Check the two interpolation identities and contractivity of a
    solution truncated at `deg`.

    The three reported numbers are (i) the distance of the base block from
    the target operator, (ii) the intertwining residual ||(U' b) R - b Q||
    against the truncated Sz.-Nagy-Schaffer dilation U' of T', and (iii)
    the largest singular value of the stacked solution b truncated at
    `deg`; the verdicts `projection_onto_target`, `dilation_intertwining`
    and `stacked_norm` hold them against tol, tol and 1 + tol.  U' acts on
    H' plus deg+1 Taylor slots of defect vectors, so it is applied as the
    shift it is, never formed: U' b stacks T' b_H', (E_T* D_T') b_H' and
    the slots 0..deg-1 of b moved up one slot, the top slot overflowing out
    of the truncation.  The truncation keeps a subset of the rows of the
    full solution and of the full residual, so (ii) and (iii) bound their
    full values from below: their verdicts have no upper end and can refute
    but never certify, while (i) has both ends, the computed norm widened by
    the rounding of a_part - A and of its SVD.  A truncation that overflows
    floating point raises NotFinite.  `certify_interpolant` decides a
    solution in state-space form exactly.
    """
    if deg < 0:
        raise ValueError("deg must be nonnegative")
    if sol.degree < deg:
        raise DimensionMismatch(
            f"solution holds coefficients to degree {sol.degree}, need {deg}"
        )
    if sol.a_part.shape != ds.a.shape:
        raise DimensionMismatch("a_part shape disagrees with the data set")
    gammas = sol.gamma_coeffs[: deg + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _dilation_residual(ds, sol.a_part, gammas)
    if not _all_finite(residual):
        raise NotFinite(f"the solution truncated at degree {deg} overflows floating point")
    sigma = operator_norm(np.vstack([sol.a_part, observability_matrix(gammas)]))
    return (
        _projection_verdict(ds, sol.a_part, tol),
        Verdict("dilation_intertwining", operator_norm(residual), math.inf, tol),
        Verdict("stacked_norm", sigma, math.inf, 1.0 + tol),
    )


def _norm_bracket(m: np.ndarray, err: float) -> tuple[float, float]:
    """Lower and upper ends of the norm of a matrix whose computed form m
    is within err of it in norm: the computed norm of m widened by
    (size + 2) eps of itself for its SVD and by err, the lower end floored
    at 0."""
    norm, k = operator_norm(m), (m.size + 2) * EPS
    return max(norm * (1.0 - k) - err, 0.0), norm * (1.0 + k) + err


def _projection_verdict(ds: lifting.LiftingDataSet, a_part: np.ndarray, tol: float) -> Verdict:
    """The verdict on ||a_part - A||.  Each entry of the computed
    difference is the exact one times (1 + delta) with |delta| <= eps, so
    the difference rounds by at most eps of its own Frobenius norm, and an
    a_part equal to A reads exactly 0."""
    diff = a_part - ds.a
    return Verdict("projection_onto_target", *_norm_bracket(diff, EPS * frobenius_upper(diff)), tol)


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
) -> tuple[Verdict, Verdict, Verdict]:
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

    Two routes bound P, and both are sound.  The storage route
    (`_storage_verdicts`) reads P <= (1 + eta) I off the storage
    inequality of (A, C) with no Stein solve; every realization that
    `redheffer.solution_realization` writes is in storage coordinates,
    where eta is at rounding level.  Its upper ends are therefore looser
    than the Stein route's (the stacked norm of such a solution reads
    about 1, the bound the storage inequality gives), and it decides most
    solutions.  The Stein route (`_exact_verdicts`) solves for P and
    widens both ends by its roundoff bound.  In both, the lower ends are
    at least the norms of the explicit rows and of [a_part;
    Gamma_0..Gamma_(m-1)], which need no Gramian, so a realization that
    widens a bound (large B on states C does not see) cannot lower them.
    Every end that rests on a computed difference (the explicit rows, Y,
    and a_part - A for the projection residual) is widened both ways by
    the rounding of forming it and of its norm, so those lower ends never
    lie above the exact value of the matrices given.  The stacked norm's
    lower end is taken as computed, with no such allowance, and may lie a
    rounding above it.  The three verdicts, named as those
    of `verify_interpolant`, of the first route that certifies or refutes
    (`lifting.combined_status`) are returned.  Otherwise, and when neither
    route has a check (A is not proved stable, or a Gram overflows), the
    solution is also expanded to `deg` and checked by `verify_interpolant`,
    so the result is never weaker than that truncated check: its verdicts,
    which have no upper ends, are returned when they refute or when the
    Stein route has no check, and the Stein route's otherwise.
    """
    if sol.a_part.shape != ds.a.shape:
        raise DimensionMismatch("a_part shape disagrees with the data set")
    for route in (_storage_verdicts, _exact_verdicts):
        verdicts = route(ds, sol, tol)
        if verdicts is not None and combined_status(verdicts) in ("certified", "refuted"):
            return verdicts
    truncated = verify_interpolant(ds, sol.taylor(deg), deg, tol=tol)
    return verdicts if verdicts is not None and combined_status(truncated) != "refuted" else truncated


def _explicit_parts(
    ds: lifting.LiftingDataSet, sol: SolutionRealization
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of a solution that need no Gramian: the explicit rows of
    its residual (to slot m, with Gamma_m = C B), Y = B R - A B Q, whose
    C A^j are the rest, and the head [a_part; Gamma_0..Gamma_(m-1)];
    they may hold Inf or NaN when a product overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # the callers test them finite
        gammas = np.concatenate([sol.gamma_coeffs, (sol.c @ sol.b)[None]])
        rows = _dilation_residual(ds, sol.a_part, gammas)
        y = sol.b @ ds.r - sol.a @ (sol.b @ ds.q)
    return rows, y, np.vstack([sol.a_part, observability_matrix(sol.gamma_coeffs)])


def _formation_rounding(ds: lifting.LiftingDataSet, sol: SolutionRealization) -> tuple[float, float]:
    """First-order bounds on how far the computed explicit rows and Y of
    `_explicit_parts` lie from their exact values, in norm.

    A computed product of L factors is within (L - 1) k times the product
    of their Frobenius norms of the exact one, and a difference rounds by
    eps of its terms, with k = (d + 2) eps for d at least every inner
    dimension; the longest chain here, E_T* D_T' a_part R, has four
    factors, so 4 k bounds every row's chain and its difference.
    """
    f = frobenius_upper
    d_t, e_t = ds.t_prime_defect
    k = (sum(ds.a.shape) + sum(sol.c.shape) + d_t.shape[0] + 2) * EPS
    r, q, a_part = f(ds.r), f(ds.q), f(sol.a_part)
    b = f(sol.b)
    rows = a_part * (r * (f(ds.t_prime) + f(e_t) * f(d_t)) + q) + (r + q) * (
        f(sol.gamma_coeffs) + f(sol.c) * b)
    return 4.0 * k * rows, 4.0 * k * b * (r + f(sol.a) * q)


def _storage_verdicts(
    ds: lifting.LiftingDataSet,
    sol: SolutionRealization,
    tol: float,
) -> tuple[Verdict, Verdict, Verdict] | None:
    """The verdicts of `certify_interpolant` from the storage inequality,
    or None without them.

    `linalg.storage_gramian_bound` bounds P <= (1 + eta) I, so

    * ||b||^2 <= lambda_max(head* head + (1 + eta) B* B), with the Gram
      formed as X* X for X = [head; (1 + eta)^(1/2) B], which rounds by at
      most (rows of X + columns + 6) eps ||X||_F^2 with its top eigenvalue;
    * the residual's squared norm is at most ||rows||^2 + (1 + eta) ||Y||^2,
      with ||rows|| from its SVD, widened by (size + 2) eps, ||Y|| by its
      Frobenius norm (`linalg.frobenius_upper`), and each widened by the
      rounding of forming it (`_formation_rounding`).

    For an honest solution in storage coordinates head* head + B* B <=
    A* A + E* E = I and Y vanishes up to rounding, since E R = X1 E Q and
    X3 E Q = 0, so both upper ends sit at their exact bounds 1 and 0 plus
    rounding.  The lower ends are the norm of the head, as computed, and
    that of the explicit rows, taken down by its SVD and formation
    allowances.
    """
    eta = storage_gramian_bound(sol.a, sol.c)
    if eta is None:
        return None
    rows, y, head = _explicit_parts(ds, sol)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        x = np.vstack([head, math.sqrt(1.0 + eta) * sol.b])
        sigma_gram = adj(x) @ x
    if not _all_finite(rows, y, sigma_gram):
        return None
    sigma_err = (x.shape[0] + x.shape[1] + 6) * EPS * frobenius_upper(x) ** 2
    sigma = _root_of_max_eig(sigma_gram, sigma_err)[0]
    rows_err, y_err = _formation_rounding(ds, sol)
    rows_lower, rows_upper = _norm_bracket(rows, rows_err)
    res_int = math.hypot(
        rows_upper, math.sqrt(1.0 + eta) * (frobenius_upper(y) + y_err)
    ) * (1.0 + 4.0 * EPS)
    if not math.isfinite(res_int + sigma):
        return None
    return (
        _projection_verdict(ds, sol.a_part, tol),
        Verdict("dilation_intertwining", rows_lower, res_int, tol),
        Verdict("stacked_norm", operator_norm(head), sigma, 1.0 + tol),
    )


def _exact_verdicts(
    ds: lifting.LiftingDataSet,
    sol: SolutionRealization,
    tol: float,
) -> tuple[Verdict, Verdict, Verdict] | None:
    """The verdicts of `certify_interpolant` from the Stein Gramian
    (`linalg.observability_gramian`), or None without them.

    The residual is the norm of [rows; P^(1/2) Y], and the computed rows
    and Y lie within rows_err and y_err of their exact values
    (`_formation_rounding`), so both of its ends move by at most
    hypot(rows_err, ||P||^(1/2) y_err), with ||P|| <= ||C||^2 ||W|| since
    P <= ||C||^2 W for the W of the Gramian (`linalg.SteinGramian`)."""
    gram = observability_gramian(sol.a, sol.c)
    if gram is None:
        return None
    rows, y, head = _explicit_parts(ds, sol)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        ypy, int_err = gram.form(y, y)
        bpb, sigma_err = gram.form(sol.b, sol.b)
        int_gram = adj(rows) @ rows + ypy
        sigma_gram = adj(head) @ head + bpb
    if not (_all_finite(int_gram, sigma_gram) and math.isfinite(int_err + sigma_err)):
        return None
    rows_err, y_err = _formation_rounding(ds, sol)
    p_root = frobenius_upper(sol.c) * math.sqrt(gram.weight(eye(sol.a.shape[0])))
    formed = math.hypot(rows_err, p_root * y_err)
    res_int, floor_int = _root_of_max_eig(int_gram, int_err)
    sigma, floor_sigma = _root_of_max_eig(sigma_gram, sigma_err)
    return (
        _projection_verdict(ds, sol.a_part, tol),
        Verdict("dilation_intertwining", max(floor_int - formed, _norm_bracket(rows, rows_err)[0]),
                res_int + formed, tol),
        Verdict("stacked_norm", max(floor_sigma, operator_norm(head)), sigma, 1.0 + tol),
    )
