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
checks whole, by one assembly over each bound on the Gramian of the
tail (`_gramian_verdicts`), whose verdicts `lifting.decide` chooses
among, and `coefficient_gap` compares with another exactly.
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
from .lifting import Verdict, decide
from .linalg import (
    EPS,
    GRAMIAN_BOUNDS,
    Gram,
    SteinGramian,
    StorageGramian,
    adj,
    eye,
    frobenius_upper,
    norm_bracket,
    operator_norm,
    zeros,
)


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
    truncation, and `certify_interpolant` sums it with the tail.
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
    but never certify, while (i) has both ends.  Every end is the computed
    norm widened by the rounding of its SVD (`linalg.norm_bracket`) and of
    forming a_part - A or the rows (`_rows_rounding`), so each lower end is
    a floor.  A truncation that overflows floating point raises NotFinite.
    `certify_interpolant` decides a solution in state-space form exactly.
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
    if not np.all(np.isfinite(residual)):
        raise NotFinite(f"the solution truncated at degree {deg} overflows floating point")
    rows_err = _rows_rounding(ds, sol.a_part, frobenius_upper(gammas), gammas.shape[1])[0]
    stacked = np.vstack([sol.a_part, observability_matrix(gammas)])
    return (
        _projection_verdict(ds, sol.a_part, tol),
        Verdict("dilation_intertwining", norm_bracket(residual, rows_err)[0], math.inf, tol),
        Verdict("stacked_norm", norm_bracket(stacked, 0.0)[0], math.inf, 1.0 + tol),
    )


def _projection_verdict(ds: lifting.LiftingDataSet, a_part: np.ndarray, tol: float) -> Verdict:
    """The verdict on ||a_part - A||.  Each entry of the computed
    difference is the exact one times (1 + delta) with |delta| <= eps, so
    the difference rounds by at most eps of its own Frobenius norm, and an
    a_part equal to A reads exactly 0."""
    diff = a_part - ds.a
    return Verdict("projection_onto_target", *norm_bracket(diff, EPS * frobenius_upper(diff)), tol)


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

    * ||b||^2 = lambda_max(head* head + B* P B) for the head [a_part;
      Gamma_0..Gamma_(m-1)];
    * the residual (U' b) R - b Q has the explicit rows T' a_part R -
      a_part Q on H', E_T* D_T' a_part R - Gamma_0 Q in slot 0 and
      Gamma_(k-1) R - Gamma_k Q in slots k = 1..m (Gamma_m = C B); slot
      m+1+j is C A^j Y with Y = B R - A B Q, whose rows sum to the Gram
      Y* P Y.  Its squared norm is lambda_max(rows* rows + Y* P Y).

    One assembly, `_gramian_verdicts`, reads both off a bound on P, and
    each bound of `linalg.GRAMIAN_BOUNDS` that has a check offers its
    verdicts, in that order: first the storage bound (P <= (1 + eta) I
    with no Stein solve), which decides most solutions, since every
    realization that `redheffer.solution_realization` writes is in
    storage coordinates, where eta is at rounding level, head* head +
    B* B <= A* A + E* E = I and Y vanishes up to rounding (E R = X1 E Q
    and X3 E Q = 0), so the upper ends sit at 1 and 0 plus rounding; then
    the Stein Gramian.  Last, the solution expanded to `deg` offers the
    verdicts of `verify_interpolant`, so the result is never weaker than
    that truncated check.  `lifting.decide` picks the verdicts that stand,
    named as those of `verify_interpolant`: the truncated ones, with no
    upper ends, stand when they refute or when no bound gives verdicts
    (A is not proved stable, or a Gram overflows).
    """
    if sol.a_part.shape != ds.a.shape:
        raise DimensionMismatch("a_part shape disagrees with the data set")

    def candidates():
        for gramian_bound in GRAMIAN_BOUNDS:
            bound = gramian_bound(sol.a, sol.c)
            verdicts = None if bound is None else _gramian_verdicts(ds, sol, tol, bound)
            if verdicts is not None:
                yield verdicts
        yield verify_interpolant(ds, sol.taylor(deg), deg, tol=tol)

    return decide(candidates())


def _explicit_parts(
    ds: lifting.LiftingDataSet, sol: SolutionRealization
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of a solution that need no Gramian: the explicit rows of
    its residual (to slot m, with Gamma_m = C B), Y = B R - A B Q, whose
    C A^j are the rest, and the head [a_part; Gamma_0..Gamma_(m-1)];
    they may hold Inf or NaN when a product overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # the Gram rule tests them finite
        gammas = np.concatenate([sol.gamma_coeffs, (sol.c @ sol.b)[None]])
        rows = _dilation_residual(ds, sol.a_part, gammas)
        y = sol.b @ ds.r - sol.a @ (sol.b @ ds.q)
    return rows, y, np.vstack([sol.a_part, observability_matrix(sol.gamma_coeffs)])


def _rows_rounding(
    ds: lifting.LiftingDataSet, a_part: np.ndarray, gamma_norm: float, inner: int
) -> tuple[float, float]:
    """A first-order bound on how far the computed rows of
    `_dilation_residual` lie from their exact values, in norm, for slot
    coefficients of Frobenius norm at most gamma_norm, and its unit k.
    A computed product of L factors is within (L - 1) k times the product
    of their Frobenius norms of the exact one, and a difference rounds by
    eps of its terms, with k = (d + 2) eps for d at least every inner
    dimension (`inner` adds those of the slot coefficients); the longest
    chain here, E_T* D_T' a_part R, has four factors, so 4 k bounds every
    row's chain and its difference.
    """
    f = frobenius_upper
    d_t, e_t = ds.t_prime_defect
    k = (sum(ds.a.shape) + inner + d_t.shape[0] + 2) * EPS
    r, q = f(ds.r), f(ds.q)
    rows = f(a_part) * (r * (f(ds.t_prime) + f(e_t) * f(d_t)) + q) + (r + q) * gamma_norm
    return 4.0 * k * rows, k


def _gramian_verdicts(
    ds: lifting.LiftingDataSet,
    sol: SolutionRealization,
    tol: float,
    bound: SteinGramian | StorageGramian,
) -> tuple[Verdict, Verdict, Verdict] | None:
    """The verdicts of `certify_interpolant` from a bound on the Gramian
    P, or None when an upper end is not finite (a Gram overflows).

    `bound.forms(b)` gives a lower and an upper form of b* P b (None for
    the zero form) and one error for both.  `dilation_intertwining` is the
    norm of [rows; P^(1/2) Y], `stacked_norm` that of [head; P^(1/2) B],
    and one rule, `linalg.Gram.root_of_max_eig` of the explicit part's
    Gram, formed once, and a form, gives the upper end from the upper form
    and a lower end from the lower form.  The floor, the explicit part's
    norm, is the same rule with the zero form, so a realization that
    widens a bound (large B on states C does not see) cannot lower it.
    The computed rows and Y lie within rows_err and y_err of their exact
    values (`_rows_rounding`, the last slot coefficient being the computed
    C B; Y's chains have at most three factors), so the residual's ends
    move by hypot(rows_err, ||P||^(1/2) y_err), with ||P|| at most the
    norm of the upper form of I, and its floor by rows_err; the head and B
    are the matrices given.
    """
    rows, y, head = _explicit_parts(ds, sol)
    f = frobenius_upper
    rows_err, k = _rows_rounding(ds, sol.a_part, f(sol.gamma_coeffs) + f(sol.c) * f(sol.b),
                                 sum(sol.c.shape))
    y_err = 4.0 * k * f(sol.b) * (f(ds.r) + f(sol.a) * f(ds.q))
    _, p_upper, p_err = bound.forms(eye(sol.a.shape[0]))
    formed = math.hypot(rows_err, math.sqrt(f(p_upper) + p_err) * y_err)
    verdicts = [_projection_verdict(ds, sol.a_part, tol)]
    for name, part, b, part_err, moved, threshold in (
            ("dilation_intertwining", rows, y, rows_err, formed, tol),
            ("stacked_norm", head, sol.b, 0.0, 0.0, 1.0 + tol)):
        lower_form, upper_form, err = bound.forms(b)
        gram = Gram.of(part)
        lower = max(gram.root_of_max_eig()[0] - part_err, 0.0)
        if lower_form is not None:
            lower = max(lower, gram.root_of_max_eig(lower_form, err)[0] - moved)
        upper = gram.root_of_max_eig(upper_form, err)[1] + moved
        if not math.isfinite(upper):
            return None
        verdicts.append(Verdict(name, lower, upper, threshold))
    return tuple(verdicts)
