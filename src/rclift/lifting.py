"""Lifting data sets and their derived operators.

A data set is a quadruple {A, T', R, Q} with A: H -> H' and T' on H' both
contractions, R, Q: H0 -> H, subject to the intertwining constraint
T' A R = A Q and the defect ordering R*R <= Q*Q.  The minimal isometric
dilation of T' is always the canonical one acting on H' plus a Hardy space
of defect vectors; `hardy.verify_interpolant` applies it as a shift on
the Hardy part truncated at a finite degree, with the overflow row
discarded, and `hardy.certify_interpolant` sums the shifted rows of a
solution in state-space form exactly.

Derived material: defect operators D_A, D_T', the gap root
D0 = (Q*Q - R*R)^(1/2), the stacked operator J = [D0; D_T' A R], the
subspace F spanned by D_A Q, and the contraction omega defined on F by
omega (D_A Q h) = [D_T' A R h; D_A R h].  Each subspace (D_T', D0, F,
Ker Q*, Ker R*) is carried as its embedding E, the array of a canonical
orthonormal basis (`linalg._canonical_basis`): E* gives coordinates and
E E* the projector, so the block formulas for X1..X5 stay literal matrix
identities.  Every defect root is the rank-cut root of `linalg`'s one
PSD spectral core.  The defect of T' and its coordinates (D_T', E_T) belong to the
data set alone, so they are formed once per data set
(`LiftingDataSet.t_prime_defect`), and `derive` and both interpolant
checks read them there.

Every gate of the package reports a `Verdict`: the bounds [lower, upper]
it knows on one quantity and the threshold it holds it to.  One rule,
`Verdict.status`, turns a verdict into "certified", "refuted" or
"uncertified", and one, `combined_status`, decides several together.
Where several candidate verdicts bear on the same conditions, one rule,
`decide`, picks those that stand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotStrict
from .linalg import (
    adj,
    eye,
    kernel_embedding,
    min_eig_hermitian,
    min_singular_value,
    operator_norm,
    psd_sqrt_and_inverses,
    psd_sqrt_and_range,
    range_and_pinv,
    solve_hpd,
)

# Strictness margin: the strict pipeline requires ||A|| <= 1 - STRICT_DELTA
# and sigma_min(R) >= STRICT_DELTA, keeping D_A^-2 and the constraint Grams
# comfortably invertible.
STRICT_DELTA = 1e-6

CONSTRAINT_TOL = 1e-10


@dataclass(frozen=True)
class LiftingDataSet:
    """The data {A, T', R, Q}, with their shapes checked.

    The four arrays are taken as they are, as `hardy.StateSpace` takes
    its matrices: their entries are checked where they enter the package,
    by the `serialize` readers, and the generators build finite complex
    arrays.
    """

    a: np.ndarray
    t_prime: np.ndarray
    r: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        h_prime, h = self.a.shape
        if self.t_prime.shape != (h_prime, h_prime):
            raise DimensionMismatch(
                f"t_prime must be {h_prime}x{h_prime}, got {self.t_prime.shape}")
        if self.r.shape[0] != h or self.q.shape[0] != h:
            raise DimensionMismatch("R and Q must map into the domain of A")
        if self.r.shape[1] != self.q.shape[1]:
            raise DimensionMismatch("R and Q must share their domain")

    @property
    def dim_h(self) -> int:
        return self.a.shape[1]

    @property
    def dim_h_prime(self) -> int:
        return self.a.shape[0]

    @property
    def dim_h0(self) -> int:
        return self.r.shape[1]

    @functools.cached_property
    def t_prime_defect(self) -> tuple[np.ndarray, np.ndarray]:
        """(D_T', E_T): the defect root of T' and the embedding of its
        range, the defect space of the minimal isometric dilation of T'.
        Formed once per data set; `derive` and both interpolant checks
        read it."""
        return psd_sqrt_and_range(eye(self.dim_h_prime) - adj(self.t_prime) @ self.t_prime)


# The outcomes of a gate, weakest first.
REFUTED, UNCERTIFIED, CERTIFIED = STATUSES = ("refuted", "uncertified", "certified")


@dataclass(frozen=True)
class Verdict:
    """One gate: a quantity known to lie in [lower, upper], held against
    `threshold` as an upper limit, or as a lower one when `at_least`.

    An exact value has lower = upper; a truncated check knows only a lower
    bound and has upper = inf.
    """

    name: str
    lower: float
    upper: float
    threshold: float
    at_least: bool = False

    @classmethod
    def exact(cls, name: str, value: float, threshold: float, at_least: bool = False) -> Verdict:
        """The verdict on a value known exactly: lower = upper = value."""
        return cls(name, value, value, threshold, at_least)

    @property
    def status(self) -> str:
        """"refuted" when no point of [lower, upper] keeps the threshold,
        "certified" when every point does, "uncertified" otherwise; a NaN
        end neither refutes nor certifies."""
        lower, upper, threshold = self.lower, self.upper, self.threshold
        if self.at_least:
            lower, upper, threshold = -upper, -lower, -threshold
        if lower > threshold:
            return REFUTED
        if upper <= threshold:
            return CERTIFIED
        return UNCERTIFIED


def combined_status(verdicts) -> str:
    """The status of several gates together: refuted when any is, certified
    when all are (so when there are none), uncertified otherwise."""
    return min((v.status for v in verdicts), key=STATUSES.index, default=CERTIFIED)


def decide(candidates):
    """The verdicts that stand among candidate verdict tuples on the same
    conditions, read in order and only as far as needed: the first whose
    `combined_status` is certified or refuted; else the last whose upper
    ends are all finite, a bracket of every condition; else the last
    candidate; None when there are none.  Both exact certificates,
    `hardy.certify_interpolant` and `redheffer.isometry_certificate`,
    choose here, and offer their costlier candidates (a Stein Gramian, a
    truncation) lazily: none past the first that decides is formed.
    """
    bracketed = last = None
    for verdicts in candidates:
        if combined_status(verdicts) != UNCERTIFIED:
            return verdicts
        if all(math.isfinite(v.upper) for v in verdicts):
            bracketed = verdicts
        last = verdicts
    return last if bracketed is None else bracketed


def strictness(ds: LiftingDataSet) -> tuple[Verdict, Verdict]:
    """||A|| <= 1 - STRICT_DELTA and sigma_min(R) >= STRICT_DELTA, the
    margins every step after `validate` needs.  An R with no columns is
    left-invertible: its sigma_min is +inf."""
    return (
        Verdict.exact("strictness_norm_a", operator_norm(ds.a), 1.0 - STRICT_DELTA),
        Verdict.exact("strictness_sigma_min_r", min_singular_value(ds.r), STRICT_DELTA,
                      at_least=True),
    )


def validate(ds: LiftingDataSet, tol: float = CONSTRAINT_TOL):
    """(constraints, strictness): the verdicts on the four defining
    constraints, which a valid data set certifies, and those of
    `strictness`, which share its ||A||."""
    strict = strictness(ds)
    norm_a = strict[0].upper
    gap = adj(ds.q) @ ds.q - adj(ds.r) @ ds.r
    constraints = (
        Verdict.exact("contraction_a", norm_a, 1.0 + tol),
        Verdict.exact("contraction_t_prime", operator_norm(ds.t_prime), 1.0 + tol),
        Verdict.exact("intertwining", operator_norm(ds.t_prime @ ds.a @ ds.r - ds.a @ ds.q),
                      tol * (1.0 + norm_a)),
        Verdict.exact("defect_ordering", min_eig_hermitian(gap), -tol, at_least=True),
    )
    return constraints, strict


@dataclass(frozen=True)
class DerivedData:
    """Defect operators and subspace embeddings attached to a strict data set.

    Each `*_embedding` field and `ker_q_star`, `ker_r_star` is an n x r
    array with orthonormal columns spanning its subspace.  The defect of
    T' and its coordinates (D_T', E_T) are not copied here: they belong to
    the data set, and are read from `ds.t_prime_defect`.
    """

    ds: LiftingDataSet
    d_a: np.ndarray
    d_circ: np.ndarray
    d_circ_embedding: np.ndarray
    f_embedding: np.ndarray
    ker_q_star: np.ndarray
    ker_r_star: np.ndarray
    j: np.ndarray
    omega: np.ndarray
    d_a_inv: np.ndarray
    d_a_sq_inv: np.ndarray

    @property
    def dim_d_circ(self) -> int:
        return self.d_circ_embedding.shape[1]

    @property
    def dim_dt(self) -> int:
        return self.ds.t_prime_defect[1].shape[1]


def derive(ds: LiftingDataSet) -> DerivedData:
    """Compute defect operators, subspace coordinates, and omega.

    NotStrict unless the data keeps the STRICT_DELTA margin (`strictness`),
    which every later step needs.
    """
    norm_a, sigma_r = strict = strictness(ds)
    if combined_status(strict) != CERTIFIED:
        raise NotStrict(
            "operation needs ||A|| < 1 and a left-invertible R "
            f"(norm_a={norm_a.upper:.6f}, sigma_min_r={sigma_r.upper:.3e})"
        )
    # the gate ||A|| <= 1 - STRICT_DELTA keeps every eigenvalue of I - A*A
    # above 1.9e-6, far over the rank cut, so the inverses exist
    d_a, d_a_inv, d_a_sq_inv = psd_sqrt_and_inverses(eye(ds.dim_h) - adj(ds.a) @ ds.a)
    d_t, e_t = ds.t_prime_defect
    d_circ, e_circ = psd_sqrt_and_range(adj(ds.q) @ ds.q - adj(ds.r) @ ds.r)

    f_emb, pinv_daq = range_and_pinv(d_a @ ds.q)
    ker_q = kernel_embedding(ds.q)
    ker_r = kernel_embedding(ds.r)

    dtar = adj(e_t) @ (d_t @ ds.a @ ds.r)
    j = np.vstack([adj(e_circ) @ d_circ, dtar])

    # omega in coordinates: the stack [D_T' A R; D_A R] composed with the
    # pseudoinverse of D_A Q, restricted to the F basis.
    omega = np.vstack([dtar, d_a @ ds.r]) @ (pinv_daq @ f_emb)

    return DerivedData(
        ds=ds,
        d_a=d_a,
        d_circ=d_circ,
        d_circ_embedding=e_circ,
        f_embedding=f_emb,
        ker_q_star=ker_q,
        ker_r_star=ker_r,
        j=j,
        omega=omega,
        d_a_inv=d_a_inv,
        d_a_sq_inv=d_a_sq_inv,
    )


def gram_identity_residual(dd: DerivedData) -> float:
    """Relative residual of Q* D_A^2 Q = D0^2 + R*A* D_T'^2 A R + R* D_A^2 R."""
    ds = dd.ds
    lhs = adj(ds.q) @ dd.d_a @ dd.d_a @ ds.q
    dtar = ds.t_prime_defect[0] @ ds.a @ ds.r
    rhs = dd.d_circ @ dd.d_circ + adj(dtar) @ dtar + adj(dd.d_a @ ds.r) @ (dd.d_a @ ds.r)
    return operator_norm(lhs - rhs) / max(1.0, operator_norm(lhs))


def omega_isometry_defect(dd: DerivedData) -> float:
    """|| omega* omega - I || on the F coordinates."""
    return operator_norm(adj(dd.omega) @ dd.omega - eye(dd.f_embedding.shape[1]))


def left_inverse_dar(dd: DerivedData) -> np.ndarray:
    """The left inverse (R* D_A^2 R)^-1 R* D_A of D_A R."""
    ds = dd.ds
    dar = dd.d_a @ ds.r
    return solve_hpd(adj(dar) @ dar, adj(dar))

