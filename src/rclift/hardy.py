"""Truncated Hardy-space calculus.

Analytic operator-valued functions on the unit disc are handled through
their Taylor coefficients at zero.  A function with a state-space
realization {Z, B, C, D} has transfer coefficients [D, CB, CZB, ...] and
observability coefficients [C, CZ, CZ^2, ...]; multiplication operators
become block lower-triangular Toeplitz matrices on coefficient space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lifting
from .errors import DimensionMismatch
from .linalg import adj, cmatrix, eye, operator_norm, psd_sqrt_and_range, zeros


@dataclass(frozen=True)
class SystemRealization:
    """State-space quadruple {Z, B, C, D} for D + lambda*C(I-lambda*Z)^-1 B.

    `contractive_certified` records that the system matrix [[Z, B], [C, D]]
    is a contraction, which certifies the transfer function as Schur class.
    """

    a_s: np.ndarray
    b_s: np.ndarray
    c_s: np.ndarray
    d_s: np.ndarray
    contractive_certified: bool = False

    def __post_init__(self):
        a = cmatrix(self.a_s)
        b = cmatrix(self.b_s)
        c = cmatrix(self.c_s)
        d = cmatrix(self.d_s)
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatch("state matrix must be square")
        n = a.shape[0]
        if b.shape[0] != n or c.shape[1] != n:
            raise DimensionMismatch("B/C state dimensions disagree with Z")
        if d.shape != (c.shape[0], b.shape[1]):
            raise DimensionMismatch("D block inconsistent with B and C")
        for name, m in (("a_s", a), ("b_s", b), ("c_s", c), ("d_s", d)):
            object.__setattr__(self, name, m)
        if self.contractive_certified:
            if operator_norm(self.system_matrix()) > 1.0 + 1e-9:
                raise ValueError("certified system matrix is not a contraction")

    @property
    def state_dim(self) -> int:
        return self.a_s.shape[0]

    @property
    def in_dim(self) -> int:
        return self.b_s.shape[1]

    @property
    def out_dim(self) -> int:
        return self.c_s.shape[0]

    def system_matrix(self) -> np.ndarray:
        return np.block([[self.a_s, self.b_s], [self.c_s, self.d_s]])


@dataclass(frozen=True)
class TaylorSeries:
    """Taylor coefficients at zero of an operator-valued disc function."""

    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        coeffs = tuple(cmatrix(c) for c in self.coeffs)
        if not coeffs:
            raise DimensionMismatch("a Taylor series needs at least one coefficient")
        shape = coeffs[0].shape
        if any(c.shape != shape for c in coeffs):
            raise DimensionMismatch("coefficient dimensions are not uniform")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def out_dim(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def in_dim(self) -> int:
        return self.coeffs[0].shape[1]

    def __call__(self, lam: complex) -> np.ndarray:
        """Evaluate the truncated polynomial at a point."""
        acc = zeros(self.out_dim, self.in_dim)
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc


@dataclass(frozen=True)
class SolutionTaylor:
    """Contractive interpolant in stacked Taylor form.

    a_part is the block acting into the base space; gamma_coeffs are the
    Taylor coefficients of the Hardy-space block, expressed in orthonormal
    defect coordinates.
    """

    a_part: np.ndarray
    gamma_coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "a_part", cmatrix(self.a_part))
        gammas = tuple(cmatrix(g) for g in self.gamma_coeffs)
        if any(g.shape != gammas[0].shape for g in gammas):
            raise DimensionMismatch("gamma coefficient dimensions are not uniform")
        if gammas and gammas[0].shape[1] != self.a_part.shape[1]:
            raise DimensionMismatch("gamma and a_part input dimensions disagree")
        object.__setattr__(self, "gamma_coeffs", gammas)

    @property
    def degree(self) -> int:
        return len(self.gamma_coeffs) - 1

    def stacked(self) -> np.ndarray:
        """The truncated column operator [a_part; gamma_0; gamma_1; ...]."""
        return np.vstack((self.a_part,) + self.gamma_coeffs)


def transfer_taylor(sys: SystemRealization, deg: int) -> TaylorSeries:
    """Taylor coefficients [D, CB, CZB, CZ^2 B, ...] of the transfer function."""
    coeffs = [sys.d_s]
    cz = sys.c_s
    for _ in range(deg):
        coeffs.append(cz @ sys.b_s)
        cz = cz @ sys.a_s
    return TaylorSeries(tuple(coeffs))


def mult_matrix(h: TaylorSeries, deg: int, deg_out: int | None = None) -> np.ndarray:
    """Truncated multiplication operator of h on coefficient space.

    Block (i, j) is coeff(i - j) for i >= j, so the result is block lower
    triangular Toeplitz, mapping inputs of degree <= deg to outputs of
    degree <= deg_out (deg by default).
    """
    if deg_out is None:
        deg_out = deg
    p, q = h.out_dim, h.in_dim
    out = zeros((deg_out + 1) * p, (deg + 1) * q)
    for i in range(deg_out + 1):
        for j in range(min(i, deg) + 1):
            k = i - j
            if k <= h.degree:
                out[i * p:(i + 1) * p, j * q:(j + 1) * q] = h.coeffs[k]
    return out


def observability_matrix(g: TaylorSeries) -> np.ndarray:
    """Stack the coefficients of g into a single column operator."""
    return np.vstack(g.coeffs)


# --- formal power-series arithmetic -------------------------------------------


def series_mul(a: list[np.ndarray], b: list[np.ndarray], deg: int) -> list[np.ndarray]:
    """Cauchy product of coefficient lists, truncated at degree deg."""
    out = []
    for k in range(deg + 1):
        acc = None
        for i in range(min(k, len(a) - 1) + 1):
            j = k - i
            if j >= len(b):
                continue
            term = a[i] @ b[j]
            acc = term if acc is None else acc + term
        if acc is None:
            acc = zeros(a[0].shape[0], b[0].shape[1])
        out.append(acc)
    return out


def series_neumann(s: list[np.ndarray], deg: int) -> list[np.ndarray]:
    """Coefficients of (I - S)^-1 for a series S with zero constant term."""
    n = s[0].shape[0]
    if s[0].shape[1] != n:
        raise DimensionMismatch("Neumann inverse needs a square series")
    if operator_norm(s[0]) != 0.0:
        raise ValueError("series must have zero constant term")
    out = [eye(n)]
    for k in range(1, deg + 1):
        acc = zeros(n, n)
        for j in range(1, min(k, len(s) - 1) + 1):
            acc = acc + s[j] @ out[k - j]
        out.append(acc)
    return out


# --- interpolation verification ------------------------------------------------


@dataclass(frozen=True)
class InterpolantReport:
    """Residuals of the contractive-interpolant conditions for one solution."""

    projection_residual: float
    intertwining_residual: float
    sigma_max: float
    tol: float
    passed: bool
    checks: dict = field(default_factory=dict)


def verify_interpolant(
    ds: lifting.LiftingDataSet,
    sol: SolutionTaylor,
    deg: int,
    tol: float = 1e-6,
) -> InterpolantReport:
    """Check the two interpolation identities and contractivity of a solution.

    The three reported numbers are (i) the distance of the base block from
    the target operator, (ii) the intertwining residual ||(U' b) R - b Q||
    against the truncated Sz.-Nagy-Schaffer dilation U' of T', and (iii)
    the largest singular value of the stacked solution b truncated at
    `deg`.  U' acts on H' plus deg+1 Taylor slots of defect vectors, so it
    is applied as the shift it is, never formed: U' b stacks T' b_H',
    (E_T* D_T') b_H' and the slots 0..deg-1 of b moved up one slot, the top
    slot overflowing out of the truncation.  The solution passes when (i),
    (ii) <= tol and (iii) <= 1 + tol.  The truncated stack keeps a subset
    of the rows of the full solution, so (iii) bounds its norm from below:
    passing means "not refuted".  Certifying the full norm needs a tail
    the verifier computes itself, which waits on the exact tail
    certificates planned in ROADMAP.md.
    """
    if deg < 0:
        raise ValueError("deg must be nonnegative")
    if sol.degree < deg:
        raise DimensionMismatch(
            f"solution holds coefficients to degree {sol.degree}, need {deg}"
        )
    if sol.a_part.shape != ds.a.shape:
        raise DimensionMismatch("a_part shape disagrees with the data set")
    b = np.vstack((sol.a_part,) + sol.gamma_coeffs[: deg + 1])
    h = ds.dim_h_prime
    d_t, e_t = psd_sqrt_and_range(eye(h) - adj(ds.t_prime) @ ds.t_prime)
    dt = e_t.dim
    n = h + dt * (deg + 1)
    if n != b.shape[0]:
        raise DimensionMismatch(
            "defect dimension of the solution disagrees with the data set"
        )
    top = b[:h]
    u_prime_b = np.vstack([ds.t_prime @ top, e_t.coords(d_t) @ top, b[h:n - dt]])
    res_a = operator_norm(sol.a_part - ds.a)
    res_int = operator_norm(u_prime_b @ ds.r - b @ ds.q)
    sigma = operator_norm(b)
    checks = {
        "projection": res_a <= tol,
        "intertwining": res_int <= tol,
        "contraction": sigma <= 1.0 + tol,
        "dt_dim": dt,
    }
    passed = checks["projection"] and checks["intertwining"] and checks["contraction"]
    return InterpolantReport(
        projection_residual=res_a,
        intertwining_residual=res_int,
        sigma_max=sigma,
        tol=tol,
        passed=passed,
        checks=checks,
    )
