"""Certified Schur-class free parameters.

A parameter is zero, a constant contraction, or the transfer function of a
system with contractive system matrix; the last is Schur class by the
contractive-system calculus, so certification is by construction; the
tests sweep a disc grid only as an independent check of that calculus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ResolventSingular
from .hardy import SystemRealization, TaylorSeries, transfer_taylor
from .linalg import cmatrix, eye, ginibre, operator_norm, zeros


@dataclass(frozen=True)
class SchurParameter:
    """A Schur-class function from C^in_dim to C^out_dim on the unit disc."""

    kind: str  # "zero" | "constant" | "transfer"
    in_dim: int
    out_dim: int
    matrix: np.ndarray | None = None
    system: SystemRealization | None = None

    def __post_init__(self):
        if self.kind == "zero":
            if self.matrix is not None or self.system is not None:
                raise ValueError("zero parameter carries no data")
        elif self.kind == "constant":
            m = cmatrix(self.matrix)
            if m.shape != (self.out_dim, self.in_dim):
                raise DimensionMismatch("constant block has wrong shape")
            if operator_norm(m) > 1.0 + 1e-10:
                raise ValueError("constant parameter must be a contraction")
            object.__setattr__(self, "matrix", m)
        elif self.kind == "transfer":
            sys = self.system
            if sys is None or not sys.contractive_certified:
                raise ValueError("transfer parameter needs a certified realization")
            if (sys.out_dim, sys.in_dim) != (self.out_dim, self.in_dim):
                raise DimensionMismatch("realization dims disagree with parameter dims")
        else:
            raise ValueError(f"unknown parameter kind {self.kind!r}")


def zero(in_dim: int, out_dim: int) -> SchurParameter:
    return SchurParameter("zero", in_dim, out_dim)


def constant(matrix) -> SchurParameter:
    m = cmatrix(matrix)
    return SchurParameter("constant", m.shape[1], m.shape[0], matrix=m)


def from_system(sys: SystemRealization) -> SchurParameter:
    return SchurParameter("transfer", sys.in_dim, sys.out_dim, system=sys)


def random_schur(in_dim: int, out_dim: int, state_dim: int, seed) -> SchurParameter:
    """Random certified parameter: a Ginibre system matrix rescaled to be
    contractive.  Deterministic in the seed."""
    rng = np.random.default_rng(seed)
    k = ginibre(rng, state_dim + out_dim, state_dim + in_dim)
    scale = operator_norm(k)
    if scale > 1.0:
        k = k / scale
    sys = SystemRealization(
        a_s=k[:state_dim, :state_dim],
        b_s=k[:state_dim, state_dim:],
        c_s=k[state_dim:, :state_dim],
        d_s=k[state_dim:, state_dim:],
        contractive_certified=True,
    )
    return from_system(sys)


def eval(v: SchurParameter, lam: complex) -> np.ndarray:  # noqa: A001 - domain term
    """Value at a disc point; contractive for |lam| < 1."""
    if abs(lam) >= 1.0:
        raise ValueError("Schur parameters are only evaluated inside the open disc")
    if v.kind == "zero":
        return zeros(v.out_dim, v.in_dim)
    if v.kind == "constant":
        return v.matrix.copy()
    sys = v.system
    try:
        resolvent = np.linalg.solve(eye(sys.state_dim) - lam * sys.a_s, sys.b_s)
    except np.linalg.LinAlgError as exc:  # cannot occur for certified systems
        raise ResolventSingular(str(exc)) from exc
    return sys.d_s + lam * (sys.c_s @ resolvent)


def taylor(v: SchurParameter, deg: int) -> TaylorSeries:
    """Taylor coefficients at zero, up to degree deg."""
    if v.kind == "zero":
        return TaylorSeries(tuple(zeros(v.out_dim, v.in_dim) for _ in range(deg + 1)))
    if v.kind == "constant":
        return TaylorSeries(
            (v.matrix.copy(),) + tuple(zeros(v.out_dim, v.in_dim) for _ in range(deg))
        )
    return transfer_taylor(v.system, deg)


def left_multiply(s, v: SchurParameter) -> SchurParameter:
    """Compose with a constant contraction on the output side: lam -> S V(lam)."""
    s = cmatrix(s)
    if s.shape[1] != v.out_dim:
        raise DimensionMismatch("output composition has wrong shape")
    if operator_norm(s) > 1.0 + 1e-10:
        raise ValueError("output factor must be a contraction")
    if v.kind == "zero":
        return zero(v.in_dim, s.shape[0])
    if v.kind == "constant":
        return constant(s @ v.matrix)
    sys = v.system
    new = SystemRealization(
        a_s=sys.a_s,
        b_s=sys.b_s,
        c_s=s @ sys.c_s,
        d_s=s @ sys.d_s,
        contractive_certified=True,
    )
    return from_system(new)

