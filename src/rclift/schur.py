"""Certified Schur-class free parameters.

A parameter is a `hardy.StateSpace` {A, B, C, D} whose system matrix
[[A, B], [C, D]] is a contraction; its transfer function
D + lam C (I - lam A)^-1 B is then Schur class by the contractive-system
calculus, so that one gate certifies every parameter.  A zero or constant
parameter is the system with state dimension 0.  The tests sweep a disc
grid only as an independent check of that calculus.

The gate, `contraction_gate` (||[[A, B], [C, D]]|| <= 1 + 1e-10), runs
where a parameter's values come from outside the package: on a transfer
parameter read from a file (`serialize.parameter_from_json`), on a given
constant (`constant`) and on a composition with a given factor
(`left_multiply`, on its result).  A parameter has no type of its own:
`hardy.StateSpace` checks shapes only, as the other containers do, so the
gate and the builders give the guarantee.  `zero` and `random_schur` build
contractive systems by construction (the zero matrix; a Ginibre matrix
divided by its own computed norm), so they pass no gate.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ResolventSingular
from .hardy import StateSpace
from .linalg import cmatrix, disc_stack, eye, ginibre, operator_norm, zeros

CONTRACTION_TOL = 1e-10  # rounding allowance of the parameter gate


def contraction_gate(v: StateSpace) -> StateSpace:
    """v, after ValueError unless ||[[A, B], [C, D]]|| <= 1 + CONTRACTION_TOL."""
    if operator_norm(v.system_matrix()) > 1.0 + CONTRACTION_TOL:
        raise ValueError("the system matrix of a Schur parameter must be a contraction")
    return v


def _static(d: np.ndarray) -> StateSpace:
    """The constant function d: the system with state dimension 0."""
    return StateSpace(zeros(0, 0), zeros(0, d.shape[1]), zeros(d.shape[0], 0), d)


def zero(in_dim: int, out_dim: int) -> StateSpace:
    return _static(zeros(out_dim, in_dim))


def constant(matrix) -> StateSpace:
    """The constant function `matrix`, through the gate."""
    return contraction_gate(_static(cmatrix(matrix)))


def random_schur(in_dim: int, out_dim: int, state_dim: int, seed) -> StateSpace:
    """Random certified parameter: a Ginibre system matrix rescaled to be
    contractive.  Deterministic in the seed."""
    rng = np.random.default_rng(seed)
    k = ginibre(rng, state_dim + out_dim, state_dim + in_dim)
    scale = operator_norm(k)
    if scale > 1.0:
        k = k / scale
    n = state_dim
    return StateSpace(a=k[:n, :n], b=k[:n, n:], c=k[n:, :n], d=k[n:, n:])


def eval(v: StateSpace, lam) -> np.ndarray:  # noqa: A001 - domain term
    """Value at a disc point, or the (k, out, in) stack of values at a 1-d
    array of k disc points; contractive for |lam| < 1."""
    lam = disc_stack(lam)
    try:
        resolvent = np.linalg.solve(eye(v.state_dim) - lam * v.a, v.b)
    except np.linalg.LinAlgError as exc:  # cannot occur for certified systems
        raise ResolventSingular(str(exc)) from exc
    return v.d + lam * (v.c @ resolvent)


def left_multiply(s, v: StateSpace) -> StateSpace:
    """Compose with a constant factor on the output side: lam -> S V(lam),
    through the gate."""
    s = cmatrix(s)
    if s.shape[1] != v.out_dim:
        raise DimensionMismatch("output composition has wrong shape")
    return contraction_gate(StateSpace(a=v.a, b=v.b, c=s @ v.c, d=s @ v.d))
