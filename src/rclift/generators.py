"""Seeded random instances of the lifting and Nehari problems.

Three families:

* ``nehari-like``: random finitely supported taps, rescaled to the target
  Hankel norm, wrapped into the lifting shape (truncated backward shift,
  slot-dropping R and Q, Hankel A).
* ``classical-like``: R = I and a random unitary Q whose eigenvalue phases
  are partially shared with a random normal contraction T', so the
  intertwining equation has nontrivial solutions; A is drawn from the
  numeric null space of that equation and rescaled.
* ``generic``: random left-invertible Q, R = (random isometry) |Q| rho so
  the defect ordering holds by construction, T' a random contraction, and
  A again from the intertwining null space.  The domain is chosen smaller
  than the range so the null space is nontrivial by dimension count.

A purely random pair (T', Q) generically forces A = 0, which is why the
eigenvalue structure respectively the dimension gap is imposed.
"""

from __future__ import annotations

import numpy as np

from . import nehari
from .errors import EmptySolutionSpace
from .lifting import LiftingDataSet
from .linalg import (
    adj,
    eye,
    ginibre,
    haar_unitary,
    operator_norm,
    psd_sqrt,
    rank_from_singular_values,
    zeros,
)

KINDS = ("nehari-like", "classical-like", "generic")


def random_nehari_problem(
    rng: np.random.Generator,
    u_dim: int,
    y_dim: int,
    n_window: int,
    k_taps: int,
    target_norm: float,
) -> nehari.NehariProblem:
    """Random taps rescaled so the truncated Hankel norm hits the target."""
    if target_norm == 0.0 or k_taps == 0:
        taps = tuple(zeros(y_dim, u_dim) for _ in range(k_taps))
        return nehari.NehariProblem(n_window, u_dim, y_dim, taps)
    taps = [ginibre(rng, y_dim, u_dim) for _ in range(k_taps)]
    p = nehari.NehariProblem(n_window, u_dim, y_dim, tuple(taps))
    scale = target_norm / operator_norm(nehari.hankel(p))
    return nehari.NehariProblem(
        n_window, u_dim, y_dim, tuple(t * scale for t in taps)
    )


def _intertwining_nullspace(
    t_prime: np.ndarray, r: np.ndarray, q: np.ndarray, rtol: float = 1e-10
) -> np.ndarray:
    """Null space of A -> T' A R - A Q, columns as flattened matrices.

    Row-major flattening: vec(T' A R) = (T' kron R^T) vec(A).
    """
    h_prime = t_prime.shape[0]
    k = np.kron(t_prime, r.T) - np.kron(eye(h_prime), q.T)
    if k.shape[0] == 0:
        return eye(k.shape[1])
    _, s, vh = np.linalg.svd(k)
    return adj(vh)[:, rank_from_singular_values(s, rtol):]


def _sample_nullspace(
    rng: np.random.Generator,
    null: np.ndarray,
    shape: tuple[int, int],
    target_norm: float,
) -> np.ndarray:
    if null.shape[1] == 0:
        raise EmptySolutionSpace("the intertwining equation only has A = 0")
    for _ in range(8):
        a = (null @ ginibre(rng, null.shape[1], 1)).reshape(shape)
        norm = operator_norm(a)
        if norm > 1e-12:
            return a * (target_norm / norm)
    raise EmptySolutionSpace("null-space samples were numerically zero")


def _generate_classical(
    rng: np.random.Generator, h: int, h_prime: int, target_norm_a: float
) -> LiftingDataSet:
    w = haar_unitary(rng, h)
    phases = np.exp(2j * np.pi * rng.uniform(size=h))
    q = (w * phases) @ adj(w)

    shared = max(1, min(h, h_prime) // 2 + 1) if min(h, h_prime) else 0
    shared = min(shared, h, h_prime)
    t_eigs = np.empty(h_prime, dtype=complex)
    t_eigs[:shared] = phases[:shared]
    bulk = h_prime - shared
    t_eigs[shared:] = rng.uniform(0.2, 0.9, size=bulk) * np.exp(
        2j * np.pi * rng.uniform(size=bulk)
    )
    u_t = haar_unitary(rng, h_prime)
    t_prime = (u_t * t_eigs) @ adj(u_t)

    r = eye(h)
    if target_norm_a == 0.0:
        return LiftingDataSet(a=zeros(h_prime, h), t_prime=t_prime, r=r, q=q)
    null = _intertwining_nullspace(t_prime, r, q)
    a = _sample_nullspace(rng, null, (h_prime, h), target_norm_a)
    return LiftingDataSet(a=a, t_prime=t_prime, r=r, q=q)


def _generate_generic(
    rng: np.random.Generator, h: int, h_prime: int, h0: int, target_norm_a: float
) -> LiftingDataSet:
    if h0 >= h:
        raise ValueError("generic instances need h0 < h for a nontrivial null space")
    # Q with singular values in [0.6, 1.4]; R = V |Q| rho keeps R*R <= Q*Q.
    uq = haar_unitary(rng, h)[:, :h0]
    vq = haar_unitary(rng, h0)
    q = (uq * rng.uniform(0.6, 1.4, size=h0)) @ adj(vq)
    abs_q = psd_sqrt(adj(q) @ q)
    v_iso = haar_unitary(rng, h)[:, :h0]
    rho = rng.uniform(0.4, 0.9)
    r = v_iso @ abs_q * rho

    g = ginibre(rng, h_prime, h_prime)
    t_prime = g * (rng.uniform(0.5, 0.95) / operator_norm(g))
    if target_norm_a == 0.0:
        return LiftingDataSet(a=zeros(h_prime, h), t_prime=t_prime, r=r, q=q)
    null = _intertwining_nullspace(t_prime, r, q)
    a = _sample_nullspace(rng, null, (h_prime, h), target_norm_a)
    return LiftingDataSet(a=a, t_prime=t_prime, r=r, q=q)


def generate_random(kind: str, dims, target_norm_a: float, seed) -> LiftingDataSet:
    """Seeded random lifting data set of the requested family.

    dims is (u_dim, y_dim, n_window, k_taps) for nehari-like,
    (h, h_prime) for classical-like, and (h, h_prime, h0) for generic.
    The result always passes validation and has ||A|| = target_norm_a.
    """
    if not 0.0 <= target_norm_a < 1.0:
        raise ValueError("target_norm_a must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    if kind == "nehari-like":
        u_dim, y_dim, n_window, k_taps = dims
        p = random_nehari_problem(rng, u_dim, y_dim, n_window, k_taps, target_norm_a)
        return nehari.to_lifting_data(p)
    if kind == "classical-like":
        h, h_prime = dims
        return _generate_classical(rng, h, h_prime, target_norm_a)
    if kind == "generic":
        h, h_prime, h0 = dims
        return _generate_generic(rng, h, h_prime, h0, target_norm_a)
    raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
