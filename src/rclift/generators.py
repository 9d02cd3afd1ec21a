"""Seeded random instances of the lifting and Nehari problems.

Three families:

* ``nehari-like``: random finitely supported taps, rescaled to the target
  Hankel norm, wrapped into the lifting shape (truncated backward shift,
  slot-dropping R and Q, Hankel A).
* ``classical-like``: R = I, a random unitary Q = W diag(phases) W* and a
  random normal contraction T' = U diag(t) U* whose first ``shared``
  eigenvalues are phases of Q.  The solutions of T' A = A Q are then
  exactly the span of the orthonormal rank-one matrices u_i w_i*,
  i < shared, and A is sum_i g_i u_i w_i* with complex Gaussian g.
* ``generic``: random left-invertible Q, R = (random isometry) |Q| rho so
  the defect ordering holds by construction, and T' a random contraction.
  The domain is smaller than the range, so the null space of
  K: A -> T' A R - A Q has dimension h'(h - h0), and A is a complex
  Ginibre matrix projected orthogonally onto it, z - K*(K K*)^-1 K z,
  with K applied as matrix products and K K* solved by Cholesky.

Either way A is an isotropic complex Gaussian on the solution space of
the intertwining equation (in the Frobenius inner product), rescaled to
||A|| = target; no basis of that space is ever formed, and an empty one
(shared = 0, h' = 0) raises EmptySolutionSpace.  A purely random
pair (T', Q) generically forces A = 0, which is why the eigenvalue
structure respectively the dimension gap is imposed.
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
    solve_hpd,
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


def _rescaled(a: np.ndarray, target_norm: float) -> np.ndarray:
    """a scaled to operator norm target_norm; EmptySolutionSpace when a is
    numerically zero, which happens only on an empty solution space."""
    norm = operator_norm(a)
    if norm <= 1e-12:
        raise EmptySolutionSpace("the intertwining equation only has A = 0")
    return a * (target_norm / norm)


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
    # T' u_i = t_i u_i and Q* w_j = conj(phase_j) w_j, so T' A = A Q holds
    # for A = u_i w_j* exactly when t_i = phase_j: for i = j < shared.  The
    # bulk eigenvalues of T' have modulus at most 0.9 and the phases are
    # almost surely distinct, so these orthonormal rank-one matrices span
    # the solutions.
    g = ginibre(rng, shared, 1)[:, 0]
    a = (u_t[:, :shared] * g) @ adj(w[:, :shared])
    return LiftingDataSet(a=_rescaled(a, target_norm_a), t_prime=t_prime, r=r, q=q)


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
    norm_t = rng.uniform(0.5, 0.95)
    t_prime = g * (norm_t / operator_norm(g)) if h_prime else g
    if target_norm_a == 0.0:
        return LiftingDataSet(a=zeros(h_prime, h), t_prime=t_prime, r=r, q=q)
    a = _intertwining_projection(ginibre(rng, h_prime, h), t_prime, r, q)
    return LiftingDataSet(a=_rescaled(a, target_norm_a), t_prime=t_prime, r=r, q=q)


def _intertwining_projection(
    z: np.ndarray, t_prime: np.ndarray, r: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Orthogonal projection of z onto the null space of K: A -> T' A R - A Q.

    z - K*(K K*)^-1 K z, with K z = T' z R - z Q and K* w = T'* w R* - w Q*
    applied as matrix products.  In row-major vec coordinates
    K = T' (x) R^T - I (x) Q^T, so the (h' h0)^2 Gram K K* is the sum of
    four Kronecker products X_k (x) Y_k^T of small matrices, formed in one
    einsum: T'T'* (x) (R*R)^T - T' (x) (Q*R)^T - T'* (x) (R*Q)^T
    + I (x) (Q*Q)^T.

    K K* is positive definite because K is onto.  Q = U_q S V_q* is
    left-invertible with left inverse Q+ = V_q S^-1 U_q*, and
    R = V |Q| rho gives Q+ R = rho V_q S^-1 U_q* V V_q S V_q*, similar to
    rho U_q* V V_q, a contraction times rho <= 0.9.  With ||T'|| <= 0.95,
    rho(T') rho(Q+ R) < 1, so the Stein map B -> T' B Q+ R - B is
    invertible, and z = B Q+ maps onto every K z = T' B Q+ R - B.
    """
    x = np.stack([t_prime @ adj(t_prime), t_prime, adj(t_prime), eye(t_prime.shape[0])])
    y = np.stack([adj(r) @ r, -adj(q) @ r, -adj(r) @ q, adj(q) @ q])
    kz = t_prime @ z @ r - z @ q
    gram = np.einsum("kij,kba->iajb", x, y).reshape(kz.size, kz.size)
    w = solve_hpd(gram, kz.reshape(-1)).reshape(kz.shape)
    return z - (adj(t_prime) @ w @ adj(r) - w @ adj(q))


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
