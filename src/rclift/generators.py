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
  with K and K* applied as matrix products and K K* w = K z solved by
  conjugate gradients, so no matrix of size (h' h0)^2 is formed.

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
from .errors import EmptySolutionSpace, NotConverged
from .lifting import LiftingDataSet
from .linalg import (
    adj,
    eye,
    ginibre,
    haar_unitary,
    operator_norm,
    psd_sqrt,
    zeros,
)

KINDS = ("nehari-like", "classical-like", "generic")

# Relative residual at which the generic projection's conjugate gradients
# stop, and the iteration count that provably reaches it (derived in
# _intertwining_projection).
CG_RTOL = 1e-14
CG_MAX_ITERATIONS = 543


def random_nehari_problem(
    rng: np.random.Generator,
    u_dim: int,
    y_dim: int,
    n_window: int,
    k_taps: int,
    target_norm: float,
) -> nehari.NehariProblem:
    """Random taps rescaled so the truncated Hankel norm hits the target,
    which must lie in [0, 1); it is checked before anything is drawn."""
    if not 0.0 <= target_norm < 1.0:
        raise ValueError("target_norm must lie in [0, 1)")
    if target_norm == 0.0 or k_taps * u_dim * y_dim == 0:
        taps = tuple(zeros(y_dim, u_dim) for _ in range(k_taps))
        return nehari.NehariProblem(n_window, u_dim, y_dim, taps)
    taps = [ginibre(rng, y_dim, u_dim) for _ in range(k_taps)]
    p = nehari.NehariProblem(n_window, u_dim, y_dim, tuple(taps))
    scale = target_norm / operator_norm(p.a)
    return nehari.NehariProblem(
        n_window, u_dim, y_dim, tuple(t * scale for t in taps)
    )


def _at_most(a: np.ndarray, target_norm: float) -> np.ndarray:
    """a multiplied by 1 - 2^-53, which moves every normal entry one ulp toward
    zero and keeps each family's linear constraints, until its computed norm
    is at most target_norm; a rescale to the target can leave it ulps above."""
    while operator_norm(a) > target_norm:
        a = a * np.nextafter(1.0, 0.0)
    return a


def nehari_problem_at_most(
    rng: np.random.Generator,
    u_dim: int,
    y_dim: int,
    n_window: int,
    k_taps: int,
    target_norm: float,
) -> nehari.NehariProblem:
    """`random_nehari_problem` with the guard of `_at_most` on its taps, so
    that the computed Hankel norm is at most the target.  `NehariProblem.a`
    copies the taps bit for bit, so shrinking the taps shrinks A exactly
    as `_at_most` would."""
    p = random_nehari_problem(rng, u_dim, y_dim, n_window, k_taps, target_norm)
    while operator_norm(p.a) > target_norm:
        p = nehari.NehariProblem(n_window, u_dim, y_dim,
                                 tuple(t * np.nextafter(1.0, 0.0) for t in p.taps))
    return p


def _rescaled(a: np.ndarray, target_norm: float) -> np.ndarray:
    """a scaled to computed operator norm at most target_norm; EmptySolutionSpace
    when a is numerically zero, which happens only on an empty solution space."""
    norm = operator_norm(a)
    if norm <= 1e-12:
        raise EmptySolutionSpace("the intertwining equation only has A = 0")
    return _at_most(a * (target_norm / norm), target_norm)


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


def _sq_norm(x: np.ndarray) -> float:
    """||x||_F^2 of a C-contiguous complex matrix, summed by NumPy's einsum
    loop, whose order, unlike a threaded BLAS dot's, does not depend on the
    BLAS thread count."""
    v = x.view(float)
    return float(np.einsum("ij,ij->", v, v))


def _intertwining_projection(
    z: np.ndarray, t_prime: np.ndarray, r: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Orthogonal projection of z onto the null space of K: A -> T' A R - A Q.

    z - K* w with K K* w = K z, where K a = T' a R - a Q and
    K* w = T'* w R* - w Q* are applied as matrix products and K K* w = K z
    is solved by conjugate gradients (CG) from w = 0.  No Gram matrix is
    formed.  The curvature <p, K K* p> is taken as ||K* p||_F^2, and CG
    keeps K* w in place of w, updated by the K* p of each step, so a step
    applies K* and K once.  CG stops when its recursive residual
    ||K z - K K* w||_F is at most CG_RTOL ||K z||_F, which an empty or zero
    K z meets before any step.

    Conditioning.  The generator draws Q = U_q |Q| with U_q an isometry
    and the singular values of Q in [0.6, 1.4], and R = rho V |Q| with V
    an isometry, rho <= 0.9 and ||T'|| <= 0.95.  With X = W |Q|,
    K* W = rho T'* X V* - X U_q*, where ||X U_q*||_F = ||X||_F and
    ||rho T'* X V*||_F <= 0.855 ||X||_F, so
    0.145 * 0.6 ||W||_F <= ||K* W||_F <= 1.855 * 1.4 ||W||_F.  K K* is
    therefore positive definite with condition number
    kappa <= (1.855 * 1.4 / (0.145 * 0.6))^2 < 892, sqrt(kappa) < 29.86.

    Iteration cap.  After k steps CG's error in the K K* norm is at most
    2 ((sqrt(kappa) - 1) / (sqrt(kappa) + 1))^k <= 2 exp(-2k / sqrt(kappa))
    times its initial value, and the residual norm is within a factor
    sqrt(kappa) of that norm, so ||r_k|| <= 2 sqrt(kappa)
    exp(-2k / sqrt(kappa)) ||r_0||.  That is at most CG_RTOL ||r_0|| once
    k >= sqrt(kappa) / 2 * ln(2 sqrt(kappa) / CG_RTOL) = 542.2, hence
    CG_MAX_ITERATIONS = 543.  The bound is one of exact arithmetic; in
    floating point, instances from (40, 30, 20) to (120, 90, 60) stop after
    40 to 80 steps, and the suite's, with h' h0 <= 9, after about h' h0.
    CG that reaches the cap unconverged raises NotConverged.
    """
    t_adj, r_adj, q_adj = adj(t_prime), adj(r), adj(q)
    b = t_prime @ (z @ r) - z @ q
    res, p, k_adj_w = b, b, np.zeros_like(z)
    rr = _sq_norm(b)
    stop = CG_RTOL**2 * rr
    for _ in range(CG_MAX_ITERATIONS):
        if rr <= stop:
            break
        s = t_adj @ p @ r_adj - p @ q_adj
        alpha = rr / _sq_norm(s)
        k_adj_w = k_adj_w + alpha * s
        res = res - alpha * (t_prime @ (s @ r) - s @ q)
        rr, rr_old = _sq_norm(res), rr
        p = res + (rr / rr_old) * p
    if rr > stop:
        raise NotConverged(
            f"conjugate gradients for the intertwining projection missed the "
            f"relative residual {CG_RTOL:g} after {CG_MAX_ITERATIONS} iterations"
        )
    return z - k_adj_w


def generate_random(kind: str, dims, target_norm_a: float, seed) -> LiftingDataSet:
    """Seeded random lifting data set of the requested family.

    dims is (u_dim, y_dim, n_window, k_taps) for nehari-like,
    (h, h_prime) for classical-like, and (h, h_prime, h0) for generic.
    The result passes validation and has computed ||A|| <= target_norm_a.
    """
    if not 0.0 <= target_norm_a < 1.0:
        raise ValueError("target_norm_a must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    if kind == "nehari-like":
        u_dim, y_dim, n_window, k_taps = dims
        return nehari.to_lifting_data(
            nehari_problem_at_most(rng, u_dim, y_dim, n_window, k_taps, target_norm_a))
    if kind == "classical-like":
        h, h_prime = dims
        return _generate_classical(rng, h, h_prime, target_norm_a)
    if kind == "generic":
        h, h_prime, h0 = dims
        return _generate_generic(rng, h, h_prime, h0, target_norm_a)
    raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
