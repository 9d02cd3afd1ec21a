"""Every certificate's [lower, upper] brackets the exact value of the
matrices it is given, computed at 60 digits by the oracles of
`oracles.py`: `hardy.certify_interpolant`'s one assembly over each
Gramian bound, `redheffer.isometry_certificate` and `redheffer.kyp_norm`,
on seeded honest solutions and on realizations built to fool a
certificate.

Every bracket is compared as it is, with no slack.  Two verdicts rest on
norms of parts formed in floating point, a_part - A and the explicit
rows of the intertwining residual, whose exact value for an honest
solution is itself rounding; their ends are widened by the rounding of
forming those parts (`hardy._rows_rounding`), and every end by that
of its Gram or SVD and top eigenvalue (`linalg.root_of_max_eig`,
`linalg.norm_bracket`).
"""

import dataclasses

import mpmath
import numpy as np
import pytest
from oracles import (
    EXACT_DIGITS,
    exact_certificate_values,
    exact_gramian,
    exact_isometry_residual,
    exact_kyp_norm,
    exact_norm,
    mp_matrix,
    spectral_radius,
)

from rclift import generators, hardy, lifting, linalg, redheffer, schur
from rclift.lifting import combined_status

TOL = 1e-6
EPS = linalg.EPS

# (kind, dims, norm, instance seed, parameter states or None for V = 0);
# every closed loop has at most six states
HONEST = [
    ("generic", (5, 3, 2), 0.8, 0, None),
    ("generic", (4, 3, 2), 0.8, 1, 2),
    ("generic", (5, 3, 2), 1.0 - 1e-6, 0, None),
    ("generic", (5, 3, 2), 1.0 - 1e-6, 1, 1),
    ("nehari-like", (2, 2, 3, 4), 1.0 - 1e-6, 0, None),
    ("nehari-like", (1, 1, 3, 2), 0.8, 3, 3),
]


def _solution(kind, dims, norm, seed, states):
    ds = generators.generate_random(kind, dims, norm, seed)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    v = (schur.zero(rc.kq_dim, rc.w_dim) if states is None
         else schur.random_schur(rc.kq_dim, rc.w_dim, states, seed + 17))
    return ds, rc, redheffer.solution_realization(rc, v)


# the two Gramian bounds of `hardy.certify_interpolant`, in its order
GRAMIAN_BOUNDS = (linalg.storage_gramian_bound, linalg.observability_gramian)


def _verdicts(ds, sol, gramian_bound):
    """The one assembly's verdicts over a Gramian bound, None without one."""
    bound = gramian_bound(sol.a, sol.c)
    return None if bound is None else hardy._gramian_verdicts(ds, sol, TOL, bound)


def _assert_brackets(ds, sol, exact):
    """The verdicts over both bounds bracket the exact values."""
    for gramian_bound in GRAMIAN_BOUNDS:
        verdicts = _verdicts(ds, sol, gramian_bound)
        if verdicts is None:
            continue
        for v, x in zip(verdicts, exact):
            assert v.lower <= float(x) <= v.upper, (gramian_bound.__name__, v, float(x))


@pytest.mark.parametrize("case", HONEST, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-{c[3]}")
def test_certificates_bracket_the_exact_values(case):
    # an honest solution and its Gamma_0 * 1.5 forgery share A and C, so
    # one exact Gramian serves both
    ds, rc, sol = _solution(*case)
    p_mat = exact_gramian(sol.a, sol.c)
    for factor in (1.0, 1.5):
        forged = dataclasses.replace(sol, gamma_coeffs=factor * sol.gamma_coeffs)
        _assert_brackets(ds, forged, exact_certificate_values(ds, forged, p_mat))
        status = combined_status(hardy.certify_interpolant(ds, forged, 16, TOL))
        assert status == ("certified" if factor == 1.0 else "refuted")
    radius, iso = redheffer.isometry_certificate(rc)
    assert float(mpmath.mpf(spectral_radius(rc.x1))) <= radius.upper
    assert iso.lower <= float(exact_isometry_residual(rc)) <= iso.upper
    kyp = redheffer.kyp_norm(rc)
    assert abs(float(exact_kyp_norm(rc)) - kyp) <= 64 * EPS * kyp


def test_hostile_coordinates_are_never_certified():
    # the honest function with two more states that C does not see and a
    # B of 1e8 on them: the exact values are the function's, but the
    # upper ends over both bounds grow with B, so it is uncertified (the limit this
    # family meets), with every bracket kept
    ds, _, sol = _solution("generic", (4, 3, 2), 0.8, 2, None)
    n, extra = sol.a.shape[0], 2
    a = np.zeros((n + extra, n + extra), complex)
    a[:n, :n], a[n:, n:] = sol.a, 0.5 * np.eye(extra)
    hostile = dataclasses.replace(
        sol, a=a, b=np.vstack([sol.b, np.full((extra, sol.b.shape[1]), 1e8)]),
        c=np.hstack([sol.c, np.zeros((sol.c.shape[0], extra))]),
    )
    exact = exact_certificate_values(ds, hostile)
    assert float(abs(exact[2] - exact_certificate_values(ds, sol)[2])) <= 1e-14
    _assert_brackets(ds, hostile, exact)
    assert combined_status(_verdicts(ds, hostile, linalg.storage_gramian_bound)) == "uncertified"
    assert combined_status(hardy.certify_interpolant(ds, hostile, 16, TOL)) == "uncertified"


def test_forgery_just_past_the_norm_threshold_is_never_certified():
    # the whole solution b scaled by f, with f set at 60 digits so that the
    # exact stacked norm f ||b|| is 1 + 2 tol; no bound may certify its norm
    ds, _, sol = _solution("nehari-like", (2, 2, 3, 4), 1.0 - 1e-6, 0, None)
    with mpmath.workdps(EXACT_DIGITS):
        f = float((1 + 2 * mpmath.mpf(TOL)) / exact_certificate_values(ds, sol)[2])
    forged = dataclasses.replace(sol, a_part=f * sol.a_part,
                                 gamma_coeffs=f * sol.gamma_coeffs, c=f * sol.c)
    exact = exact_certificate_values(ds, forged)
    assert abs(float(exact[2]) - (1 + 2 * TOL)) <= 1e-12
    _assert_brackets(ds, forged, exact)
    for gramian_bound in GRAMIAN_BOUNDS:
        assert _verdicts(ds, forged, gramian_bound)[2].status != "certified"
    assert combined_status(hardy.certify_interpolant(ds, forged, 16, TOL)) != "certified"


def test_state_matrix_just_past_the_unit_circle_is_never_certified():
    # the honest function with one more state that C does not see, driven
    # by B, at 1 + 1e-9: rho(A) > 1, so neither bound proves A stable,
    # while a short truncation, which is the honest one, looks fine; the
    # verdict is that truncated, uncertified one
    ds, _, sol = _solution("generic", (5, 3, 2), 0.8, 0, None)
    n = sol.a.shape[0]
    a = np.zeros((n + 1, n + 1), complex)
    a[:n, :n], a[n, n] = sol.a, 1.0 + 1e-9
    unstable = dataclasses.replace(
        sol, a=a, b=np.vstack([sol.b, np.ones((1, sol.b.shape[1]))]),
        c=np.hstack([sol.c, np.zeros((sol.c.shape[0], 1))]),
    )
    assert spectral_radius(unstable.a) > 1.0
    assert all(bound(unstable.a, unstable.c) is None for bound in GRAMIAN_BOUNDS)
    rep = hardy.certify_interpolant(ds, unstable, 8, TOL)
    assert rep == hardy.verify_interpolant(ds, unstable.taylor(8), 8, TOL)
    assert combined_status(rep) == "uncertified"


@pytest.mark.parametrize("factor", [1.0, 1.5])
def test_polynomial_solution_is_bracketed(factor):
    # the head of a generic (5, 4, 3) solution, Gamma_0..Gamma_2, with a
    # zero-dimensional state: the Gramian is empty, so every end rests on
    # the rounding allowances of the explicit parts alone (the instance of
    # `test_hardy.py::_longer_head`, whose stacked-norm floor once lay one
    # ulp above the exact value); factor 1.5 forges Gamma_0
    ds = generators.generate_random("generic", (5, 4, 3), 0.8, 5)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    sol = redheffer.solution_realization(rc, schur.random_schur(rc.kq_dim, rc.w_dim, 2, 6))
    sol = dataclasses.replace(sol, gamma_coeffs=factor * sol.gamma_coeffs[:1])
    n_in, n_out = sol.b.shape[1], sol.c.shape[0]
    poly = dataclasses.replace(sol, gamma_coeffs=sol.taylor(2).gamma_coeffs,
                               a=np.zeros((0, 0), complex), b=np.zeros((0, n_in), complex),
                               c=np.zeros((n_out, 0), complex))
    _assert_brackets(ds, poly, exact_certificate_values(ds, poly))
    assert all(_verdicts(ds, poly, bound) is not None for bound in GRAMIAN_BOUNDS)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rows,cols", [(1, 1), (6, 3), (3, 6), (40, 4)])
def test_norm_rules_bracket_the_exact_norm(seed, rows, cols):
    # the linalg rules that turn a computed norm into a bracket, against
    # 60 digits: the SVD's (`norm_bracket`) and the Gram's
    # (`root_of_max_eig`), alone, with a Hermitian PSD form given exactly,
    # and with that form perturbed by a Hermitian e within the err passed
    rng = np.random.default_rng(seed)
    x = linalg.ginibre(rng, rows, cols)
    b = linalg.ginibre(rng, 2, cols)
    m = b.conj().T @ b
    form = 0.5 * (m + m.conj().T)  # exactly Hermitian
    e = linalg.ginibre(rng, cols, cols)
    e = 1e-9 * (e + e.conj().T)
    with mpmath.workdps(EXACT_DIGITS):
        x_mp = mp_matrix(x)
        norm = float(exact_norm(x_mp))
        gram = x_mp.H @ x_mp + mp_matrix(form)
        with_form = float(mpmath.sqrt(max(mpmath.re(v) for v in
                                          mpmath.eigh(gram, eigvals_only=True))))
    lower, upper = linalg.norm_bracket(x, 0.0)
    assert lower <= norm <= upper
    lower, upper = linalg.root_of_max_eig(x)
    assert lower <= norm <= upper
    lower, upper = linalg.root_of_max_eig(x, form)
    assert lower <= with_form <= upper
    lower, upper = linalg.root_of_max_eig(x, form + e, linalg.frobenius_upper(e))
    assert lower <= with_form <= upper
