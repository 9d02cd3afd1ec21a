"""Every certificate's [lower, upper] brackets the exact value of the
matrices it is given, computed at 60 digits by the oracles of
`oracles.py`: both routes of `hardy.certify_interpolant`,
`redheffer.isometry_certificate` and `redheffer.kyp_norm`, on seeded
honest solutions and on realizations built to fool a certificate.

Every bracket is compared as it is, with no slack.  Two verdicts rest on
norms of parts formed in floating point, a_part - A and the explicit
rows of the intertwining residual, whose exact value for an honest
solution is itself rounding; both routes widen both of their ends by the
rounding of forming those parts (`hardy._formation_rounding`) and of
their SVDs.
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


def _assert_brackets(ds, sol, exact):
    """Both routes bracket the exact values."""
    for route in (hardy._storage_verdicts, hardy._exact_verdicts):
        verdicts = route(ds, sol, TOL)
        if verdicts is None:
            continue
        for v, x in zip(verdicts, exact):
            assert v.lower <= float(x) <= v.upper, (route.__name__, v, float(x))


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
    # B of 1e8 on them: the exact values are the function's, but both
    # routes' bounds grow with B, so it is uncertified (the limit this
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
    assert combined_status(hardy._storage_verdicts(ds, hostile, TOL)) == "uncertified"
    assert combined_status(hardy.certify_interpolant(ds, hostile, 16, TOL)) == "uncertified"


def test_forgery_just_past_the_norm_threshold_is_never_certified():
    # the whole solution b scaled by f, with f set at 60 digits so that the
    # exact stacked norm f ||b|| is 1 + 2 tol; no route may certify its norm
    ds, _, sol = _solution("nehari-like", (2, 2, 3, 4), 1.0 - 1e-6, 0, None)
    with mpmath.workdps(EXACT_DIGITS):
        f = float((1 + 2 * mpmath.mpf(TOL)) / exact_certificate_values(ds, sol)[2])
    forged = dataclasses.replace(sol, a_part=f * sol.a_part,
                                 gamma_coeffs=f * sol.gamma_coeffs, c=f * sol.c)
    exact = exact_certificate_values(ds, forged)
    assert abs(float(exact[2]) - (1 + 2 * TOL)) <= 1e-12
    _assert_brackets(ds, forged, exact)
    for route in (hardy._storage_verdicts, hardy._exact_verdicts):
        assert route(ds, forged, TOL)[2].status != "certified"
    assert combined_status(hardy.certify_interpolant(ds, forged, 16, TOL)) != "certified"


def test_state_matrix_just_past_the_unit_circle_is_never_certified():
    # the honest function with one more state that C does not see, driven
    # by B, at 1 + 1e-9: rho(A) > 1, so neither route proves A stable,
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
    assert hardy._storage_verdicts(ds, unstable, TOL) is None
    assert hardy._exact_verdicts(ds, unstable, TOL) is None
    rep = hardy.certify_interpolant(ds, unstable, 8, TOL)
    assert rep == hardy.verify_interpolant(ds, unstable.taylor(8), 8, TOL)
    assert combined_status(rep) == "uncertified"
