"""Every certificate's [lower, upper] brackets the exact value of the
matrices it is given, computed at 60 digits by the oracles of
`oracles.py`: `hardy.certify_interpolant`'s one assembly over each
Gramian bound, `redheffer.isometry_certificate` over each Gramian bound
and `redheffer.kyp_norm`, on seeded honest solutions and realizations
and on realizations built to fool a certificate.

Every bracket is compared as it is, with no slack.  Two verdicts rest on
norms of parts formed in floating point, a_part - A and the explicit
rows of the intertwining residual, whose exact value for an honest
solution is itself rounding; their ends are widened by the rounding of
forming those parts (`hardy._rows_rounding`), and every end by that
of its Gram or SVD and top eigenvalue (`linalg.Gram.root_of_max_eig`,
`linalg.norm_bracket`).  The Nehari defect Gram, which no bracket
reads, lies within the allowance of the Gram it is formed from, plus its
own rounding, of its exact value.
"""

import dataclasses

import mpmath
import numpy as np
import pytest
from oracles import (
    EDGE_SHAPES,
    EXACT_DIGITS,
    exact_certificate_values,
    exact_gramian,
    exact_isometry_residual,
    exact_kyp_norm,
    exact_norm,
    exact_spectral_radius,
    hankel_blocks,
    mp_matrix,
    random_taps_problem,
    spectral_radius,
)

from rclift import generators, hardy, lifting, linalg, nehari, redheffer, schur
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


GRAMIAN_BOUNDS = linalg.GRAMIAN_BOUNDS  # the storage bound, then the Stein Gramian


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
    # (`Gram.root_of_max_eig`), alone, with a Hermitian PSD form given exactly,
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
    lower, upper = linalg.Gram.of(x).root_of_max_eig()
    assert lower <= norm <= upper
    lower, upper = linalg.Gram.of(x).root_of_max_eig(form)
    assert lower <= with_form <= upper
    lower, upper = linalg.Gram.of(x).root_of_max_eig(form + e, linalg.frobenius_upper(e))
    assert lower <= with_form <= upper


@pytest.mark.parametrize("seed", range(4))
def test_norm_bracket_holds_below_the_normal_range(seed):
    # entries from 1e-323 to 1e-305, where the SVD's scaling and the
    # widening round on the subnormal grid and the relative widening is
    # lost: the underflow term keeps the 60-digit norm inside, compared
    # exactly; a zero matrix stays (0, 0)
    rng = np.random.default_rng(seed)
    with mpmath.workdps(EXACT_DIGITS):
        for _ in range(50):
            rows, cols = rng.integers(1, 5, 2)
            m = 10.0 ** rng.uniform(-323, -305) * linalg.ginibre(rng, rows, cols)
            lower, upper = linalg.norm_bracket(m, 0.0)
            assert lower <= exact_norm(mp_matrix(m)) <= upper, (m, lower, upper)
    assert linalg.norm_bracket(np.zeros((2, 2), complex), 0.0) == (0.0, 0.0)


def _radius_case(name):
    """A stable state matrix: r U for a Haar unitary U of size n, where
    Lyapunov's bound is tight, a Ginibre matrix scaled to spectral radius
    r, a 2 x 2 Jordan block at 0.5 with off-diagonal 1e3, or a nilpotent
    shift."""
    kind, n, r = name.split("-")
    n, r = int(n), float(r)
    if kind == "unitary":
        return r * linalg.haar_unitary(np.random.default_rng(n), n)
    if kind == "ginibre":
        g = linalg.ginibre(np.random.default_rng(3), n, n)
        return g * (r / spectral_radius(g))
    if kind == "jordan":
        return r * np.eye(n, dtype=complex) + 1e3 * np.eye(n, k=1, dtype=complex)
    return np.eye(n, k=1, dtype=complex)


RADIUS_CASES = ([f"unitary-{n}-{r}" for n in (1, 4, 6) for r in (0.5, 0.9, 0.999, 1.0 - 1e-6)]
                + ["ginibre-6-0.9", "ginibre-6-0.999", "jordan-2-0.5", "shift-3-0"])


@pytest.mark.parametrize("name", RADIUS_CASES)
def test_radius_bounds_hold_against_the_exact_spectral_radius(name):
    # the bound on rho(a) that each Gramian bound proves, the Stein
    # Gramian's from `linalg._lyapunov`, against the spectral radius at 60
    # digits, compared with no slack; on r U the Lyapunov bound is within
    # 3e-14 of r, so its padding for rounding is what keeps it above
    a = _radius_case(name)
    c = np.ones((1, a.shape[0]), dtype=complex)
    rho = exact_spectral_radius(a)
    stein = linalg.observability_gramian(a, c)
    assert stein is not None and stein.radius_bound < 1.0
    for bound in (gramian_bound(a, c) for gramian_bound in GRAMIAN_BOUNDS):
        if bound is not None:
            assert rho <= bound.radius_bound, (float(rho), bound.radius_bound)


@pytest.mark.parametrize("u,y,n_w,k", EDGE_SHAPES)
def test_defect_gram_within_the_allowance_of_its_gram(u, y, n_w, k):
    # Lambda = (M + M*) / 2 for M = I - G, G the Gram of A formed from its
    # block diagonals.  G is off A*A by its allowance, and so is its
    # Hermitian part.  Forming M rounds its diagonal's real parts, by at
    # most eps/2 |Lambda_ii| / (1 - eps/2), and M + M* each entry, by at
    # most eps/2 |Lambda_ij| / (1 - eps/2) after the exact halving: at
    # most eps ||Lambda||_F (1 + eps) in all
    p = random_taps_problem(u + 10 * y + 100 * n_w + 1000 * k, u, y, n_w, k)
    lam = nehari.gram(p)
    rounding = EPS * linalg.frobenius_upper(lam) * (1.0 + EPS)
    with mpmath.workdps(EXACT_DIGITS):
        a_mp = mp_matrix(hankel_blocks(p))
        exact = mpmath.eye(n_w * u) - a_mp.H @ a_mp
        gap = float(exact_norm(mp_matrix(lam) - exact))
    assert gap <= p.a_gram.allowance + rounding


# --- the isometry certificate, route by route --------------------------------


def _nehari_realization(norm, seed=0):
    """`nehari.coefficients` of a (u, y, N, K) = (2, 2, 3, 4) problem: six states."""
    p = generators.random_nehari_problem(np.random.default_rng(seed), 2, 2, 3, 4, norm)
    return nehari.coefficients(p)


# the HONEST lifting realizations, then Nehari ones at 0.8 and at 1 - 1e-6
ISOMETRY_CASES = ([("lifting",) + case for case in HONEST]
                  + [("nehari", 0.8), ("nehari", 1.0 - 1e-6)])


def _isometry_realization(case):
    if case[0] == "nehari":
        return _nehari_realization(case[1])
    return _solution(*case[1:])[1]


def _form_gap(bound, p_mat, b1, b2):
    """The exact distance of a bound's computed `form(b1, b2)` from
    b1* P b2, and the error the bound claims for it."""
    m, err = bound.form(b1, b2)
    with mpmath.workdps(EXACT_DIGITS):
        gap = exact_norm(mp_matrix(b1).H @ p_mat @ mp_matrix(b2) - mp_matrix(m))
    return float(gap), err


@pytest.mark.parametrize("case", ISOMETRY_CASES, ids=lambda c: "-".join(map(str, c[:4])))
def test_each_gramian_form_brackets_the_exact_gramian(case):
    # the forms of the isometry identities, against the exact Gramian
    rc = _isometry_realization(case)
    c = np.vstack([rc.x3, rc.x4])
    p_mat = exact_gramian(rc.x1, c)
    for gramian_bound in GRAMIAN_BOUNDS:
        bound = gramian_bound(rc.x1, c)
        for b1, b2 in ((rc.x2, rc.x2), (rc.x1, rc.x2), (rc.e, rc.e)):
            gap, err = _form_gap(bound, p_mat, b1, b2)
            assert gap <= err, (gramian_bound.__name__, gap, err)


def test_stein_bound_allows_for_the_rounding_of_c_star_c():
    # two states seen through 200 output rows: the rounding of q = c* c,
    # (p + 2) eps ||c||_F^2, is most of the bound on the Stein residual of
    # P, and with it `form` brackets the exact Gramian of (a, c)
    rng = np.random.default_rng(0)
    a = 0.5 * np.eye(2, dtype=complex)
    c = linalg.ginibre(rng, 200, 2)
    g = linalg.observability_gramian(a, c)
    q_rounding = (200 + 2) * EPS * linalg.frobenius_upper(c) ** 2
    assert q_rounding > 0.9 * g.p_residual
    p_mat = exact_gramian(a, c)
    for b in (np.eye(2, dtype=complex), linalg.ginibre(rng, 2, 3)):
        gap, err = _form_gap(g, p_mat, b, b)
        assert gap <= err


@pytest.mark.parametrize("case", ISOMETRY_CASES, ids=lambda c: "-".join(map(str, c[:4])))
def test_each_isometry_route_brackets_the_exact_residual(case):
    # each Gramian bound on its own, not just the one that decides
    rc = _isometry_realization(case)
    exact = float(exact_isometry_residual(rc))
    radius = spectral_radius(rc.x1)
    for gramian_bound in GRAMIAN_BOUNDS:
        verdicts = redheffer._isometry_verdicts(rc, gramian_bound)
        assert verdicts is not None, gramian_bound.__name__
        bound_radius, iso = verdicts
        assert iso.lower <= exact <= iso.upper, (gramian_bound.__name__, iso, exact)
        assert radius <= bound_radius.upper < 1.0


@pytest.mark.parametrize("seed", range(4))
def test_isometry_routes_bracket_the_rounding_of_the_explicit_parts(seed):
    # with no state, both Gramian bounds are exact and their forms carry
    # no error, so only the rounding of D*D, base*base, the sums and the
    # SVD separates the computed residual from the exact one, which is
    # itself rounding-level for X5 and base with orthonormal columns
    rng = np.random.default_rng(seed)

    def none(rows, cols):
        return np.zeros((rows, cols), complex)

    rc = redheffer.Realization(
        x1=none(0, 0), x2=none(0, 2), x3=none(1, 0), x4=none(3, 0),
        x5=linalg.haar_unitary(rng, 3)[:, :2], e=none(0, 2),
        base=linalg.haar_unitary(rng, 4)[:, :2])
    exact = float(exact_isometry_residual(rc))
    assert exact > 0.0
    for gramian_bound in GRAMIAN_BOUNDS:
        _, iso = redheffer._isometry_verdicts(rc, gramian_bound)
        assert iso.lower <= exact <= iso.upper, (gramian_bound.__name__, iso, exact)
        assert iso.status == "certified"


def test_benchmark_size_nehari_isometry_needs_no_stein_solve(monkeypatch):
    # at (u, y, N, K) = (8, 8, 16, 16), 128 states, the storage bound
    # decides alone: with the Stein solve behind `observability_gramian`
    # refused, the certificate still comes out certified
    p = generators.random_nehari_problem(np.random.default_rng([1, 0]), 8, 8, 16, 16, 0.8)
    nc = nehari.coefficients(p)

    def refuse(*_):
        raise AssertionError("observability_gramian ran a Stein solve")

    monkeypatch.setattr(linalg, "_stein", refuse)
    with pytest.raises(AssertionError):
        linalg.observability_gramian(nc.x1, np.vstack([nc.x3, nc.x4]))
    assert combined_status(redheffer.isometry_certificate(nc)) == "certified"


FORGED_ISOMETRY_NORMS = (0.8, 1.0 - 1e-6)


@pytest.mark.parametrize("norm", FORGED_ISOMETRY_NORMS)
def test_storage_route_refutes_the_scaled_feedthrough(norm):
    # X5 * (1 + 1e-6) leaves [X1; C] and so the Gramian alone, and moves
    # D*D + X2* P X2 off I by about 2e-6: the storage bound refutes it
    # by itself, and the certificate returns its verdicts
    rc = _nehari_realization(norm)
    bad = dataclasses.replace(rc, x5=rc.x5 * (1.0 + 1e-6))
    storage = redheffer._isometry_verdicts(bad, linalg.storage_gramian_bound)
    exact = float(exact_isometry_residual(bad))
    assert storage[1].lower <= exact <= storage[1].upper
    assert storage[1].status == "refuted"
    assert redheffer.isometry_certificate(bad) == storage


@pytest.mark.parametrize("norm", FORGED_ISOMETRY_NORMS)
def test_scaled_output_map_is_refuted_only_by_the_stein_fallback(norm):
    # C * 1.01 makes [X1; C] no isometry, so the storage bound's epsilon is
    # far above the residual and decides nothing; the Stein Gramian of the
    # same matrices refutes, and the certificate returns its verdicts
    rc = _nehari_realization(norm)
    bad = dataclasses.replace(rc, x3=rc.x3 * 1.01, x4=rc.x4 * 1.01)
    exact = float(exact_isometry_residual(bad))
    storage, stein = (redheffer._isometry_verdicts(bad, bound) for bound in GRAMIAN_BOUNDS)
    for verdicts in (storage, stein):
        assert verdicts[1].lower <= exact <= verdicts[1].upper
    assert storage[1].status == "uncertified"
    assert stein[1].status == "refuted"
    assert redheffer.isometry_certificate(bad) == stein
