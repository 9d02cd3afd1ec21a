import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import colligation, spectral_radius
from power_series import linear_fractional, transfer_taylor

from rclift import generators, lifting, nehari, redheffer, schur
from rclift.errors import NotClassicalShape, NotStrict
from rclift.linalg import (
    adj,
    eye,
    ginibre,
    haar_unitary,
    operator_norm,
    psd_sqrt,
    zeros,
)


def scalar_nehari_rc():
    p = nehari.NehariProblem(2, 1, 1, (np.array([[0.5]]),))
    dd = lifting.derive(nehari.to_lifting_data(p))
    return dd, redheffer.build_coefficients(dd)


def generic_rc(seed=3):
    ds = generators.generate_random("generic", (5, 3, 3), 0.8, seed)
    dd = lifting.derive(ds)
    return dd, redheffer.build_coefficients(dd)


def test_build_requires_strict():
    # ||A|| = 1: derive refuses the data, so no realization is ever built
    ds = lifting.LiftingDataSet(
        a=np.ones((1, 1)), t_prime=np.ones((1, 1)), r=np.ones((1, 1)), q=np.ones((1, 1))
    )
    with pytest.raises(NotStrict, match="norm_a=1.000000"):
        lifting.derive(ds)


def test_ill_conditioned_weight_keeps_its_small_roots():
    # sigma_min(R) = 2e-6 clears the strictness gate, so Delta_Omega^-1 =
    # diag(4e-12, 1) up to rounding: its small eigenvalue is genuine, and
    # the root Delta_Omega^-1/2 must keep it, or X2 loses its first column
    ds = lifting.LiftingDataSet(
        a=np.zeros((1, 2)),
        t_prime=np.zeros((1, 1)),
        r=np.array([[2e-6], [0.0]]),
        q=np.array([[0.0], [1.0]]),
    )
    dd = lifting.derive(ds)
    rc = redheffer.build_coefficients(dd)
    expected = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert operator_norm(rc.x2 - expected) < 1e-10
    assert abs(redheffer.kyp_norm(rc) - 1.0) < 1e-12
    gram = redheffer.y_gram_check(dd)
    assert gram.residual < 1e-12
    assert gram.sigma_min_y_star > 0.5


def test_classical_x1_is_weighted_left_inverse():
    ds = generators.generate_random("classical-like", (3, 4), 0.7, 1)
    dd = lifting.derive(ds)
    rc = redheffer.build_coefficients(dd)
    d_a_sq = dd.d_a @ dd.d_a
    aq = ds.a @ ds.q
    t_a = np.linalg.solve(eye(3) - adj(aq) @ aq, adj(ds.q) @ d_a_sq)
    assert operator_norm(rc.x1 - t_a) < 1e-10


def test_zero_a_isometric_constraints_x1():
    # with A = 0 and matching isometries the state matrix collapses to R Q*
    rng = np.random.default_rng(4)
    u = haar_unitary(rng, 4)
    r, q = u[:, :3], np.roll(u, 1, axis=1)[:, :3]
    ds = lifting.LiftingDataSet(a=zeros(2, 4), t_prime=zeros(2, 2), r=r, q=q)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    assert operator_norm(rc.x1 - r @ adj(q)) < 1e-12


def test_scalar_nehari_x1():
    # the shift of the window, written in storage coordinates D_A = diag(sqrt(3)/2, 1)
    dd, rc = scalar_nehari_rc()
    shift = np.array([[0, 1], [0, 0]])
    np.testing.assert_allclose(dd.d_a, np.diag([np.sqrt(3) / 2, 1.0]), atol=1e-12)
    np.testing.assert_allclose(rc.x1 @ dd.d_a, dd.d_a @ shift, atol=1e-12)
    np.testing.assert_allclose(rc.x1, np.array([[0, np.sqrt(3) / 2], [0, 0]]), atol=1e-12)


def test_delta_omega_inverse_closed_form():
    for seed in range(3):
        dd, _ = generic_rc(seed)
        assert redheffer.delta_omega_inverse_residual(dd) < 1e-9


def test_x_tilde_contraction_and_unitary_dichotomy():
    dd, rc = scalar_nehari_rc()
    xt = colligation(rc)
    assert xt.shape[0] == xt.shape[1]
    assert operator_norm(adj(xt) @ xt - eye(xt.shape[1])) < 1e-8
    assert operator_norm(xt @ adj(xt) - eye(xt.shape[0])) < 1e-8
    dd2, rc2 = generic_rc()
    xt2 = colligation(rc2)
    assert operator_norm(xt2) <= 1.0 + 1e-8
    # defect gap forces a proper contraction in some direction
    assert xt2.shape[0] != xt2.shape[1]


def test_phi_at_zero():
    _, rc = generic_rc()
    p11, p12, p21, p22 = redheffer.phi_eval(rc, 0.0)
    assert operator_norm(p11) < 1e-14
    np.testing.assert_allclose(p12, rc.x3 @ rc.e, atol=1e-14)
    np.testing.assert_allclose(p21, rc.x5, atol=1e-14)
    np.testing.assert_allclose(p22, rc.x4 @ rc.e, atol=1e-14)


def test_scalar_nehari_restricted_phi():
    dd, rc = scalar_nehari_rc()
    first_slot = eye(2)[:, :1]
    for lam in (0.25, -0.6j, 0.4 + 0.3j):
        p11, p12, p21, p22 = redheffer.phi_eval(rc, lam)
        np.testing.assert_allclose(
            p11, np.array([[-lam / 2, -np.sqrt(3) / 2 * lam**2]]), atol=1e-12
        )
        np.testing.assert_allclose(p12 @ first_slot, np.array([[np.sqrt(3) / 2]]), atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_z_from_v_pinned_to_omega(seed):
    dd, rc = generic_rc(seed)
    v = schur.random_schur(rc.kq_dim, rc.w_dim, 2, seed + 50)
    for lam in (0.0, 0.5, -0.7j):
        z = redheffer.z_from_v(rc, v, lam)
        assert operator_norm(z @ dd.f_embedding - dd.omega) < 1e-8
        assert operator_norm(z) <= 1.0 + 1e-8
    # V = 0 pins the whole function, not just the restriction
    z0a = redheffer.z_from_v(rc, schur.zero(rc.kq_dim, rc.w_dim), 0.3)
    z0b = redheffer.z_from_v(rc, schur.zero(rc.kq_dim, rc.w_dim), -0.8j)
    omega_ext = dd.omega @ adj(dd.f_embedding)
    assert operator_norm(z0a - omega_ext) < 1e-10
    assert operator_norm(z0a - z0b) < 1e-14


def test_z_v_consistency_roundtrip():
    # the parameter contribution can be read back off the pinned function
    dd, rc = generic_rc(1)
    v = schur.random_schur(rc.kq_dim, rc.w_dim, 3, 77)
    gain = np.vstack([rc.x5, rc.x2])
    for lam in (0.4, 0.2 - 0.55j):
        z = redheffer.z_from_v(rc, v, lam)
        z0 = redheffer.z_from_v(rc, schur.zero(rc.kq_dim, rc.w_dim), lam)
        lhs = np.linalg.lstsq(gain, z - z0, rcond=None)[0]
        recovered = np.linalg.lstsq(adj(rc.x3), adj(lhs), rcond=None)[0]
        assert operator_norm(adj(recovered) - schur.eval(v, lam)) < 1e-8


def test_central_solution_is_observability_series():
    _, rc = generic_rc(2)
    deg = 12
    sol = redheffer.solution_taylor(rc, schur.zero(rc.kq_dim, rc.w_dim), deg)
    cur = rc.x4.copy()
    for k in range(deg + 1):
        np.testing.assert_allclose(sol.gamma_coeffs[k], cur @ rc.e, atol=1e-12)
        cur = cur @ rc.x1


def test_solution_taylor_matches_series_composition():
    # independent oracle: compose the coefficient series with the parameter
    # series by plain power-series arithmetic
    dd, rc = generic_rc(4)
    deg = 14
    v = schur.random_schur(rc.kq_dim, rc.w_dim, 2, 5)
    sol = redheffer.solution_taylor(rc, v, deg)
    gamma = linear_fractional(
        redheffer.phi_taylor(rc, deg), list(transfer_taylor(v, deg)), deg
    )
    for k in range(deg + 1):
        assert operator_norm(sol.gamma_coeffs[k] - gamma[k]) < 1e-11


def test_solution_contractivity_invariant():
    dd, rc = generic_rc(6)
    deg = 48
    v = schur.random_schur(rc.kq_dim, rc.w_dim, 3, 8)
    sol = redheffer.solution_taylor(rc, v, deg)
    rng = np.random.default_rng(0)
    for _ in range(5):
        h = rng.standard_normal((rc.x1.shape[0], 1)) + 1j * rng.standard_normal((rc.x1.shape[0], 1))
        h /= np.linalg.norm(h)
        mass = sum(np.linalg.norm(g @ h) ** 2 for g in sol.gamma_coeffs)
        budget = np.linalg.norm(dd.d_a @ h) ** 2
        assert mass <= budget + 1e-8


def test_non_schur_parameter_breaks_contractivity():
    # forcing a norm-1.5 constant through the formula must violate the
    # stacked-contraction bound; the parameter type itself refuses it, so
    # compose the series by hand.  Only Schur-class parameters are promised
    # to give solutions: with a defect gap a non-Schur V may still land on
    # a contraction, so the check runs where the gap vanishes and the
    # colligation is unitary
    dd, rc = scalar_nehari_rc()
    ds = dd.ds
    assert operator_norm(adj(ds.q) @ ds.q - adj(ds.r) @ ds.r) < 1e-12
    xt = colligation(rc)
    assert operator_norm(adj(xt) @ xt - eye(xt.shape[1])) < 1e-12
    deg = 24
    bad = 1.5 * np.eye(rc.w_dim, rc.kq_dim)
    vts = [bad] + [zeros(rc.w_dim, rc.kq_dim)] * deg
    gamma = linear_fractional(redheffer.phi_taylor(rc, deg), vts, deg)
    b = np.vstack([dd.ds.a] + gamma)
    assert operator_norm(b) > 1.0 + 1e-6


def test_central_nesting_constant_term():
    # the parameter-independent block of the expansion is the central one
    dd, rc = generic_rc(5)
    deg = 10
    v = schur.random_schur(rc.kq_dim, rc.w_dim, 2, 9)
    sol_v = redheffer.solution_taylor(rc, v, deg)
    sol_0 = redheffer.solution_taylor(rc, schur.zero(rc.kq_dim, rc.w_dim), deg)
    p22 = redheffer.phi_taylor(rc, deg)[3]
    for k in range(deg + 1):
        np.testing.assert_allclose(sol_0.gamma_coeffs[k], p22[k], atol=1e-12)
    # and the parameter-dependent difference vanishes at the zero parameter
    assert any(
        operator_norm(a - b) > 1e-12
        for a, b in zip(sol_v.gamma_coeffs, sol_0.gamma_coeffs)
    )


def test_assemble_m_contraction_and_degree_zero():
    dd, rc = generic_rc(7)
    m0 = redheffer.assemble_m(rc, 0)
    assert operator_norm(m0) <= 1.0 + 1e-6
    m = redheffer.assemble_m(rc, 16)
    assert operator_norm(m) <= 1.0 + 1e-6
    # nested truncations: degree-0 block sits inside the bigger matrix
    h_prime = dd.ds.dim_h_prime
    np.testing.assert_allclose(
        m0[h_prime : h_prime + rc.kq_dim, : rc.w_dim],
        m[h_prime : h_prime + rc.kq_dim, : rc.w_dim],
        atol=1e-14,
    )


def m_gram_slack(rc, deg, extra=redheffer.M_EXTRA_ROWS):
    """Exact norm ||D* D|| of the coefficient rows `assemble_m` drops.

    The oracle that ties the truncation to the exact certificates.  With
    C = [X3; X4] the dropped rows factor as D = O K, where O stacks C X1^t
    (t >= 0) and the column blocks of K are X1^s X2 for s = extra..
    deg+extra and X1^(deg+extra+1) E.  So ||D* D|| = ||P^(1/2) K K* P^(1/2)||
    with P = X1* P X1 + C* C.  On an isometry this is exactly
    ||M_trunc* M_trunc - I||.  Returns 0.0 when C is empty and None when
    X1 is not stable (no Gramian exists).
    """
    c = np.vstack([rc.x3, rc.x4])
    if c.size == 0:
        return 0.0
    if spectral_radius(rc.x1) >= 1.0:
        return None
    p = scipy.linalg.solve_discrete_lyapunov(adj(rc.x1), adj(c) @ c)
    blocks = [np.linalg.matrix_power(rc.x1, extra) @ rc.x2]
    for _ in range(deg):
        blocks.append(rc.x1 @ blocks[-1])
    blocks.append(np.linalg.matrix_power(rc.x1, deg + extra + 1) @ rc.e)
    k = np.hstack(blocks)
    root = psd_sqrt(0.5 * (p + adj(p)))
    return operator_norm(root @ k @ adj(k) @ root)


def _isometric_realizations():
    """Stable realizations whose stacked operator is an isometry: a gap-free
    lifting (nehari-like) and two Nehari closed forms."""
    ds = generators.generate_random("nehari-like", (2, 2, 3, 3), 0.85, 5)
    yield redheffer.build_coefficients(lifting.derive(ds))
    for seed in (1, 2):
        p = generators.random_nehari_problem(np.random.default_rng(seed), 2, 3, 3, 4, 0.8)
        yield nehari.coefficients(p)


def test_assemble_m_isometry_gap_free():
    # the dense oracle of the certificate: on a certified isometry M*M - I
    # of the truncation is minus the Gram of the dropped rows, so the slack
    # is the exact residual at every degree, not just a bound
    for rc in _isometric_realizations():
        assert spectral_radius(rc.x1) < 1.0
        _, iso = redheffer.isometry_certificate(rc)
        assert iso.status == "certified" and iso.upper <= 1e-12
        for deg in (0, 8, 48):
            m = redheffer.assemble_m(rc, deg)
            slack = m_gram_slack(rc, deg)
            assert slack is not None
            assert abs(operator_norm(adj(m) @ m - eye(m.shape[1])) - slack) <= 1e-10


# gap-free nehari-like (2, 2, 3, 4) instances at 1 - ||A|| = 1e-5 and 1e-6
BOUNDARY_GAP_FREE = [(gap, s) for gap in (1e-5, 1e-6) for s in range(8)]


@pytest.mark.parametrize("gap,seed", BOUNDARY_GAP_FREE)
def test_isometry_certified_at_the_strictness_boundary(gap, seed):
    # in storage coordinates the Gramian is near I, so its roundoff stays
    # far below FP_GRAM_TOL as D_A grows ill-conditioned
    ds = generators.generate_random("nehari-like", (2, 2, 3, 4), 1.0 - gap, seed)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    assert redheffer.kyp_norm(rc) <= 1.0 + redheffer.FP_GRAM_TOL
    _, iso = redheffer.isometry_certificate(rc)
    assert iso.status == "certified"


def _random_realization(seed, n, rho, rows3, rows4, w, k):
    rng = np.random.default_rng(seed)
    g = ginibre(rng, n, n)
    if rho == 0.0:
        x1 = np.triu(g, 1)  # nilpotent, and its powers vanish exactly
    else:
        x1 = g * (rho / spectral_radius(g))
    return redheffer.Realization(
        x1=x1,
        x2=ginibre(rng, n, w),
        x3=ginibre(rng, rows3, n),
        x4=ginibre(rng, rows4, n),
        x5=ginibre(rng, rows4, w),
        e=ginibre(rng, n, k),
        base=ginibre(rng, 2, k),
    )


def _dense_dropped_mass(rc, deg, extra, depth=2000):
    """||D* D|| of the rows that a truncation of M at degree deg with deg +
    extra output rows drops, read off the next `depth` rows: output row t
    is [P11_t, P11_(t-1), ..., P11_(t-deg), P12_t] in the P11 part, and
    likewise with P21 and P22."""
    kept = deg + extra + 1
    p11, p12, p21, p22 = redheffer.phi_taylor(rc, kept + depth - 1)
    lags = np.arange(kept, kept + depth)[:, None] - np.arange(deg + 1)[None, :]

    def rows(f, g):
        _, p, q = f.shape
        toeplitz = f[lags].transpose(0, 2, 1, 3).reshape(depth * p, (deg + 1) * q)
        return np.hstack([toeplitz, g[kept:].reshape(depth * p, g.shape[2])])

    d = np.vstack([rows(p11, p12), rows(p21, p22)])
    return operator_norm(adj(d) @ d)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    rho=st.sampled_from([0.0, 0.3, 0.8, 0.95]),
    rows3=st.integers(0, 2),
    rows4=st.integers(0, 2),
    w=st.integers(1, 3),
    k=st.integers(1, 3),
    deg=st.integers(0, 11),
    extra=st.integers(0, 5),
)
def test_m_gram_slack_is_exact_dropped_mass(seed, n, rho, rows3, rows4, w, k, deg, extra):
    rc = _random_realization(seed, n, rho, rows3, rows4, w, k)
    slack = m_gram_slack(rc, deg, extra)
    dense = _dense_dropped_mass(rc, deg, extra)
    assert abs(slack - dense) <= 1e-10 * dense


def test_m_gram_slack_unstable_state_is_none():
    rng = np.random.default_rng(6)
    rc = _random_realization(6, 3, 0.5, 1, 2, 2, 2)
    rc = dataclasses.replace(rc, x1=haar_unitary(rng, 3))
    assert spectral_radius(rc.x1) >= 1.0
    assert m_gram_slack(rc, 8) is None


def test_m_gram_slack_empty_output_is_zero():
    # no rows in [X3; X4] means no dropped rows, whatever the state matrix
    rng = np.random.default_rng(7)
    rc = _random_realization(7, 3, 0.5, 0, 0, 2, 2)
    assert m_gram_slack(rc, 8) == 0.0
    rc = dataclasses.replace(rc, x1=haar_unitary(rng, 3))
    assert m_gram_slack(rc, 8) == 0.0


# --- the exact certificates ------------------------------------------------------


@pytest.mark.parametrize("forge", ["unitary_x1", "x5_scaled", "c_scaled"])
def test_forged_realization_never_certified(forge):
    rng = np.random.default_rng(11)
    for rc in _isometric_realizations():
        if forge == "unitary_x1":
            bad = dataclasses.replace(rc, x1=haar_unitary(rng, rc.x1.shape[0]))
        elif forge == "x5_scaled":
            bad = dataclasses.replace(rc, x5=rc.x5 * (1.0 + 1e-6))
        else:
            bad = dataclasses.replace(rc, x3=rc.x3 * 1.01, x4=rc.x4 * 1.01)
        _, iso = redheffer.isometry_certificate(bad)
        # no Gramian exists for a unitary state matrix; the scaled ones are
        # contractions that miss the isometry identities
        assert iso.status == ("uncertified" if forge == "unitary_x1" else "refuted")


def test_unstable_state_is_uncertified():
    _, rc = generic_rc(0)
    bad = dataclasses.replace(rc, x1=1.5 * rc.x1 / spectral_radius(rc.x1))
    assert spectral_radius(bad.x1) >= 1.0
    radius, iso = redheffer.isometry_certificate(bad)
    assert (radius.lower, radius.upper) == (0.0, np.inf)
    assert (iso.lower, iso.upper) == (0.0, np.inf)
    assert radius.status == iso.status == "uncertified"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(generators.KINDS),
    seed=st.integers(0, 10**6),
    norm=st.sampled_from([0.3, 0.8, 0.99]),
    scale=st.sampled_from([0.5, 1.0, 1.05]),
)
def test_kyp_norm_bounds_dense_truncation(kind, seed, norm, scale):
    # scale multiplies the parameter-output columns (X2, X5) of the
    # colligation, pushing it past a contraction at 1.05
    dims = {"nehari-like": (2, 2, 3, 3), "classical-like": (3, 4), "generic": (5, 3, 3)}[kind]
    ds = generators.generate_random(kind, dims, norm, seed)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    rc = dataclasses.replace(rc, x2=scale * rc.x2, x5=scale * rc.x5)
    kyp = redheffer.kyp_norm(rc)
    deg = 16
    dense = operator_norm(redheffer.assemble_m(rc, deg))
    assert dense <= max(1.0, kyp) ** (deg + redheffer.M_EXTRA_ROWS + 2) + 1e-12
    if kyp <= 1.0 + 1e-10:
        assert dense <= 1.0 + 1e-6
    if scale <= 1.0:
        assert kyp <= 1.0 + 1e-10


@pytest.mark.parametrize("entry", [1e160, 1e200, 1e300])
def test_isometry_certificate_of_an_overflowing_state_knows_nothing(entry):
    # X1 of 1e200 entries has no Gramian bound (the storage bound's
    # Frobenius square overflows, the Stein Gramian proves nothing), so
    # the certificate returns its verdicts that know nothing
    _, rc = generic_rc()
    bad = dataclasses.replace(rc, x1=np.full(rc.x1.shape, entry, dtype=complex))
    radius, iso = redheffer.isometry_certificate(bad)
    assert (radius.name, radius.lower, radius.upper) == ("state_spectral_radius", 0.0, np.inf)
    assert (iso.name, iso.lower, iso.upper) == ("stacked_isometry_residual", 0.0, np.inf)
    assert radius.status == iso.status == "uncertified"


def test_y_gram_and_projections():
    for seed in range(3):
        dd, _ = generic_rc(seed)
        rep = redheffer.y_gram_check(dd)
        assert rep.residual < 1e-9
        assert rep.sigma_min_y_star > 1e-6
        rq, rr = redheffer.projection_identity_check(dd)
        assert rq < 1e-8 and rr < 1e-8
    dd_s, _ = scalar_nehari_rc()
    assert redheffer.y_gram_check(dd_s).residual < 1e-9


def test_y_gram_degenerate_isometric_case():
    # A = 0 with matching isometries: omega is isometric and the defect
    # square of its adjoint is I - omega omega*
    rng = np.random.default_rng(8)
    u = haar_unitary(rng, 4)
    r, q = u[:, :3], np.roll(u, 1, axis=1)[:, :3]
    ds = lifting.LiftingDataSet(a=zeros(3, 4), t_prime=zeros(3, 3), r=r, q=q)
    dd = lifting.derive(ds)
    assert lifting.omega_isometry_defect(dd) < 1e-10
    rep = redheffer.y_gram_check(dd)
    assert rep.residual < 1e-9


def test_classical_reading_dichotomy_is_degenerate():
    # finite classical instances cannot separate the readings: the kernel
    # weight is empty and the dilation defect annihilates the target
    ds = generators.generate_random("classical-like", (3, 4), 0.7, 2)
    dd = lifting.derive(ds)
    rc = redheffer.build_coefficients(dd)
    assert rc.kq_dim == 0
    d_t, e_t = ds.t_prime_defect
    assert operator_norm(adj(e_t) @ (d_t @ ds.a)) < 1e-12
    for lam in (0.3, -0.5j):
        gen = redheffer.phi_eval(rc, lam)
        for reading in ("corrected", "as-printed"):
            cls = redheffer.classical_phi_eval(dd, lam, reading)
            assert max(operator_norm(g - c) for g, c in zip(gen, cls)) < 1e-12


def test_classical_phi_rejects_other_shapes():
    dd, _ = generic_rc(0)
    with pytest.raises(NotClassicalShape):
        redheffer.classical_phi_eval(dd, 0.1, "corrected")


def test_exponent_readings_differ_on_isometric_shape():
    # on the nondegenerate isometric-constraint shape the kernel weight is
    # visible and only the squared reading reproduces the pipeline weight
    rng = np.random.default_rng(9)
    p = generators.random_nehari_problem(rng, 2, 2, 3, 3, 0.8)
    dd = lifting.derive(nehari.to_lifting_data(p))
    rc = redheffer.build_coefficients(dd)
    e_q = dd.ker_q_star
    # X3 = Delta_Q^-1/2 (D_A^-1 E_Q)*, so X3 D_A^-1 E_Q is the root of the
    # pipeline's Delta_Q
    root = rc.x3 @ dd.d_a_inv @ e_q
    delta_q = root @ root
    squared = operator_norm(delta_q - adj(e_q) @ dd.d_a_sq_inv @ e_q)
    printed = operator_norm(delta_q - adj(e_q) @ dd.d_a_inv @ e_q)
    assert squared < 1e-12
    assert printed > 1e-4


@pytest.mark.parametrize("seed", range(3))
def test_schur_membership_grid(seed):
    _, rc = generic_rc(seed)
    worst = 0.0
    for k in range(64):
        lam = 0.999 * np.exp(2j * np.pi * k / 64)
        p11, _, p21, _ = redheffer.phi_eval(rc, lam)
        worst = max(worst, operator_norm(p11), operator_norm(p21))
    assert worst <= 1.0 + 1e-6


# --- stacked disc evaluation ------------------------------------------------------

DISC_POINTS = np.array([0.0, 0.5, -0.7j, 0.3 + 0.6j, 0.95 * np.exp(2.0j)])
OFF_DISC = [1.0, -1.0j, 0.3 + 1.2j]


def assert_stack_is_pointwise(stack, pointwise):
    """Each slice of a stacked value equals the scalar call at its point,
    to 1e-15 relative."""
    assert stack.shape == (len(pointwise),) + pointwise[0].shape
    for s, p in zip(stack, pointwise):
        assert operator_norm(s - p) <= 1e-15 * operator_norm(p)


def zero_state_realization(seed=0):
    """A realization with state dimension 0: P11 = P12 = P22 = 0 and P21 = X5."""
    rng = np.random.default_rng(seed)
    return redheffer.Realization(
        x1=zeros(0, 0), x2=zeros(0, 3), x3=zeros(2, 0), x4=zeros(1, 0),
        x5=ginibre(rng, 1, 3), e=zeros(0, 2), base=ginibre(rng, 2, 2),
    )


@pytest.mark.parametrize("which", ["lifting", "nehari", "zero_state"])
def test_phi_eval_stack_is_pointwise(which):
    if which == "lifting":
        rc = generic_rc(2)[1]
    elif which == "nehari":
        rc = nehari.coefficients(
            generators.random_nehari_problem(np.random.default_rng(5), 2, 1, 3, 2, 0.8))
    else:
        rc = zero_state_realization()
    stacks = redheffer.phi_eval(rc, DISC_POINTS)
    points = [redheffer.phi_eval(rc, lam) for lam in DISC_POINTS]
    for j, stack in enumerate(stacks):
        assert_stack_is_pointwise(stack, [pt[j] for pt in points])
    if which == "zero_state":
        assert stacks[0].shape == (len(DISC_POINTS), 2, 3)
        assert all(np.array_equal(p21, rc.x5) for p21 in stacks[2])


@pytest.mark.parametrize("reading", ["corrected", "as-printed"])
def test_classical_phi_eval_stack_is_pointwise(reading):
    dd = lifting.derive(generators.generate_random("classical-like", (3, 4), 0.7, 2))
    stacks = redheffer.classical_phi_eval(dd, DISC_POINTS, reading)
    points = [redheffer.classical_phi_eval(dd, lam, reading) for lam in DISC_POINTS]
    for j, stack in enumerate(stacks):
        assert_stack_is_pointwise(stack, [pt[j] for pt in points])


@pytest.mark.parametrize("state_dim", [0, 2])
def test_z_from_v_stack_is_pointwise(state_dim):
    dd, rc = generic_rc(1)
    v = schur.random_schur(rc.kq_dim, rc.w_dim, state_dim, 31)
    stack = redheffer.z_from_v(rc, v, DISC_POINTS)
    assert_stack_is_pointwise(stack, [redheffer.z_from_v(rc, v, lam) for lam in DISC_POINTS])


@pytest.mark.parametrize("bad", OFF_DISC)
def test_stacked_disc_gate_rejects_any_outside_point(bad):
    lam = np.append(DISC_POINTS, bad)
    dd, rc = generic_rc(1)
    v = schur.random_schur(rc.kq_dim, rc.w_dim, 1, 3)
    dd_cls = lifting.derive(generators.generate_random("classical-like", (3, 4), 0.7, 2))
    with pytest.raises(ValueError):
        redheffer.phi_eval(rc, lam)
    with pytest.raises(ValueError):
        redheffer.z_from_v(rc, v, lam)
    for reading in ("corrected", "as-printed"):
        with pytest.raises(ValueError):
            redheffer.classical_phi_eval(dd_cls, lam, reading)
