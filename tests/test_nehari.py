import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import spectral_radius
from power_series import series_mul, series_neumann, taylor_eval, transfer_taylor

from rclift import generators, hardy, lifting, nehari, redheffer, schur
from rclift.errors import CornerNotPD, DimensionMismatch, HankelNotStrict
from rclift.linalg import adj, eye, ginibre, inv_hpd, operator_norm, psd_sqrt, zeros

SCALAR = nehari.NehariProblem(2, 1, 1, (np.array([[0.5]]),))


def closed_form_operators(p, nc):
    """The operators C1, C2, F and G of the paper's closed form, built from
    the taps and from Lambda^x and the corner solution of `nc`.

    C1 is the first block column of Lambda^x below its top block over a
    zero block, times (Lambda^x_11)^-1; C2 the last block column times
    (Lambda^x_NN)^(-1/2); F = [F_-1 .. F_-N]; G the corner solution padded
    with a zero block.
    """
    n_w, u, y = p.n_window, p.u_dim, p.y_dim
    lam_x = nc.lam_cross
    col1 = np.vstack([lam_x[u:, :u], zeros(u, u)])
    c1 = col1 @ inv_hpd(lam_x[:u, :u])
    c2 = lam_x[:, (n_w - 1) * u :] @ psd_sqrt(inv_hpd(lam_x[(n_w - 1) * u :, (n_w - 1) * u :]))
    f_row = np.hstack([p.tap(n) for n in range(1, n_w + 1)])
    g_big = np.hstack(list(nc.g_row) + [zeros(y, u)] * (n_w - len(nc.g_row)))
    return c1, c2, f_row, g_big


def phi_hat_closed_forms(p, nc, lam):
    """The coefficient functions as the paper prints them, from T, C1, C2, F, G.

    With R = (I - lam T)^-1 and B = [G*(I+FG*)^(-1/2), C2]:
    P11 = -lam L e_n* R B,  P12 = L - lam L e_n* R C1,
    P21 = [(I+FG*)^(1/2), F C2] - F R B,  P22 = -F R C1,
    where L = (Lambda^x_11)^(-1/2).
    """
    u, y = p.u_dim, p.y_dim
    c1, c2, f_row, g_big = closed_form_operators(p, nc)
    n = nc.x1.shape[0]
    res = np.linalg.inv(eye(n) - lam * nc.x1)
    e_n = np.vstack([eye(u), zeros(n - u, u)])
    i_fg = eye(y) + f_row @ adj(g_big)
    lam11_nh = psd_sqrt(inv_hpd(nc.lam_cross[:u, :u]))
    b_hat = np.hstack([adj(g_big) @ psd_sqrt(inv_hpd(i_fg)), c2])
    en_res = adj(e_n) @ res
    p11 = -lam * lam11_nh @ en_res @ b_hat
    p12 = lam11_nh - lam * lam11_nh @ en_res @ c1
    p21 = np.hstack([psd_sqrt(i_fg), f_row @ c2]) - f_row @ res @ b_hat
    p22 = -f_row @ res @ c1
    return p11, p12, p21, p22


def flip_operator(n_window, u_dim):
    """Unitary reversal of the window slots of U^N."""
    e = np.zeros((n_window * u_dim, n_window * u_dim), dtype=complex)
    for i in range(n_window):
        e[i * u_dim : (i + 1) * u_dim, (n_window - 1 - i) * u_dim : (n_window - i) * u_dim] = eye(u_dim)
    return e


def second_companion(coeffs):
    """Second companion matrix of a monic-normalized operator polynomial.

    coeffs = [K_0, ..., K_m] with K_m invertible; the companion carries
    identity blocks on the subdiagonal and -K_j K_m^-1 down the last block
    column.
    """
    m = len(coeffs) - 1
    u = coeffs[0].shape[0]
    lead_inv = np.linalg.inv(coeffs[m])
    out = np.zeros((m * u, m * u), dtype=complex)
    for i in range(1, m):
        out[i * u : (i + 1) * u, (i - 1) * u : i * u] = eye(u)
    for j in range(m):
        out[j * u : (j + 1) * u, (m - 1) * u : m * u] = -coeffs[j] @ lead_inv
    return out


def test_hankel_zero_taps():
    p = nehari.NehariProblem(3, 2, 1, ())
    assert operator_norm(nehari.hankel(p)) == 0.0


def test_hankel_scalar_rank_one():
    a = nehari.hankel(SCALAR)
    np.testing.assert_allclose(a, np.array([[0.5, 0.0]]))
    assert abs(operator_norm(a) - 0.5) < 1e-14


def test_hankel_window_one_is_column():
    taps = (np.array([[0.3]]), np.array([[0.2]]), np.array([[0.1]]))
    p = nehari.NehariProblem(1, 1, 1, taps)
    np.testing.assert_allclose(nehari.hankel(p), np.array([[0.3], [0.2], [0.1]]))


def test_gram_cases():
    p0 = nehari.NehariProblem(3, 2, 2, ())
    np.testing.assert_allclose(nehari.gram(p0), eye(6))
    np.testing.assert_allclose(nehari.gram(SCALAR), np.diag([0.75, 1.0]), atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_gram_matches_hankel_defect(seed):
    rng = np.random.default_rng(seed)
    p = generators.random_nehari_problem(
        rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
        int(rng.integers(1, 5)), int(rng.integers(1, 6)), 0.85
    )
    a = nehari.hankel(p)
    np.testing.assert_allclose(
        nehari.gram(p), eye(a.shape[1]) - adj(a) @ a, atol=1e-10
    )


def random_taps_problem(seed, u, y, n_w, k):
    """Problem with k Ginibre taps scaled by 0.3; any port may be zero."""
    rng = np.random.default_rng(seed)
    return nehari.NehariProblem(n_w, u, y, tuple(0.3 * ginibre(rng, y, u) for _ in range(k)))


# (u, y, N, K): K > N, K = 0, N = 1, u = 0, y = 0
EDGE_SHAPES = [(2, 3, 2, 5), (1, 1, 1, 4), (2, 2, 3, 0), (3, 2, 1, 3), (0, 2, 3, 3), (2, 0, 3, 3)]


@pytest.mark.parametrize("u,y,n_w,k", EDGE_SHAPES)
def test_gram_matches_hankel_defect_edge_shapes(u, y, n_w, k):
    p = random_taps_problem(u + 10 * y + 100 * n_w + 1000 * k, u, y, n_w, k)
    a = nehari.hankel(p)
    assert operator_norm(nehari.gram(p) - (eye(a.shape[1]) - adj(a) @ a)) <= 1e-13


def test_coefficients_builds_the_gram_once(monkeypatch):
    calls = []
    real = nehari.gram

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(nehari, "gram", counted)
    rng = np.random.default_rng(5)
    nehari.coefficients(generators.random_nehari_problem(rng, 2, 2, 3, 4, 0.8))
    assert len(calls) == 1


def test_lambda_cross_cases():
    p0 = nehari.NehariProblem(2, 1, 2, ())
    np.testing.assert_allclose(nehari.lambda_cross(nehari.gram(p0)), eye(2))
    np.testing.assert_allclose(
        nehari.lambda_cross(nehari.gram(SCALAR)), np.diag([4.0 / 3.0, 1.0]), atol=1e-14
    )
    lam_x = nehari.lambda_cross(nehari.gram(SCALAR))
    u = SCALAR.u_dim
    for n in (1, 2):
        block = lam_x[(n - 1) * u : n * u, (n - 1) * u : n * u]
        assert np.linalg.eigvalsh(block).min() > 0


def test_lambda_cross_rejects_unit_norm():
    p = nehari.NehariProblem(1, 1, 1, (np.array([[1.0]]),))
    with pytest.raises(HankelNotStrict):
        nehari.lambda_cross(nehari.gram(p))


def test_schur_complement_corner_identity():
    rng = np.random.default_rng(7)
    p = generators.random_nehari_problem(rng, 2, 2, 3, 4, 0.8)
    n_w, u = p.n_window, p.u_dim
    lam = nehari.gram(p)
    lam_x = nehari.lambda_cross(lam)
    corner_inv = np.linalg.inv(lam[: (n_w - 1) * u, : (n_w - 1) * u])
    upper = lam_x[: (n_w - 1) * u, : (n_w - 1) * u]
    col = lam_x[: (n_w - 1) * u, (n_w - 1) * u :]
    low = lam_x[(n_w - 1) * u :, (n_w - 1) * u :]
    shortcut = upper - col @ np.linalg.inv(low) @ adj(col)
    assert operator_norm(shortcut - corner_inv) < 1e-10


def test_solve_g_cases():
    p0 = nehari.NehariProblem(3, 1, 1, ())
    assert all(operator_norm(g) == 0 for g in nehari.solve_g(p0, nehari.gram(p0)))
    np.testing.assert_allclose(
        nehari.solve_g(SCALAR, nehari.gram(SCALAR))[0], np.array([[2.0 / 3.0]])
    )
    p1 = nehari.NehariProblem(1, 1, 1, (np.array([[0.4]]),))
    assert nehari.solve_g(p1, nehari.gram(p1)) == []


@pytest.mark.parametrize(
    "n_w, taps", [(2, (2.0,)), (3, (0.9, 0.9))], ids=["unit_tap_2", "taps_0.9_0.9"]
)
def test_solve_g_rejects_indefinite_corner(n_w, taps):
    # the leading corner entry 1 - sum |F_-n|^2 is negative on both problems
    p = nehari.NehariProblem(n_w, 1, 1, tuple(np.array([[t]]) for t in taps))
    with pytest.raises(CornerNotPD):
        nehari.solve_g(p, nehari.gram(p))


@pytest.mark.parametrize("seed", range(4))
def test_solve_g_residual(seed):
    rng = np.random.default_rng(seed)
    p = generators.random_nehari_problem(rng, 2, 1, 4, 3, 0.8)
    lam = nehari.gram(p)
    g_row = nehari.solve_g(p, lam)
    n_w, u = p.n_window, p.u_dim
    corner = lam[: (n_w - 1) * u, : (n_w - 1) * u]
    lhs = corner @ np.vstack([adj(g) for g in g_row])
    rhs = np.vstack([adj(p.tap(i)) for i in range(1, n_w)])
    assert operator_norm(lhs - rhs) < 1e-9


def test_coefficients_zero_taps():
    p = nehari.NehariProblem(3, 2, 1, ())
    nc = nehari.coefficients(p)
    shift = np.zeros((6, 6))
    shift[:2, 2:4] = np.eye(2)
    shift[2:4, 4:] = np.eye(2)
    np.testing.assert_allclose(nc.x1, shift)
    c1, c2, _, _ = closed_form_operators(p, nc)
    assert operator_norm(c1) == 0.0
    np.testing.assert_allclose(c2, np.vstack([np.zeros((4, 2)), np.eye(2)]))


def test_coefficients_scalar_example():
    nc = nehari.coefficients(SCALAR)
    np.testing.assert_allclose(nc.x1, np.array([[0, 1], [0, 0]]), atol=1e-14)
    c1, c2, f_row, g_big = closed_form_operators(SCALAR, nc)
    assert operator_norm(c1) < 1e-14
    np.testing.assert_allclose(c2, np.array([[0.0], [1.0]]), atol=1e-14)
    np.testing.assert_allclose(f_row, np.array([[0.5, 0.0]]))
    np.testing.assert_allclose(g_big, np.array([[2.0 / 3.0, 0.0]]), atol=1e-14)
    # X5 = [(I+FG*)^(-1/2), 0] with I + FG* = 4/3
    np.testing.assert_allclose(nc.x5, np.array([[np.sqrt(3.0) / 2, 0.0]]), atol=1e-12)


def test_coefficients_window_one():
    p = nehari.NehariProblem(1, 2, 1, (np.array([[0.3, 0.1]]),))
    nc = nehari.coefficients(p)
    assert operator_norm(nc.x1) == 0.0
    c1, c2, _, _ = closed_form_operators(p, nc)
    assert operator_norm(c1) == 0.0
    lam11 = nc.lam_cross
    np.testing.assert_allclose(
        c2 @ c2, lam11, atol=1e-12
    )  # C2 = (top corner)^(1/2) when the window is one


@pytest.mark.parametrize("seed", range(4))
def test_coefficients_cross_check_against_lifting(seed):
    rng = np.random.default_rng(seed)
    p = generators.random_nehari_problem(
        rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)),
        int(rng.integers(2, 4)), int(rng.integers(1, 4)), 0.8
    )
    nc = nehari.coefficients(p)
    ds = nehari.to_lifting_data(p)
    dd = lifting.derive(ds)
    rc = redheffer.build_coefficients(dd)
    # the lifting realization is written in storage coordinates D_A x, and
    # D_A is the root of the Gram of the Nehari data
    assert operator_norm(dd.d_a - psd_sqrt(nc.lam)) < 1e-8
    conjugated_back = {
        "x1": dd.d_a_inv @ rc.x1 @ dd.d_a,
        "x2": dd.d_a_inv @ rc.x2,
        "x3": rc.x3 @ dd.d_a,
        "x4": rc.x4 @ dd.d_a,
        "x5": rc.x5,
    }
    for name, x in conjugated_back.items():
        assert operator_norm(x - getattr(nc, name)) < 1e-8, name
    # T e_n = -C1, and the base block is the first window column of A
    assert operator_norm(nc.x1 @ nc.e + closed_form_operators(p, nc)[0]) < 1e-14
    assert operator_norm(nc.base - ds.a @ nc.e) == 0.0
    assert spectral_radius(nc.x1) < 1.0


@pytest.mark.parametrize("seed", range(4))
def test_phi_eval_matches_printed_closed_forms(seed):
    rng = np.random.default_rng(seed + 40)
    p = generators.random_nehari_problem(
        rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
        int(rng.integers(1, 5)), int(rng.integers(1, 6)), 0.9 * rng.uniform(0.4, 1.0)
    )
    nc = nehari.coefficients(p)
    for _ in range(8):
        lam = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        core = redheffer.phi_eval(nc, lam)
        printed = phi_hat_closed_forms(p, nc, lam)
        for a, b in zip(core, printed):
            assert operator_norm(a - b) < 1e-12


def test_phi_hat_zero_taps_closed_forms():
    p = nehari.NehariProblem(3, 2, 1, ())
    nc = nehari.coefficients(p)
    for lam in (0.3, -0.4j):
        p11, p12, p21, p22 = redheffer.phi_eval(nc, lam)
        np.testing.assert_allclose(
            p11, np.hstack([np.zeros((2, 1)), -(lam**3) * np.eye(2)]), atol=1e-12
        )
        np.testing.assert_allclose(p12, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(p21, np.hstack([np.eye(1), np.zeros((1, 2))]), atol=1e-14)
        assert operator_norm(p22) < 1e-14


def test_phi_hat_scalar_example():
    nc = nehari.coefficients(SCALAR)
    s3 = np.sqrt(3.0)
    for lam in (0.0, 0.5, 0.2 - 0.6j):
        p11, p12, p21, p22 = redheffer.phi_eval(nc, lam)
        np.testing.assert_allclose(p11, [[-lam / 2, -s3 / 2 * lam**2]], atol=1e-12)
        np.testing.assert_allclose(p12, [[s3 / 2]], atol=1e-12)
        np.testing.assert_allclose(p21, [[s3 / 2, -lam / 2]], atol=1e-12)
        assert operator_norm(p22) < 1e-14


def test_phi_hat_taylor_matches_eval():
    rng = np.random.default_rng(3)
    p = generators.random_nehari_problem(rng, 2, 2, 3, 3, 0.8)
    nc = nehari.coefficients(p)
    series = redheffer.phi_taylor(nc, 40)
    lam = 0.45 * np.exp(0.9j)
    values = redheffer.phi_eval(nc, lam)
    for ts, val in zip(series, values):
        assert operator_norm(taylor_eval(ts, lam) - val) < 1e-9


def test_solve_h_central_scalar():
    nc = nehari.coefficients(SCALAR)
    h = nehari.solve_h(nc, schur.zero(1, 2), 12)
    assert all(operator_norm(c) < 1e-14 for c in h)
    assert abs(nehari.assemble_l(SCALAR, h) - 0.5) < 1e-12


def test_solve_h_pure_input_direction_zero_taps():
    p = nehari.NehariProblem(2, 1, 1, ())
    nc = nehari.coefficients(p)
    v = schur.constant(np.array([[0.0], [1.0]]))  # no output component
    h = nehari.solve_h(nc, v, 10)
    assert all(operator_norm(c) < 1e-14 for c in h)


def dense_l_norm(p, h):
    """Norm of the truncated combined operator, assembled block by block."""
    n_w, u, y, k = p.n_window, p.u_dim, p.y_dim, p.k_taps
    deg = len(h) - 1
    rows = k + deg + 1
    out = zeros(rows * y, n_w * u)
    for idx, i in enumerate(range(-k, deg + 1)):
        for j in range(1, n_w + 1):
            m = i - j + 1
            if m >= 0:
                block = h[m]
            elif -m <= k:
                block = p.tap(-m)
            else:
                block = zeros(y, u)
            out[idx * y : (idx + 1) * y, (j - 1) * u : j * u] = block
    return operator_norm(out)


@pytest.mark.parametrize("deg", [0, 1, 40])
@pytest.mark.parametrize("u,y,n_w,k", EDGE_SHAPES)
def test_assemble_l_matches_dense_oracle(u, y, n_w, k, deg):
    p = random_taps_problem(deg + 7 * k, u, y, n_w, k)
    rng = np.random.default_rng(deg + 3)
    h = np.array([0.2 * ginibre(rng, y, u) for _ in range(deg + 1)])
    assert nehari.assemble_l(p, h) == pytest.approx(dense_l_norm(p, h), rel=1e-12, abs=0)


def test_assemble_l_rejects_oversized_coefficient():
    h = np.array([[[2.0]]], complex)
    p = nehari.NehariProblem(1, 1, 1, ())
    sigma = nehari.assemble_l(p, h)
    assert sigma >= 2.0
    assert sigma == pytest.approx(dense_l_norm(p, h), rel=1e-12)
    assert not sigma <= 1.0 + 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_forward_soundness_sweep(seed):
    rng = np.random.default_rng(seed)
    p = generators.random_nehari_problem(
        rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
        int(rng.integers(1, 5)), int(rng.integers(1, 6)), 0.9 * rng.uniform(0.4, 1.0)
    )
    nc = nehari.coefficients(p)
    assert spectral_radius(nc.x1) < 1.0
    v = schur.random_schur(p.u_dim, p.y_dim + p.u_dim, int(rng.integers(0, 4)), seed)
    h = nehari.solve_h(nc, v, 48)
    assert nehari.assemble_l(p, h) <= 1.0 + 1e-6


def test_hat_m_zero_taps_exact():
    # zero taps make the state matrix the nilpotent shift, so the Gramian
    # sum is finite and comes out exact
    for n_w in (1, 2, 3):
        p = nehari.NehariProblem(n_w, 1, 2, ())
        rep = nehari.hat_m_check(nehari.coefficients(p), n_w)
        assert rep.residual <= 1e-10
        assert rep.stein_residual == 0.0
        assert rep.status == "certified"


def test_hat_m_scalar_example():
    nc = nehari.coefficients(SCALAR)
    rep = nehari.hat_m_check(nc, 64)
    assert rep.residual <= 1e-8


def test_hat_m_check_independent_of_degree():
    # the certificate decides the full operator, so the degree a caller
    # passes changes nothing
    rng = np.random.default_rng(4)
    p = generators.random_nehari_problem(rng, 1, 1, 2, 2, 0.8)
    nc = nehari.coefficients(p)
    reps = [nehari.hat_m_check(nc, d) for d in (0, 8, 16, 32)]
    assert all(r == reps[0] for r in reps)
    assert reps[0].status == "certified"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    u=st.integers(1, 3),
    y=st.integers(1, 3),
    n_w=st.integers(1, 4),
    k=st.integers(1, 5),
    norm=st.sampled_from([0.99, 0.999, 0.9999]),
)
def test_hat_m_near_strictness_boundary(seed, u, y, n_w, k, norm):
    # close to ||Gamma|| = 1 the weights blow up; the certificate may give
    # up, but it must never refute a true isometry
    p = generators.random_nehari_problem(np.random.default_rng(seed), u, y, n_w, k, norm)
    cert = redheffer.isometry_certificate(nehari.coefficients(p))
    assert cert.status in ("certified", "uncertified")


def test_hat_m_zero_dimensional_state():
    # u = 0: no state at all, and the stacked operator is the identity of Y
    p = nehari.NehariProblem(3, 0, 2, (zeros(2, 0), zeros(2, 0)))
    nc = nehari.coefficients(p)
    assert nc.x1.shape == (0, 0)
    cert = nehari.hat_m_check(nc, 8)
    assert (cert.residual, cert.stein_residual) == (0.0, 0.0)
    assert cert.status == "certified"


def _special_h(special: redheffer.Realization, v, deg):
    """Hardy-space coefficients to degree deg of a special-case solution."""
    return redheffer.solution_realization(special, v).taylor(deg).gamma_coeffs


def _bridge(u, y):
    return np.block([[eye(y), np.zeros((y, u))], [np.zeros((u, y)), -eye(u)]])


def test_special_n1_zero_parameter():
    p = nehari.NehariProblem(1, 2, 1, (np.array([[0.3, 0.1]]),))
    h = _special_h(nehari.special_n1(p), schur.zero(2, 3), 8)
    assert all(operator_norm(c) == 0 for c in h)


def test_special_n1_constant_parameter_feasible():
    p = nehari.NehariProblem(1, 1, 1, (np.array([[0.5]]),))
    v = schur.constant(np.array([[0.6], [0.0]]))
    h = _special_h(nehari.special_n1(p), v, 24)
    assert all(operator_norm(h[k]) < 1e-14 for k in range(1, 25))
    assert nehari.assemble_l(p, h) <= 1.0 + 1e-9


def test_special_n1_needs_window_one_and_strict_taps():
    with pytest.raises(DimensionMismatch):
        nehari.special_n1(nehari.NehariProblem(2, 1, 1, (np.array([[0.5]]),)))
    with pytest.raises(HankelNotStrict):
        nehari.special_n1(nehari.NehariProblem(1, 1, 1, (np.array([[1.0]]),)))


@pytest.mark.parametrize("seed", range(5))
def test_special_n1_bridge_agreement(seed):
    rng = np.random.default_rng(seed)
    u, y = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    p = generators.random_nehari_problem(rng, u, y, 1, int(rng.integers(1, 5)),
                                         float(rng.uniform(0.2, 0.85)))
    v = schur.random_schur(u, y + u, int(rng.integers(0, 4)), seed + 100)
    general = redheffer.solution_realization(nehari.coefficients(p), v)
    special = redheffer.solution_realization(
        nehari.special_n1(p), schur.left_multiply(_bridge(u, y), v)
    )
    np.testing.assert_array_equal(special.a_part, general.a_part)
    assert hardy.coefficient_gap(general, special) < 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_special_f0_direct_agreement(seed):
    rng = np.random.default_rng(seed)
    u, y, n_w = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, 5))
    v = schur.random_schur(u, y + u, int(rng.integers(0, 4)), seed + 200)
    p = nehari.NehariProblem(n_w, u, y, ())
    general = redheffer.solution_realization(nehari.coefficients(p), v)
    special = redheffer.solution_realization(nehari.special_f0(n_w, u, y), v)
    np.testing.assert_array_equal(special.a_part, general.a_part)
    assert hardy.coefficient_gap(general, special) < 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_special_cases_match_series_closed_forms(seed):
    # the printed closed forms, composed as power series:
    # P_Y V (I - lam P_U V)^-1 D_A (window one), P_Y V (I + lam^N P_U V)^-1 (zero taps)
    rng = np.random.default_rng(seed)
    u, y, n_w = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, 5))
    v = schur.random_schur(u, y + u, int(rng.integers(0, 4)), seed + 300)
    deg = 24
    vt = transfer_taylor(v, deg)
    vy, vu = [c[:y] for c in vt], [c[y:] for c in vt]
    p = generators.random_nehari_problem(rng, u, y, 1, 2, 0.7)
    lam_vu = [zeros(u, u)] + vu[:deg]
    d_a = psd_sqrt(nehari.gram(p))
    n1 = [c @ d_a for c in series_mul(vy, series_neumann(lam_vu, deg), deg)]
    lam_n_vu = [zeros(u, u)] * n_w + [-c for c in vu]
    f0 = series_mul(vy, series_neumann(lam_n_vu, deg), deg)
    for special, oracle in ((nehari.special_n1(p), n1),
                            (nehari.special_f0(n_w, u, y), f0)):
        h = _special_h(special, v, deg)
        assert max(operator_norm(a - b) for a, b in zip(h, oracle)) < 1e-13


def test_special_f0_identity_parameter():
    # V = [1; 0]: the solution is constantly the identity, and the
    # lower-triangular coefficient operator is an isometry
    v = schur.constant(np.array([[1.0], [0.0]]))
    f = _special_h(nehari.special_f0(3, 1, 1), v, 12)
    np.testing.assert_allclose(complex(f[0, 0, 0]), 1.0)
    assert all(operator_norm(c) < 1e-14 for c in f[1:])
    p = nehari.NehariProblem(3, 1, 1, ())
    assert abs(nehari.assemble_l(p, f) - 1.0) < 1e-12


def test_companion_conjugation():
    rng = np.random.default_rng(11)
    p = generators.random_nehari_problem(rng, 2, 2, 4, 3, 0.85)
    nc = nehari.coefficients(p)
    n_w, u = p.n_window, p.u_dim
    e = flip_operator(n_w, u)
    coeffs = [np.zeros((u, u), dtype=complex)]
    for j in range(1, n_w + 1):
        coeffs.append(nc.lam_cross[(n_w - j) * u : (n_w - j + 1) * u, :u])
    comp = second_companion(coeffs)
    assert operator_norm(e @ nc.x1 @ e - comp) < 1e-12


def test_parrott_style_direct_oracle():
    # tiny scalar instance: every certified parameter stays feasible, and
    # direct coefficient perturbations of the central solution cross the
    # feasibility boundary exactly where the norm says they do
    p = nehari.NehariProblem(2, 1, 1, (np.array([[0.4]]), np.array([[0.2]])))
    nc = nehari.coefficients(p)
    deg = 6
    for seed in range(1000):
        v = schur.random_schur(1, 2, seed % 3, seed)
        h = nehari.solve_h(nc, v, deg)
        assert nehari.assemble_l(p, h) <= 1.0 + 1e-6, seed
    central = nehari.solve_h(nc, schur.zero(1, 2), deg)
    base = nehari.assemble_l(p, central)
    assert base <= 1.0
    sigmas = []
    for t in np.linspace(0.0, 1.2, 13):
        pert = central.copy()
        pert[0] += t
        sigmas.append(nehari.assemble_l(p, pert))
    assert all(b >= a - 1e-12 for a, b in zip(sigmas, sigmas[1:]))
    assert sigmas[0] <= 1.0 and sigmas[-1] > 1.0


def test_to_lifting_data_validates():
    rng = np.random.default_rng(12)
    for n_w in (1, 2, 4):
        p = generators.random_nehari_problem(rng, 2, 1, n_w, 3, 0.8)
        rep = lifting.validate(nehari.to_lifting_data(p))
        assert rep.passed and rep.strictness.strict_ok
