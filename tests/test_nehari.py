import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    EDGE_SHAPES,
    EXACT_DIGITS,
    closed_form_operators,
    combined_operator_blocks,
    exact_norm,
    hankel_blocks,
    lambda_cross,
    lifting_data_blocks,
    mp_matrix,
    nehari_closed_form,
    random_taps_problem,
    solve_g,
    spectral_radius,
    tap,
)
from power_series import series_mul, series_neumann, taylor_eval, transfer_taylor

from rclift import generators, hardy, lifting, linalg, nehari, redheffer, schur
from rclift.errors import DimensionMismatch, HankelNotStrict, NotFinite, NotPositiveDefinite
from rclift.linalg import (
    adj,
    eye,
    ginibre,
    hpd_factor,
    inv_hpd,
    observability_gramian,
    operator_norm,
    psd_sqrt,
    zeros,
)
from rclift.redheffer import FP_GRAM_TOL

EPS = linalg.EPS

SCALAR = nehari.NehariProblem(2, 1, 1, (np.array([[0.5]]),))


def phi_hat_closed_forms(p, cf, lam):
    """The coefficient functions as the paper prints them, from T, C1, C2,
    F, G of the closed form `cf`.

    With R = (I - lam T)^-1 and B = [G*(I+FG*)^(-1/2), C2]:
    P11 = -lam L e_n* R B,  P12 = L - lam L e_n* R C1,
    P21 = [(I+FG*)^(1/2), F C2] - F R B,  P22 = -F R C1,
    where L = (Lambda^x_11)^(-1/2).
    """
    u, y = p.u_dim, p.y_dim
    c1, c2, f_row, g_big = closed_form_operators(p, cf)
    n = cf.x1.shape[0]
    res = np.linalg.inv(eye(n) - lam * cf.x1)
    e_n = np.vstack([eye(u), zeros(n - u, u)])
    i_fg = eye(y) + f_row @ adj(g_big)
    lam11_nh = psd_sqrt(inv_hpd(cf.lam_cross[:u, :u]))
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
    assert operator_norm(p.a) == 0.0


def test_hankel_scalar_rank_one():
    a = SCALAR.a
    np.testing.assert_allclose(a, np.array([[0.5, 0.0]]))
    assert abs(operator_norm(a) - 0.5) < 1e-14


def test_hankel_window_one_is_column():
    taps = (np.array([[0.3]]), np.array([[0.2]]), np.array([[0.1]]))
    p = nehari.NehariProblem(1, 1, 1, taps)
    np.testing.assert_allclose(p.a, np.array([[0.3], [0.2], [0.1]]))


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
    a = p.a
    np.testing.assert_allclose(
        nehari.gram(p), eye(a.shape[1]) - adj(a) @ a, atol=1e-10
    )


@pytest.mark.parametrize("u,y,n_w,k", EDGE_SHAPES)
def test_gram_matches_hankel_defect_edge_shapes(u, y, n_w, k):
    p = random_taps_problem(u + 10 * y + 100 * n_w + 1000 * k, u, y, n_w, k)
    a = p.a
    assert operator_norm(nehari.gram(p) - (eye(a.shape[1]) - adj(a) @ a)) <= 1e-13


def _same_bits(got, want) -> bool:
    return (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


@pytest.mark.parametrize("u,y,n_w,k", EDGE_SHAPES + [(2, 3, 4, 2), (3, 2, 3, 3)])
def test_layouts_match_block_loops(u, y, n_w, k):
    # every block of the gathered layouts is a copy of a tap or an exact 0
    # or 1, so they equal the block loops of the definitions bit for bit
    p = random_taps_problem(u + 10 * y + 100 * n_w + 1000 * k + 7, u, y, n_w, k)
    assert _same_bits(p.a, hankel_blocks(p))
    ds = nehari.to_lifting_data(p)
    for got, want in zip((ds.t_prime, ds.r, ds.q), lifting_data_blocks(p)):
        assert _same_bits(got, want)


def _combined_case(u, y, n_w, k, deg):
    """A problem of an edge shape and coefficients H_0..H_deg for it."""
    p = random_taps_problem(u + 10 * y + 100 * n_w + 1000 * k + 7, u, y, n_w, k)
    rng = np.random.default_rng(k + 10 * deg)
    return p, np.array([0.2 * ginibre(rng, y, u) for _ in range(deg + 1)])


@pytest.mark.parametrize("deg", [0, 1, 5])
@pytest.mark.parametrize("u,y,n_w,k", EDGE_SHAPES)
def test_combined_gram_within_its_allowance(u, y, n_w, k, deg):
    # the Gram formed from the block diagonals sums the products of
    # adj(B) @ B in another order, so it lies within the allowance of
    # `linalg.Gram` for B's rows of the exact Gram, at 60 digits
    p, h = _combined_case(u, y, n_w, k, deg)
    b = combined_operator_blocks(p, h)
    gram = nehari.combined_gram(p, h)
    assert gram.g.shape == (n_w * u, n_w * u)
    # the allowance of B's rows: the same formula, off by the trace's rounding
    assert gram.allowance == pytest.approx(linalg.Gram.of(b).allowance, rel=1e-13, abs=0)
    with mpmath.workdps(EXACT_DIGITS):
        b_mp = mp_matrix(b)
        gap = exact_norm(mp_matrix(gram.g) - b_mp.H @ b_mp)
    assert gap <= gram.allowance


@pytest.mark.parametrize("deg", [0, 1, 5])
@pytest.mark.parametrize("u,y,n_w,k", EDGE_SHAPES)
def test_assemble_l_floor_of_the_exact_norm(u, y, n_w, k, deg):
    # a floor of the exact norm of the operator, below it by no more than
    # the Gram's allowance moves the top eigenvalue (to first order)
    p, h = _combined_case(u, y, n_w, k, deg)
    b = combined_operator_blocks(p, h)
    with mpmath.workdps(EXACT_DIGITS):
        exact = float(exact_norm(mp_matrix(b)))
    floor = nehari.assemble_l(p, h)
    gram = nehari.combined_gram(p, h)
    moved = gram.allowance + (n_w * u + 4) * EPS * linalg.frobenius_upper(gram.g)
    assert floor <= exact
    assert floor * floor >= exact * exact - 2.0 * moved - 8.0 * EPS * exact * exact


def test_assemble_l_lays_out_no_dense_operator(monkeypatch):
    # the combined operator is never gathered, so there is no dense fallback
    def refuse(*_):
        raise AssertionError("assemble_l laid out the combined operator")

    monkeypatch.setattr(nehari, "_gather", refuse)
    p, h = _combined_case(2, 3, 2, 5, 5)
    with mpmath.workdps(EXACT_DIGITS):
        exact = float(exact_norm(mp_matrix(combined_operator_blocks(p, h))))
    assert 0.0 < nehari.assemble_l(p, h) <= exact


@pytest.mark.parametrize("huge", [1e160, 1e200])
def test_assemble_l_overflowing_gram_is_not_finite(huge):
    p, h = _combined_case(2, 2, 3, 2, 3)
    h[2, 0, 1] = huge
    with pytest.raises(NotFinite):
        nehari.assemble_l(p, h)


@pytest.mark.parametrize("u,y,n_w,k", [(2, 3, 2, 5), (2, 2, 3, 0)])
def test_problem_caches_are_read_only(u, y, n_w, k):
    # every reader of a problem shares its A and A*A, so none may write them
    p = random_taps_problem(3, u, y, n_w, k)
    for cached in (p.a, p.a_gram.g):
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 1.0


def test_lambda_cross_cases():
    p0 = nehari.NehariProblem(2, 1, 2, ())
    np.testing.assert_allclose(lambda_cross(nehari.gram(p0)), eye(2))
    np.testing.assert_allclose(
        lambda_cross(nehari.gram(SCALAR)), np.diag([4.0 / 3.0, 1.0]), atol=1e-14
    )
    lam_x = lambda_cross(nehari.gram(SCALAR))
    u = SCALAR.u_dim
    for n in (1, 2):
        block = lam_x[(n - 1) * u : n * u, (n - 1) * u : n * u]
        assert np.linalg.eigvalsh(block).min() > 0


def test_lambda_cross_rejects_unit_norm():
    # one Hankel gate: the general realization and the window-one closed
    # form refuse a unit tap with the same message
    p = nehari.NehariProblem(1, 1, 1, (np.array([[1.0]]),))
    messages = []
    for build in (nehari.coefficients, nehari.special_n1):
        with pytest.raises(HankelNotStrict) as exc:
            build(p)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("defect Gram min eigenvalue")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("offset", [-1e-3, 1e-3])
def test_gram_gate_decides_as_the_least_eigenvalue(seed, offset):
    # the Cholesky gate of `coefficients` against the least eigenvalue it
    # replaced, with Lambda's least eigenvalue 1 - ||A||^2 set a relative
    # 1e-3 off GRAM_MIN_EIG, far past the n eps ||Lambda|| where they may
    # differ
    p = generators.random_nehari_problem(np.random.default_rng(seed), 2, 3, 3, 4, 0.5)
    target = np.sqrt(1.0 - nehari.GRAM_MIN_EIG * (1.0 + offset))
    p = nehari.NehariProblem(p.n_window, p.u_dim, p.y_dim,
                             tuple(t * (target / operator_norm(p.a)) for t in p.taps))
    min_eig = np.linalg.eigvalsh(nehari.gram(p))[0]
    assert bool(min_eig < nehari.GRAM_MIN_EIG) is (offset < 0)
    if offset < 0:
        with pytest.raises(HankelNotStrict, match=f"{min_eig:.3e} < 1e-08"):
            nehari.coefficients(p)
    else:
        nehari.coefficients(p)


def test_gram_gate_message_names_a_failed_factorization(monkeypatch):
    # where the Cholesky gate refuses a Gram whose computed least
    # eigenvalue is at least GRAM_MIN_EIG (possible within n eps ||Lambda||
    # of it), the message says so instead of a false inequality
    p = generators.random_nehari_problem(np.random.default_rng(0), 2, 3, 3, 4, 0.5)

    def refuse(m):
        raise NotPositiveDefinite("forced")

    monkeypatch.setattr(nehari, "hpd_factor", refuse)
    with pytest.raises(HankelNotStrict, match=r">= 1e-08, but the Cholesky factorization of "
                                              r"Lambda - 1e-08 I failed$"):
        nehari.coefficients(p)


def test_schur_complement_corner_identity():
    rng = np.random.default_rng(7)
    p = generators.random_nehari_problem(rng, 2, 2, 3, 4, 0.8)
    n_w, u = p.n_window, p.u_dim
    lam = nehari.gram(p)
    lam_x = lambda_cross(lam)
    corner_inv = np.linalg.inv(lam[: (n_w - 1) * u, : (n_w - 1) * u])
    upper = lam_x[: (n_w - 1) * u, : (n_w - 1) * u]
    col = lam_x[: (n_w - 1) * u, (n_w - 1) * u :]
    low = lam_x[(n_w - 1) * u :, (n_w - 1) * u :]
    shortcut = upper - col @ np.linalg.inv(low) @ adj(col)
    assert operator_norm(shortcut - corner_inv) < 1e-10


def test_solve_g_cases():
    p0 = nehari.NehariProblem(3, 1, 1, ())
    assert all(operator_norm(g) == 0 for g in solve_g(p0, nehari.gram(p0)))
    np.testing.assert_allclose(
        solve_g(SCALAR, nehari.gram(SCALAR))[0], np.array([[2.0 / 3.0]])
    )
    p1 = nehari.NehariProblem(1, 1, 1, (np.array([[0.4]]),))
    assert solve_g(p1, nehari.gram(p1)) == []


@pytest.mark.parametrize(
    "n_w, taps", [(2, (2.0,)), (3, (0.9, 0.9))], ids=["unit_tap_2", "taps_0.9_0.9"]
)
def test_solve_g_rejects_indefinite_corner(n_w, taps):
    # the leading corner entry 1 - sum |F_-n|^2 is negative on both problems
    p = nehari.NehariProblem(n_w, 1, 1, tuple(np.array([[t]]) for t in taps))
    with pytest.raises(NotPositiveDefinite):
        solve_g(p, nehari.gram(p))


@pytest.mark.parametrize("seed", range(4))
def test_solve_g_residual(seed):
    rng = np.random.default_rng(seed)
    p = generators.random_nehari_problem(rng, 2, 1, 4, 3, 0.8)
    lam = nehari.gram(p)
    g_row = solve_g(p, lam)
    n_w, u = p.n_window, p.u_dim
    corner = lam[: (n_w - 1) * u, : (n_w - 1) * u]
    lhs = corner @ np.vstack([adj(g) for g in g_row])
    rhs = np.vstack([adj(tap(p, i)) for i in range(1, n_w)])
    assert operator_norm(lhs - rhs) < 1e-9


def test_coefficients_zero_taps():
    # Lambda = I, so W = I and the realization is the closed form itself
    p = nehari.NehariProblem(3, 2, 1, ())
    nc = nehari.coefficients(p)
    shift = np.zeros((6, 6))
    shift[:2, 2:4] = np.eye(2)
    shift[2:4, 4:] = np.eye(2)
    np.testing.assert_allclose(nc.x1, shift)
    cf = nehari_closed_form(p)
    np.testing.assert_allclose(cf.x1, shift)
    c1, c2, _, _ = closed_form_operators(p, cf)
    assert operator_norm(c1) == 0.0
    np.testing.assert_allclose(c2, np.vstack([np.zeros((4, 2)), np.eye(2)]))


def test_coefficients_scalar_example():
    nc = nehari.coefficients(SCALAR)
    cf = nehari_closed_form(SCALAR)
    s3 = np.sqrt(3.0)
    np.testing.assert_allclose(cf.x1, np.array([[0, 1], [0, 0]]), atol=1e-14)
    # W = diag(s3/2, 1), so X1 = W T W^-1 and E = W e_1
    np.testing.assert_allclose(nc.x1, np.array([[0, s3 / 2], [0, 0]]), atol=1e-14)
    np.testing.assert_allclose(nc.e, np.array([[s3 / 2], [0.0]]), atol=1e-14)
    c1, c2, f_row, g_big = closed_form_operators(SCALAR, cf)
    assert operator_norm(c1) < 1e-14
    np.testing.assert_allclose(c2, np.array([[0.0], [1.0]]), atol=1e-14)
    np.testing.assert_allclose(f_row, np.array([[0.5, 0.0]]))
    np.testing.assert_allclose(g_big, np.array([[2.0 / 3.0, 0.0]]), atol=1e-14)
    # X5 = [(I+FG*)^(-1/2), 0] with I + FG* = 4/3, in either coordinates
    for x5 in (nc.x5, cf.x5):
        np.testing.assert_allclose(x5, np.array([[s3 / 2, 0.0]]), atol=1e-12)


def test_coefficients_window_one():
    p = nehari.NehariProblem(1, 2, 1, (np.array([[0.3, 0.1]]),))
    nc = nehari.coefficients(p)
    assert operator_norm(nc.x1) == 0.0
    cf = nehari_closed_form(p)
    c1, c2, _, _ = closed_form_operators(p, cf)
    assert operator_norm(c1) == 0.0
    np.testing.assert_allclose(
        c2 @ c2, cf.lam_cross, atol=1e-12
    )  # C2 = (top corner)^(1/2) when the window is one


def _random_problem(rng, norm=0.8):
    return generators.random_nehari_problem(
        rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)),
        int(rng.integers(2, 4)), int(rng.integers(1, 4)), norm
    )


@pytest.mark.parametrize("seed", range(4))
def test_coefficients_cross_check_against_lifting(seed):
    # both realizations come from the lifting core, in the storage
    # coordinates of two factors of Lambda = D_A^2: D_A and the Cholesky
    # factor W, related by the unitary U = W D_A^-1
    p = _random_problem(np.random.default_rng(seed))
    u = p.u_dim
    nc = nehari.coefficients(p)
    ds = nehari.to_lifting_data(p)
    dd = lifting.derive(ds)
    rc = redheffer.build_coefficients(dd)
    unitary = hpd_factor(nehari.gram(p)) @ dd.d_a_inv
    assert operator_norm(adj(unitary) @ unitary - eye(unitary.shape[0])) < 1e-12
    conjugated = {
        "x1": unitary @ rc.x1 @ adj(unitary),
        "x2": unitary @ rc.x2,
        "x3": rc.x3 @ adj(unitary),
        "x4": rc.x4 @ adj(unitary),
        "x5": rc.x5,
        "e": unitary @ rc.e[:, :u],
        "base": rc.base[:, :u],
    }
    for name, x in conjugated.items():
        assert operator_norm(x - getattr(nc, name)) < 1e-12, name
    assert spectral_radius(nc.x1) < 1.0


@pytest.mark.parametrize("seed", range(6))
def test_coefficients_match_closed_form_oracle(seed):
    # the realization is the paper's closed form with the state written as
    # W x: X1 = W T W^-1, and every solution agrees with the oracle's
    rng = np.random.default_rng(seed + 60)
    p = _random_problem(rng, 0.9 * rng.uniform(0.4, 1.0))
    nc = nehari.coefficients(p)
    cf = nehari_closed_form(p)
    w = hpd_factor(nehari.gram(p))
    w_inv = np.linalg.inv(w)
    similar = {
        "x1": w @ cf.x1 @ w_inv,
        "x2": w @ cf.x2,
        "x3": cf.x3 @ w_inv,
        "x4": cf.x4 @ w_inv,
        "x5": cf.x5,
        "e": w @ cf.e,
        "base": cf.base,
    }
    for name, x in similar.items():
        assert operator_norm(x - getattr(nc, name)) < 1e-12, name
    for j in range(3):
        v = schur.random_schur(p.u_dim, p.y_dim + p.u_dim, j, seed + 10 * j)
        gap = hardy.coefficient_gap(
            redheffer.solution_realization(nc, v), redheffer.solution_realization(cf, v)
        )
        assert gap <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_phi_eval_matches_printed_closed_forms(seed):
    rng = np.random.default_rng(seed + 40)
    p = generators.random_nehari_problem(
        rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
        int(rng.integers(1, 5)), int(rng.integers(1, 6)), 0.9 * rng.uniform(0.4, 1.0)
    )
    nc = nehari.coefficients(p)
    cf = nehari_closed_form(p)
    for _ in range(8):
        lam = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        core = redheffer.phi_eval(nc, lam)
        printed = phi_hat_closed_forms(p, cf, lam)
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


def _solution_h(rc: redheffer.Realization, v, deg):
    """Hardy-space coefficients H_0..H_deg of the solution of a realization
    for the parameter v."""
    return redheffer.solution_taylor(rc, v, deg).gamma_coeffs


def test_solve_h_central_scalar():
    nc = nehari.coefficients(SCALAR)
    h = _solution_h(nc, schur.zero(1, 2), 12)
    assert all(operator_norm(c) < 1e-14 for c in h)
    assert abs(nehari.assemble_l(SCALAR, h) - 0.5) < 1e-12


def test_solve_h_pure_input_direction_zero_taps():
    p = nehari.NehariProblem(2, 1, 1, ())
    nc = nehari.coefficients(p)
    v = schur.constant(np.array([[0.0], [1.0]]))  # no output component
    h = _solution_h(nc, v, 10)
    assert all(operator_norm(c) < 1e-14 for c in h)


def dense_l_norm(p, h):
    """Norm of the truncated combined operator, assembled block by block."""
    return operator_norm(combined_operator_blocks(p, h))


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
    # a floor of the exact norm 2, below it by at most its allowance
    assert 2.0 - 1e-14 <= sigma <= 2.0
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
    h = _solution_h(nc, v, 48)
    assert nehari.assemble_l(p, h) <= 1.0 + 1e-6


def _stein_residual(nc):
    """The Stein residual ||X1* P X1 + C*C - P|| of the computed Gramian
    of the realization's state matrix X1 and output map C = [X3; X4]."""
    c = np.vstack([nc.x3, nc.x4])
    p = observability_gramian(nc.x1, c).p
    return operator_norm(adj(nc.x1) @ p @ nc.x1 + adj(c) @ c - p)


def test_hat_m_zero_taps_exact():
    # zero taps make the state matrix the nilpotent shift, so the Gramian
    # sum is finite and comes out exact
    for n_w in (1, 2, 3):
        nc = nehari.coefficients(nehari.NehariProblem(n_w, 1, 2, ()))
        _, iso = nehari.hat_m_check(nc, n_w)
        assert iso.upper <= 1e-10
        assert _stein_residual(nc) == 0.0
        assert iso.status == "certified"


def test_hat_m_scalar_example():
    nc = nehari.coefficients(SCALAR)
    _, iso = nehari.hat_m_check(nc, 64)
    assert iso.upper <= 1e-8


def test_hat_m_check_independent_of_degree():
    # the certificate decides the full operator, so the degree a caller
    # passes changes nothing
    rng = np.random.default_rng(4)
    p = generators.random_nehari_problem(rng, 1, 1, 2, 2, 0.8)
    nc = nehari.coefficients(p)
    reps = [nehari.hat_m_check(nc, d) for d in (0, 8, 16, 32)]
    assert all(r == reps[0] for r in reps)
    assert lifting.combined_status(reps[0]) == "certified"


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
    _, iso = redheffer.isometry_certificate(nehari.coefficients(p))
    assert iso.status != "refuted"


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("gap", [1e-5, 1e-6])
def test_coefficients_certified_near_boundary(gap, seed):
    # in storage coordinates nothing amplifies the rounding along X2, so
    # honest problems at ||Gamma|| = 1 - gap are certified isometries and
    # the colligation stays contractive
    p = generators.random_nehari_problem(np.random.default_rng(seed), 2, 2, 3, 4, 1 - gap)
    nc = nehari.coefficients(p)
    assert lifting.combined_status(redheffer.isometry_certificate(nc)) == "certified"
    assert redheffer.kyp_norm(nc) <= 1.0 + FP_GRAM_TOL


@pytest.mark.parametrize("seed", range(6))
def test_kyp_norm_bounds_the_nehari_realization(seed):
    rng = np.random.default_rng(seed + 80)
    p = generators.random_nehari_problem(
        rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
        int(rng.integers(1, 5)), int(rng.integers(1, 6)), 0.8
    )
    assert redheffer.kyp_norm(nehari.coefficients(p)) <= 1.0 + FP_GRAM_TOL


def test_hat_m_zero_dimensional_state():
    # u = 0: no state at all, and the stacked operator is the identity of Y
    p = nehari.NehariProblem(3, 0, 2, (zeros(2, 0), zeros(2, 0)))
    nc = nehari.coefficients(p)
    assert nc.x1.shape == (0, 0)
    _, iso = nehari.hat_m_check(nc, 8)
    # the residual's ends are widened by the rounding of forming D*D and
    # the sums even where the Gramian is exact, so the upper end is a few
    # eps, not 0
    assert _stein_residual(nc) == 0.0
    assert iso.lower == 0.0 and iso.upper <= 32 * EPS
    assert iso.status == "certified"


def _bridge(u, y):
    return np.block([[eye(y), np.zeros((y, u))], [np.zeros((u, y)), -eye(u)]])


def test_special_n1_zero_parameter():
    p = nehari.NehariProblem(1, 2, 1, (np.array([[0.3, 0.1]]),))
    h = _solution_h(nehari.special_n1(p), schur.zero(2, 3), 8)
    assert all(operator_norm(c) == 0 for c in h)


def test_special_n1_constant_parameter_feasible():
    p = nehari.NehariProblem(1, 1, 1, (np.array([[0.5]]),))
    v = schur.constant(np.array([[0.6], [0.0]]))
    h = _solution_h(nehari.special_n1(p), v, 24)
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
        h = _solution_h(special, v, deg)
        assert max(operator_norm(a - b) for a, b in zip(h, oracle)) < 1e-13


def test_special_f0_identity_parameter():
    # V = [1; 0]: the solution is constantly the identity, and the
    # lower-triangular coefficient operator is an isometry
    v = schur.constant(np.array([[1.0], [0.0]]))
    f = _solution_h(nehari.special_f0(3, 1, 1), v, 12)
    np.testing.assert_allclose(complex(f[0, 0, 0]), 1.0)
    assert all(operator_norm(c) < 1e-14 for c in f[1:])
    p = nehari.NehariProblem(3, 1, 1, ())
    assert abs(nehari.assemble_l(p, f) - 1.0) < 1e-12


def test_companion_conjugation():
    rng = np.random.default_rng(11)
    p = generators.random_nehari_problem(rng, 2, 2, 4, 3, 0.85)
    cf = nehari_closed_form(p)
    n_w, u = p.n_window, p.u_dim
    e = flip_operator(n_w, u)
    coeffs = [np.zeros((u, u), dtype=complex)]
    for j in range(1, n_w + 1):
        coeffs.append(cf.lam_cross[(n_w - j) * u : (n_w - j + 1) * u, :u])
    comp = second_companion(coeffs)
    assert operator_norm(e @ cf.x1 @ e - comp) < 1e-12


def test_parrott_style_direct_oracle():
    # tiny scalar instance: every certified parameter stays feasible, and
    # direct coefficient perturbations of the central solution cross the
    # feasibility boundary exactly where the norm says they do
    p = nehari.NehariProblem(2, 1, 1, (np.array([[0.4]]), np.array([[0.2]])))
    nc = nehari.coefficients(p)
    deg = 6
    for seed in range(1000):
        v = schur.random_schur(1, 2, seed % 3, seed)
        h = _solution_h(nc, v, deg)
        assert nehari.assemble_l(p, h) <= 1.0 + 1e-6, seed
    central = _solution_h(nc, schur.zero(1, 2), deg)
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
        verdicts = lifting.validate(nehari.to_lifting_data(p))
        assert [lifting.combined_status(v) for v in verdicts] == ["certified", "certified"]
