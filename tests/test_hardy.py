import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import spectral_radius
from power_series import series_mul, series_neumann, taylor_eval, transfer_taylor
from test_lifting import sznagy_schaffer_truncated
from test_schur import grid_certify

from rclift import cli, generators, hardy, lifting, linalg, nehari, redheffer, schur, serialize
from rclift.errors import DimensionMismatch, NotFinite
from rclift.hardy import StateSpace


def _rand_system(seed, state, ins, outs):
    return schur.random_schur(ins, outs, state, seed)


def test_transfer_taylor_static():
    sys = StateSpace(a=np.zeros((2, 2)), b=np.eye(2), c=np.eye(2), d=0.3 * np.eye(2))
    ts = transfer_taylor(sys, 4)
    np.testing.assert_allclose(ts[0], 0.3 * np.eye(2))
    np.testing.assert_allclose(ts[1], np.eye(2))
    for k in range(2, 5):
        np.testing.assert_allclose(ts[k], np.zeros((2, 2)))


def test_transfer_taylor_scalar_geometric():
    sys = StateSpace(
        a=np.array([[0.5]]), b=np.array([[1.0]]), c=np.array([[1.0]]), d=np.array([[0.0]])
    )
    ts = transfer_taylor(sys, 5)
    expected = [0.0, 1.0, 0.5, 0.25, 0.125, 0.0625]
    got = [complex(c[0, 0]) for c in ts]
    np.testing.assert_allclose(got, expected)


@pytest.mark.parametrize("seed", range(4))
def test_transfer_taylor_matches_resolvent(seed):
    sys = _rand_system(seed, 4, 2, 3)
    deg = 60
    ts = transfer_taylor(sys, deg)
    lam = 0.4 * np.exp(0.7j)
    direct = schur.eval(sys, lam)
    series = taylor_eval(ts, lam)
    assert linalg.operator_norm(direct - series) < 1e-12


def test_mult_matrix_identity_and_shift():
    const = np.eye(2)[None]
    np.testing.assert_allclose(hardy.mult_matrix(const, 3), np.eye(8))
    shift = np.array([np.zeros((1, 1)), np.eye(1)])
    m = hardy.mult_matrix(shift, 3)
    expected = np.zeros((4, 4))
    expected[1:, :3] = np.eye(3)
    np.testing.assert_allclose(m, expected)


@pytest.mark.parametrize("seed", range(3))
def test_mult_matrix_norm_below_grid_sup(seed):
    v = schur.random_schur(2, 2, 3, seed)
    ts = transfer_taylor(v, 48)
    m = hardy.mult_matrix(ts, 24)
    sup = grid_certify(v, points=256, radius=0.999)
    assert linalg.operator_norm(m) <= sup + 1e-6


def test_mult_matrix_toeplitz_nesting():
    ts = transfer_taylor(schur.random_schur(2, 3, 2, 9), 20)
    small = hardy.mult_matrix(ts, 5)
    big = hardy.mult_matrix(ts, 12)
    np.testing.assert_allclose(big[: small.shape[0], : small.shape[1]], small)


def test_observability_matrix_shapes():
    g = np.array([np.eye(2), np.zeros((2, 2))])
    stacked = hardy.observability_matrix(g)
    np.testing.assert_allclose(stacked, np.vstack([np.eye(2), np.zeros((2, 2))]))


@pytest.mark.parametrize("seed", range(4))
def test_contractive_system_stacked_operator(seed):
    sys = _rand_system(seed, 3, 2, 2)
    deg = 24
    f = transfer_taylor(sys, deg)
    # observability coefficients [C, CZ, CZ^2, ...] of C (I - lambda Z)^-1
    g = np.array([sys.c @ np.linalg.matrix_power(sys.a, k) for k in range(deg + 1)])
    stacked = np.hstack([hardy.mult_matrix(f, deg), hardy.observability_matrix(g)])
    assert linalg.operator_norm(stacked) <= 1.0 + 1e-8


def test_series_helpers():
    a = [np.array([[1.0]]), np.array([[2.0]])]
    b = [np.array([[1.0]]), np.array([[3.0]])]
    prod = series_mul(a, b, 3)
    np.testing.assert_allclose([c[0, 0] for c in prod], [1.0, 5.0, 6.0, 0.0])
    s = [np.zeros((1, 1)), np.array([[0.5]])]
    inv = series_neumann(s, 4)
    np.testing.assert_allclose([c[0, 0] for c in inv], [1.0, 0.5, 0.25, 0.125, 0.0625])


def test_verify_ignores_claimed_tail_bound(tmp_path, capsys):
    # the V = 1.5*I loop on the gap-free scalar instance gives a stacked
    # norm of about 2.18; a solution file claiming a huge tail bound must
    # still make `rclift verify` fail
    p = nehari.NehariProblem(2, 1, 1, (np.array([[0.5]]),))
    ds = nehari.to_lifting_data(p)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    bad = 1.5 * np.eye(rc.w_dim, rc.kq_dim)
    a_cl = rc.x1 + rc.x2 @ bad @ rc.x3
    c_cl = rc.x4 + rc.x5 @ bad @ rc.x3
    deg = 24
    gammas = [c_cl @ np.linalg.matrix_power(a_cl, k) @ rc.e for k in range(deg + 1)]
    sol = hardy.SolutionTaylor(a_part=ds.a, gamma_coeffs=np.array(gammas))
    inst = tmp_path / "inst.json"
    path = tmp_path / "sol.json"
    serialize.dump_json(str(inst), serialize.instance_to_json(ds))
    doc = serialize.lifting_solution_to_json(sol, {})
    doc["tail_bound"] = 1000
    serialize.dump_json(str(path), doc)
    code = cli.main(["verify", str(inst), str(path), "--degree", str(deg)])
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["residuals"]}
    assert code == 1
    assert rows["projection_onto_target"]["passed"]
    assert rows["dilation_intertwining"]["passed"]
    assert rows["stacked_norm"]["value"] > 2.0
    assert not rows["stacked_norm"]["passed"]


def _verify_case(case):
    """(data set, solution, degree) for one verify_interpolant case."""
    rng = np.random.default_rng(17)
    if case == "unitary":
        # defect-free T': the dilation is T' itself, with no Hardy slots
        h_prime, h, h0, deg = 4, 3, 2, 5
        ds = lifting.LiftingDataSet(
            a=0.5 * linalg.ginibre(rng, h_prime, h),
            t_prime=linalg.haar_unitary(rng, h_prime),
            r=linalg.ginibre(rng, h, h0),
            q=linalg.ginibre(rng, h, h0),
        )
        return ds, hardy.SolutionTaylor(ds.a, np.zeros((deg + 1, 0, h), complex)), deg
    deg = 0 if case == "deg0" else 9
    ds = generators.generate_random("generic", (5, 4, 3), 0.8, 6)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    sol = redheffer.solution_taylor(rc, schur.random_schur(rc.kq_dim, rc.w_dim, 2, 6), deg)
    return ds, sol, deg


@pytest.mark.parametrize("case", ["deg0", "unitary", "generic"])
@pytest.mark.parametrize("perturb", [0.0, 0.3])
def test_verify_interpolant_matches_dense_dilation(case, perturb):
    # the shift applied by verify_interpolant against the dense U' oracle;
    # a perturbed solution makes the residual O(1) instead of rounding noise
    ds, sol, deg = _verify_case(case)
    rng = np.random.default_rng(3)
    gammas = np.array([g + perturb * linalg.ginibre(rng, *g.shape) for g in sol.gamma_coeffs])
    sol = hardy.SolutionTaylor(ds.a + perturb * linalg.ginibre(rng, *ds.a.shape), gammas)
    b = np.vstack([sol.a_part, *sol.gamma_coeffs[: deg + 1]])
    u_prime = sznagy_schaffer_truncated(ds.t_prime, deg)
    dense = linalg.operator_norm(u_prime @ b @ ds.r - b @ ds.q)
    rep = hardy.verify_interpolant(ds, sol, deg)
    assert abs(rep.intertwining_residual - dense) <= 1e-14 * max(1.0, dense)
    if perturb == 0.0 and case != "unitary":
        assert rep.passed
    if perturb:
        assert dense > 0.1


def test_verify_interpolant_rejects_wrong_defect_dimension():
    ds, sol, deg = _verify_case("generic")
    short = sol.gamma_coeffs[:, :-1]
    with pytest.raises(DimensionMismatch, match="defect dimension"):
        hardy.verify_interpolant(ds, hardy.SolutionTaylor(sol.a_part, short), deg)


def test_verify_interpolant_memory_is_linear():
    # T' = 0.5 U has a full defect space, so the dense U' would be n x n
    # complex with n = h' (deg + 2); the shift needs only O(n h) memory
    rng = np.random.default_rng(5)
    h_prime, h, h0, deg = 20, 4, 3, 127
    ds = lifting.LiftingDataSet(
        a=0.5 * linalg.ginibre(rng, h_prime, h),
        t_prime=0.5 * linalg.haar_unitary(rng, h_prime),
        r=linalg.ginibre(rng, h, h0),
        q=linalg.ginibre(rng, h, h0),
    )
    gammas = np.array([linalg.ginibre(rng, h_prime, h) for _ in range(deg + 1)])
    sol = hardy.SolutionTaylor(ds.a, gammas)
    n = h_prime * (deg + 2)
    dense_bytes = 16 * n * n
    assert dense_bytes >= 100e6
    tracemalloc.start()
    try:
        rep = hardy.verify_interpolant(ds, sol, deg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Gamma_k have h' rows, which verify_interpolant checks against the
    # defect dimension; their norm refutes the solution
    assert rep.status == "refuted"
    assert peak < dense_bytes / 10


# --- the exact certificate of a solution in state-space form -----------------------


def _realized(seed):
    ds = generators.generate_random("generic", (5, 4, 3), 0.8, seed)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    v = schur.random_schur(rc.kq_dim, rc.w_dim, 2, seed + 1)
    return ds, redheffer.solution_realization(rc, v)


def _forge_gamma0(sol, factor):
    return dataclasses.replace(sol, gamma_coeffs=factor * sol.gamma_coeffs[:1])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("factor", [1.0, 1.5])
def test_exact_values_bound_every_truncation(seed, factor):
    # a truncation keeps a subset of the rows of the solution and of its
    # residual, so the exact values bound every truncated one from above
    # and meet them as the degree grows; factor 1.5 forges Gamma_0
    ds, sol = _realized(seed)
    sol = _forge_gamma0(sol, factor)
    exact = hardy.certify_interpolant(ds, sol, 0)
    for deg in (0, 1, 2, 4, 8, 16, 32, 64, 128):
        trunc = hardy.verify_interpolant(ds, sol.taylor(deg), deg)
        assert trunc.sigma_max <= exact.sigma_max + 1e-15
        assert trunc.intertwining_residual <= exact.intertwining_residual + 1e-15
        assert trunc.projection_residual == exact.projection_residual
    assert abs(trunc.sigma_max - exact.sigma_max) <= 1e-12
    assert abs(trunc.intertwining_residual - exact.intertwining_residual) <= 1e-12
    assert exact.status == ("certified" if factor == 1.0 else "refuted")
    if factor != 1.0:
        assert exact.intertwining_residual > 0.01


@pytest.mark.parametrize("factor", [1.0, 1.5])
def test_longer_head_gives_the_same_certificate(factor):
    # the same function with m = 3 listed coefficients (tail B' = A^2 B),
    # and a polynomial solution written with a zero-dimensional state
    ds, sol = _realized(5)
    sol = _forge_gamma0(sol, factor)
    head = sol.taylor(2).gamma_coeffs
    longer = dataclasses.replace(sol, gamma_coeffs=head, b=sol.a @ (sol.a @ sol.b))
    one, three = (hardy.certify_interpolant(ds, s, 0) for s in (sol, longer))
    assert one.status == three.status
    assert abs(one.sigma_max - three.sigma_max) <= 1e-14
    assert abs(one.intertwining_residual - three.intertwining_residual) <= 1e-14
    n_in, n_out = sol.b.shape[1], sol.c.shape[0]
    poly = dataclasses.replace(sol, gamma_coeffs=head, a=np.zeros((0, 0), complex),
                               b=np.zeros((0, n_in), complex), c=np.zeros((n_out, 0), complex))
    exact = hardy.certify_interpolant(ds, poly, 0)
    trunc = hardy.verify_interpolant(ds, poly.taylor(3), 3)
    assert exact.status == ("refuted" if trunc.status == "refuted" else "certified")
    assert abs(exact.sigma_max - trunc.sigma_max) <= 1e-14
    assert abs(exact.intertwining_residual - trunc.intertwining_residual) <= 1e-14


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10**6),
    norm=st.sampled_from([0.99, 0.999, 0.9999]),
    r_margin=st.sampled_from([1.0 + 1e-9, 1.001, 2.0, 1e3, None]),
    forge=st.sampled_from([1.0, 1.0 + 1e-7, 1.0 + 1e-5, 1.5]),
    forged_part=st.sampled_from(["gamma0", "c"]),
)
def test_near_strictness_boundary_never_wrongly_certified(seed, norm, r_margin, forge,
                                                          forged_part):
    # ||A|| -> 1 and sigma_min(R) -> STRICT_DELTA (R and Q scaled together,
    # which keeps the constraints; None leaves them as drawn), honest and
    # forged: a certified solution must pass every truncation, which
    # bounds its residuals and norm from below.  With R and Q scaled down
    # to 1e-6 even Gamma_0 * 1.5 leaves residuals within tol, so only the
    # unscaled instances must refute it.
    ds = generators.generate_random("generic", (4, 3, 2), norm, seed)
    if r_margin is not None:
        s = r_margin * lifting.STRICT_DELTA / linalg.min_singular_value(ds.r)
        ds = lifting.LiftingDataSet(a=ds.a, t_prime=ds.t_prime, r=s * ds.r, q=s * ds.q)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    sol = redheffer.solution_realization(rc, schur.random_schur(rc.kq_dim, rc.w_dim, 2, seed))
    if forged_part == "gamma0":
        sol = _forge_gamma0(sol, forge)
    else:
        sol = dataclasses.replace(sol, c=forge * sol.c)
    rep = hardy.certify_interpolant(ds, sol, 64)
    if rep.status == "certified":
        deg = 256
        assert hardy.verify_interpolant(ds, sol.taylor(deg), deg).passed
    if forge == 1.5 and r_margin is None:
        assert rep.status == "refuted"


# generic (5, 3, 2) instances at 1 - ||A|| = 1e-5 and 1e-6; at 1e-6 only the
# seeds whose ||A|| is computed below 1 - STRICT_DELTA, so that they stay strict
BOUNDARY_GENERIC = [(1e-5, s) for s in range(6)] + [(1e-6, s) for s in (1, 2, 4)]


@pytest.mark.parametrize("gap,seed", BOUNDARY_GENERIC)
def test_honest_solutions_certified_at_the_strictness_boundary(gap, seed):
    # the storage coordinates keep the closed-loop state matrix near normal
    # as D_A grows ill-conditioned, so the exact certificate keeps deciding
    ds = generators.generate_random("generic", (5, 3, 2), 1.0 - gap, seed)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    assert redheffer.kyp_norm(rc) <= 1.0 + redheffer.FP_GRAM_TOL
    params = [schur.zero(rc.kq_dim, rc.w_dim)] + [
        schur.random_schur(rc.kq_dim, rc.w_dim, j, 10 * seed + j) for j in (1, 2, 3)
    ]
    for v in params:
        rep = hardy.certify_interpolant(ds, redheffer.solution_realization(rc, v), 16)
        assert rep.status == "certified"


def _parameter_at_radius(rc, r, seed, observable):
    """A parameter with state matrix r U (U unitary) that enters the loop
    block-triangularly, so rho(A_cl) = max(rho(X1), r): with B = 0 the
    loop never drives its state (C shows it), with C = 0 it never shows
    (B drives it).  ||[r U; s W]|| = 1 for s = sqrt(1 - r^2), ||W|| = 1."""
    rng = np.random.default_rng(seed)
    n = 2
    s = np.sqrt(max(1.0 - r * r, 0.0))
    b = np.zeros((n, rc.kq_dim), complex)
    c = np.zeros((rc.w_dim, n), complex)
    if observable:
        w = linalg.ginibre(rng, rc.w_dim, n)
        c = s * w / linalg.operator_norm(w)
    else:
        w = linalg.ginibre(rng, n, rc.kq_dim)
        b = s * w / linalg.operator_norm(w)
    a = r * linalg.haar_unitary(rng, n)
    return schur.SchurParameter(a, b, c, np.zeros((rc.w_dim, rc.kq_dim), complex))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    inst_seed=st.sampled_from([2, 3, 5]),
    r=st.one_of(st.just(1.0), st.floats(0.99, 1.0)),
    param_seed=st.integers(0, 10**6),
    observable=st.booleans(),
    factor=st.sampled_from([1.0, 1.5]),
)
def test_closed_loop_radius_near_one(inst_seed, r, param_seed, observable, factor):
    # rho(A_cl) in [0.99, 1]: an honest solution is never refuted, Gamma_0
    # * 1.5 always is, and nothing is certified that the degree-256
    # truncation refutes; at rho(A_cl) = 1 there is no Gramian, so the
    # verdict is the truncated one
    ds = generators.generate_random("generic", (4, 3, 2), 0.8, inst_seed)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    assert spectral_radius(rc.x1) < 0.99
    v = _parameter_at_radius(rc, r, param_seed, observable)
    sol = _forge_gamma0(redheffer.solution_realization(rc, v), factor)
    assert abs(spectral_radius(sol.a) - r) <= 1e-12
    rep = hardy.certify_interpolant(ds, sol, 64)
    if factor == 1.5:
        assert rep.status == "refuted"
    else:
        assert rep.passed
    if rep.status == "certified":
        assert hardy.verify_interpolant(ds, sol.taylor(256), 256).passed
    if r == 1.0:
        assert rep == hardy.verify_interpolant(ds, sol.taylor(64), 64)
        assert rep.status == ("uncertified" if factor == 1.0 else "refuted")


@pytest.mark.parametrize("factor", [1.0, 1.5])
def test_unobservable_padding_never_weakens_the_verdict(factor):
    # states C does not see leave the function as it is, but rows of B
    # near 1e20 widen the Gramian's roundoff bound past every threshold:
    # the exact lower ends still hold the explicit rows, and an uncertified
    # verdict is checked truncated as well
    ds, sol = _realized(3)
    sol = _forge_gamma0(sol, factor)
    n, extra = sol.a.shape[0], 2
    a = np.zeros((n + extra, n + extra), complex)
    a[:n, :n], a[n:, n:] = sol.a, 0.5 * np.eye(extra)
    padded = dataclasses.replace(
        sol, a=a, b=np.vstack([sol.b, np.full((extra, sol.b.shape[1]), 1e20)]),
        c=np.hstack([sol.c, np.zeros((sol.c.shape[0], extra))]),
    )
    plain, rep = (hardy.certify_interpolant(ds, s, 16) for s in (sol, padded))
    assert plain.status == ("certified" if factor == 1.0 else "refuted")
    assert rep.status == ("uncertified" if factor == 1.0 else "refuted")


def test_overflowing_expansion_raises_not_finite():
    ds, sol = _realized(4)
    bad = dataclasses.replace(sol, a=1e3 * sol.a)
    with pytest.raises(NotFinite, match="overflow"):
        hardy.certify_interpolant(ds, bad, 200)


def test_unstable_tail_falls_back_to_truncation():
    # no Gramian for rho(A) >= 1: the realization is expanded to the degree
    # and checked truncated, which can refute but not certify
    ds, sol = _realized(0)
    rho = spectral_radius(sol.a)
    for scale in (1.0 / rho, 1.2 / rho):
        bad = dataclasses.replace(sol, a=scale * sol.a)
        rep = hardy.certify_interpolant(ds, bad, 16)
        assert rep.status != "certified"
        assert rep.sigma_max == hardy.verify_interpolant(ds, bad.taylor(16), 16).sigma_max


def test_certificate_rejects_wrong_defect_dimension():
    ds, sol = _realized(1)
    short = dataclasses.replace(sol, gamma_coeffs=sol.gamma_coeffs[:, :-1], c=sol.c[:-1])
    with pytest.raises(DimensionMismatch, match="defect dimension"):
        hardy.certify_interpolant(ds, short, 4)


def test_realization_dimensions_are_checked():
    _, sol = _realized(2)
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(sol, b=sol.b[:, :-1])
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(sol, gamma_coeffs=sol.gamma_coeffs[:, :-1])


def _lam_power(n):
    """lam^n on C^1 as a solution tail: Gamma_0 = 0 and the n-state
    nilpotent shift, so Gamma_k = C A^(k-1) B is 1 at k = n and 0 elsewhere."""
    b, c = np.zeros((n, 1), complex), np.zeros((1, n), complex)
    if n:
        b[0, 0], c[0, -1] = 1.0, 1.0
    zero = np.zeros((1, 1), complex)
    return hardy.SolutionRealization(a_part=zero, gamma_coeffs=zero[None],
                                     a=np.eye(n, k=-1, dtype=complex), b=b, c=c)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_coefficient_gap_reads_to_the_last_deciding_coefficient(n):
    # lam^n differs from the zero function (no states) only at coefficient
    # n = m + n_f + n_g - 1, the last one the rule reads
    chain, zero = _lam_power(n), _lam_power(0)
    assert all(not np.any(g) for g in chain.taylor(n - 1).gamma_coeffs)
    assert hardy.coefficient_gap(chain, zero) == 1.0
    assert hardy.coefficient_gap(zero, chain) == 1.0
    assert hardy.coefficient_gap(chain, chain) == 0.0
    assert hardy.coefficient_gap(chain, _lam_power(n + 1)) == 1.0


def test_coefficient_gap_ignores_unobservable_and_unreachable_states():
    _, sol = _realized(3)
    n, extra = sol.a.shape[0], 3
    a = np.zeros((n + extra, n + extra), complex)
    a[:n, :n], a[n:, n:] = sol.a, 0.5 * np.eye(extra)
    unobservable = dataclasses.replace(
        sol, a=a, b=np.vstack([sol.b, np.full((extra, sol.b.shape[1]), 1e20)]),
        c=np.hstack([sol.c, np.zeros((sol.c.shape[0], extra))]),
    )
    unreachable = dataclasses.replace(
        sol, a=a, b=np.vstack([sol.b, np.zeros((extra, sol.b.shape[1]))]),
        c=np.hstack([sol.c, np.ones((sol.c.shape[0], extra))]),
    )
    for padded in (unobservable, unreachable):
        assert hardy.coefficient_gap(sol, padded) <= 1e-15
    assert hardy.coefficient_gap(sol, _forge_gamma0(sol, 1.5)) > 0.1


def test_coefficient_gap_rejects_different_spaces():
    _, sol = _realized(1)
    short = dataclasses.replace(sol, gamma_coeffs=sol.gamma_coeffs[:, :-1], c=sol.c[:-1])
    with pytest.raises(DimensionMismatch):
        hardy.coefficient_gap(sol, short)
