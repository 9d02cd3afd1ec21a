import numpy as np
import pytest
from oracles import intertwining_nullspace

from rclift import cli, generators, lifting, nehari, serialize
from rclift.errors import DimensionMismatch, EmptySolutionSpace, NotConverged, NotStrict
from rclift.linalg import (
    RANK_RTOL,
    adj,
    cmatrix,
    eye,
    ginibre,
    haar_unitary,
    operator_norm,
    psd_sqrt_and_range,
    rank_from_singular_values,
    solve_hpd,
    zeros,
)


def sznagy_schaffer_truncated(t_prime: np.ndarray, deg: int) -> np.ndarray:
    """Dense truncated canonical isometric dilation of a contraction.

    Acts on H' plus deg+1 Taylor slots of defect vectors: the first column
    block feeds D_T' into slot 0 and the slot shift pushes k -> k+1 with
    the top slot discarded.  The result is isometric on every column that
    does not feed the discarded slot.  It is the oracle for the shift that
    `hardy.verify_interpolant` applies without forming this matrix.
    """
    t_prime = cmatrix(t_prime)
    if t_prime.shape[0] != t_prime.shape[1]:
        raise DimensionMismatch("t_prime must be square")
    if deg < 0:
        raise ValueError("deg must be nonnegative")
    h = t_prime.shape[0]
    d_t, e_t = psd_sqrt_and_range(eye(h) - adj(t_prime) @ t_prime)
    dt = e_t.shape[1]
    n = h + dt * (deg + 1)
    u = zeros(n, n)
    u[:h, :h] = t_prime
    u[h:h + dt, :h] = adj(e_t) @ d_t
    for k in range(deg):
        u[h + (k + 1) * dt:h + (k + 2) * dt, h + k * dt:h + (k + 1) * dt] = eye(dt)
    return u


def scalar_nehari_data():
    p = nehari.NehariProblem(2, 1, 1, (np.array([[0.5]]),))
    return nehari.to_lifting_data(p)


def _statuses(ds):
    """The combined status of the constraint verdicts of `lifting.validate`
    and that of its strictness verdicts."""
    return tuple(lifting.combined_status(v) for v in lifting.validate(ds))


def test_validate_nehari_built_data():
    assert _statuses(scalar_nehari_data()) == ("certified", "certified")
    # window 1: R has no columns, so it is left-invertible with sigma_min
    # +inf, written as null like any other infinite row
    ds = nehari.to_lifting_data(nehari.NehariProblem(1, 1, 1, (np.array([[0.5]]),)))
    _, (_, sigma_r) = lifting.validate(ds)
    assert ds.dim_h0 == 0 and sigma_r.upper == np.inf and sigma_r.status == "certified"
    assert serialize.canonical_json(cli._rows([sigma_r])[0]["value"]) == "null\n"
    assert _statuses(ds) == ("certified", "certified")
    edge = nehari.to_lifting_data(nehari.NehariProblem(1, 1, 1, (np.array([[1.0]]),)))
    with pytest.raises(NotStrict, match="sigma_min_r=inf"):
        lifting.derive(edge)


def test_validate_zero_a_isometries():
    rng = np.random.default_rng(0)
    q = haar_unitary(rng, 3)
    ds = lifting.LiftingDataSet(
        a=np.zeros((2, 3)), t_prime=0.5 * haar_unitary(rng, 2), r=eye(3), q=q
    )
    assert _statuses(ds) == ("certified", "certified")


def test_validate_flags_zero_column_r():
    rng = np.random.default_rng(1)
    r = np.hstack([eye(3)[:, :2], np.zeros((3, 1))])
    q = haar_unitary(rng, 3)
    ds = lifting.LiftingDataSet(a=np.zeros((2, 3)), t_prime=np.zeros((2, 2)), r=r, q=q)
    _, (_, sigma_r) = lifting.validate(ds)
    # the constraints hold (R*R <= Q*Q), the strictness of R does not
    assert _statuses(ds) == ("certified", "refuted")
    assert (sigma_r.lower, sigma_r.upper) == (0.0, 0.0)


def test_validate_flags_expansive_a():
    ds = lifting.LiftingDataSet(
        a=1.2 * np.ones((1, 1)), t_prime=np.ones((1, 1)), r=np.ones((1, 1)), q=np.ones((1, 1))
    )
    constraints, _ = lifting.validate(ds)
    rows = {v.name: v for v in constraints}
    assert rows["contraction_a"].status == "refuted"


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("lower, upper, threshold, at_least, status", [
    # exact values, lower = upper, on either side of the threshold and on it
    (0.5, 0.5, 1.0, False, "certified"),
    (1.0, 1.0, 1.0, False, "certified"),
    (1.5, 1.5, 1.0, False, "refuted"),
    # ends that straddle the threshold decide nothing
    (0.5, 1.5, 1.0, False, "uncertified"),
    # a truncated check has no upper end: it can refute, never certify
    (0.5, INF, 1.0, False, "uncertified"),
    (1.5, INF, 1.0, False, "refuted"),
    # a NaN end neither certifies nor refutes; the other end still may
    (NAN, NAN, 1.0, False, "uncertified"),
    (0.5, NAN, 1.0, False, "uncertified"),
    (NAN, 1.5, 1.0, False, "uncertified"),
    (NAN, 0.5, 1.0, False, "certified"),
    (1.5, NAN, 1.0, False, "refuted"),
    # at-least gates mirror the rule
    (2e-6, 2e-6, 1e-6, True, "certified"),
    (1e-6, 1e-6, 1e-6, True, "certified"),
    (0.0, 0.0, 1e-6, True, "refuted"),
    (0.0, 1.0, 1e-6, True, "uncertified"),
    (2e-6, INF, 1e-6, True, "certified"),
    (-INF, 0.0, 1e-6, True, "refuted"),
    (NAN, NAN, 1e-6, True, "uncertified"),
    (NAN, 0.0, 1e-6, True, "refuted"),
    (2e-6, NAN, 1e-6, True, "certified"),
])
def test_verdict_status(lower, upper, threshold, at_least, status):
    assert lifting.Verdict("gate", lower, upper, threshold, at_least).status == status


def test_exact_verdict_has_equal_ends():
    v = lifting.Verdict.exact("gate", 0.25, 1.0, at_least=True)
    assert (v.lower, v.upper, v.threshold, v.at_least) == (0.25, 0.25, 1.0, True)


CERTIFIED = lifting.Verdict("c", 0.5, 0.5, 1.0)
UNCERTIFIED = lifting.Verdict("u", 0.5, INF, 1.0)
REFUTED = lifting.Verdict("r", 0.0, 0.0, 1e-6, at_least=True)


@pytest.mark.parametrize("verdicts, status", [
    ((), "certified"),
    ((CERTIFIED,), "certified"),
    ((CERTIFIED, CERTIFIED), "certified"),
    ((CERTIFIED, UNCERTIFIED), "uncertified"),
    ((UNCERTIFIED, UNCERTIFIED), "uncertified"),
    ((CERTIFIED, UNCERTIFIED, REFUTED), "refuted"),
    ((REFUTED, CERTIFIED), "refuted"),
], ids=["empty", "one_certified", "all_certified", "one_uncertified", "all_uncertified",
        "one_of_each", "refuted_first"])
def test_combined_status(verdicts, status):
    assert lifting.combined_status(verdicts) == status
    assert lifting.combined_status(iter(verdicts)) == status


BRACKETED = lifting.Verdict("b", 0.5, 2.0, 1.0)  # uncertified, with both ends finite


def test_decide_takes_the_first_candidate_that_decides():
    # a later candidate that decides otherwise does not move it
    certifying, refuting = (CERTIFIED, CERTIFIED), (REFUTED,)
    assert lifting.decide([(BRACKETED,), certifying, refuting]) is certifying
    assert lifting.decide([(UNCERTIFIED,), refuting, certifying]) is refuting


def test_decide_reads_no_candidate_past_the_one_that_decides():
    deciding = (CERTIFIED,)

    def offered():
        yield (BRACKETED,)
        yield deciding
        raise AssertionError("a candidate past the deciding one was read")

    assert lifting.decide(offered()) is deciding


def test_decide_keeps_the_last_bracket_when_none_decides():
    first, last = (CERTIFIED, BRACKETED), (BRACKETED, BRACKETED)
    assert lifting.decide([first, last, (CERTIFIED, UNCERTIFIED)]) is last


def test_decide_keeps_the_last_candidate_when_none_is_bracketed():
    last = (BRACKETED, UNCERTIFIED)
    assert lifting.decide([(UNCERTIFIED,), last]) is last


def test_decide_without_candidates_is_none():
    assert lifting.decide([]) is None
    assert lifting.decide(iter(())) is None


def test_derive_scalar_nehari():
    dd = lifting.derive(scalar_nehari_data())
    assert dd.dim_d_circ == 0  # isometric constraints
    assert lifting.omega_isometry_defect(dd) < 1e-12
    assert lifting.gram_identity_residual(dd) < 1e-12


def test_derive_classical_gap_free():
    ds = generators.generate_random("classical-like", (3, 3), 0.6, 5)
    dd = lifting.derive(ds)
    assert dd.dim_d_circ == 0
    assert lifting.omega_isometry_defect(dd) < 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_derive_random_gram_identity(seed):
    kind = ("nehari-like", "generic", "classical-like")[seed % 3]
    dims = {"nehari-like": (2, 2, 2, 2), "generic": (5, 3, 2), "classical-like": (3, 3)}[kind]
    ds = generators.generate_random(kind, dims, 0.7, seed)
    dd = lifting.derive(ds)
    assert lifting.gram_identity_residual(dd) < 1e-9
    assert operator_norm(dd.omega) <= 1.0 + 1e-9


def _psd_rank(m) -> int:
    """Rank of a PSD matrix by the rule of `psd_sqrt_and_range`."""
    w = np.linalg.eigvalsh(m)
    return int(np.sum(w > RANK_RTOL * max(np.max(np.abs(w)), 1.0)))


def _rank(m) -> int:
    return rank_from_singular_values(np.linalg.svd(m, compute_uv=False))


BASIS_FAMILIES = {"nehari-like": (2, 2, 3, 3), "classical-like": (4, 3), "generic": (6, 4, 3)}


@pytest.mark.parametrize("norm_a", [0.0, 0.8])
@pytest.mark.parametrize("kind", BASIS_FAMILIES)
def test_derived_bases_are_orthonormal_with_the_rank_rule_dimension(kind, norm_a):
    # every subspace basis of `derive` has orthonormal columns, as many as
    # the rank rule gives, and a whole-space one is exactly the identity
    for seed in range(3):
        ds = generators.generate_random(kind, BASIS_FAMILIES[kind], norm_a, seed)
        dd = lifting.derive(ds)
        h, h_prime = ds.dim_h, ds.dim_h_prime
        bases = {
            "d_circ": (dd.d_circ_embedding, ds.dim_h0,
                       _psd_rank(adj(ds.q) @ ds.q - adj(ds.r) @ ds.r)),
            "dt": (ds.t_prime_defect[1], h_prime,
                   _psd_rank(eye(h_prime) - adj(ds.t_prime) @ ds.t_prime)),
            "f": (dd.f_embedding, h, _rank(dd.d_a @ ds.q)),
            "ker_q": (dd.ker_q_star, h, h - _rank(ds.q)),
            "ker_r": (dd.ker_r_star, h, h - _rank(ds.r)),
        }
        for name, (e, n, r) in bases.items():
            assert e.shape == (n, r), (name, seed)
            assert operator_norm(adj(e) @ e - eye(r)) <= 1e-12, (name, seed)
            if r == n:
                assert np.array_equal(e, eye(n)), (name, seed)
        empty = {"classical-like": ("d_circ", "ker_q", "ker_r"), "nehari-like": ("d_circ",),
                 "generic": ()}[kind]
        whole = {"classical-like": ("f",), "nehari-like": (), "generic": ("d_circ", "dt")}[kind]
        for name in empty:
            assert bases[name][0].shape[1] == 0, (name, seed)
        for name in whole:
            assert bases[name][0].shape[1] == bases[name][1], (name, seed)


@pytest.mark.parametrize("seed", range(4))
def test_left_inverse_identities(seed):
    ds = generators.generate_random("generic", (5, 3, 3), 0.8, seed)
    dd = lifting.derive(ds)
    daq = dd.d_a @ ds.q
    dar = dd.d_a @ ds.r
    # (Q* D_A^2 Q)^-1 Q* D_A, the left inverse of D_A Q
    left_inverse_daq = solve_hpd(adj(daq) @ daq, adj(daq))
    assert operator_norm(left_inverse_daq @ daq - eye(ds.dim_h0)) < 1e-9
    assert operator_norm(lifting.left_inverse_dar(dd) @ dar - eye(ds.dim_h0)) < 1e-9


def test_omega_dichotomy_on_gap():
    # strict defect ordering makes omega a proper contraction
    ds = generators.generate_random("generic", (5, 3, 3), 0.7, 11)
    dd = lifting.derive(ds)
    gap = operator_norm(adj(ds.q) @ ds.q - adj(ds.r) @ ds.r)
    assert gap > 1e-6
    assert lifting.omega_isometry_defect(dd) > 1e-8
    assert operator_norm(dd.omega) <= 1.0 + 1e-9


def test_sznagy_scalar_zero():
    u = sznagy_schaffer_truncated(np.zeros((1, 1)), 3)
    np.testing.assert_allclose(u[:, 0], np.array([0, 1, 0, 0, 0], dtype=complex))


def test_sznagy_unitary_contraction():
    rng = np.random.default_rng(2)
    t = haar_unitary(rng, 3)
    u = sznagy_schaffer_truncated(t, 4)
    np.testing.assert_allclose(u, t)  # defect-free: no Hardy slots at all


def test_sznagy_gram_structure():
    rng = np.random.default_rng(3)
    g = ginibre(rng, 3, 3)
    t = g * (0.8 / operator_norm(g))
    deg = 4
    u = sznagy_schaffer_truncated(t, deg)
    gram = adj(u) @ u
    n = u.shape[0]
    dt = (n - 3) // (deg + 1)
    # isometric except on the columns feeding the discarded top slot
    keep = n - dt
    np.testing.assert_allclose(gram[:keep, :keep], eye(keep), atol=1e-10)
    np.testing.assert_allclose(u[:, keep:], np.zeros((n, dt)), atol=1e-14)


@pytest.mark.parametrize(
    "kind,dims",
    [("nehari-like", (2, 1, 3, 2)), ("classical-like", (3, 4)), ("generic", (4, 3, 2))],
)
def test_generate_random_validates(kind, dims):
    for seed in range(3):
        ds = generators.generate_random(kind, dims, 0.8, seed)
        constraints, (norm_a, _) = lifting.validate(ds)
        assert lifting.combined_status(constraints) == "certified"
        assert abs(norm_a.upper - 0.8) < 1e-9


@pytest.mark.parametrize(
    "kind,dims",
    [("nehari-like", (2, 2, 3, 4)), ("classical-like", (3, 4)), ("generic", (5, 3, 2))],
)
def test_generate_random_norm_never_above_target(kind, dims):
    # the rescaled norm used to be computed up to 7e-16 above the target,
    # so a target of 1 - STRICT_DELTA failed the strictness gate
    target = 1.0 - lifting.STRICT_DELTA
    for seed in range(8):
        ds = generators.generate_random(kind, dims, target, seed)
        assert target - 1e-14 <= operator_norm(ds.a) <= target
        lifting.derive(ds)


def test_generate_random_zero_norm():
    ds = generators.generate_random("generic", (4, 3, 2), 0.0, 1)
    assert operator_norm(ds.a) == 0.0
    assert _statuses(ds)[0] == "certified"


def test_generate_random_classical_structure():
    ds = generators.generate_random("classical-like", (3, 4), 0.5, 2)
    np.testing.assert_allclose(ds.r, eye(3), atol=1e-14)
    assert operator_norm(adj(ds.q) @ ds.q - eye(3)) < 1e-12


def test_generate_random_deterministic():
    a = generators.generate_random("generic", (4, 3, 2), 0.6, 9)
    b = generators.generate_random("generic", (4, 3, 2), 0.6, 9)
    np.testing.assert_allclose(a.a, b.a)
    np.testing.assert_allclose(a.q, b.q)


# (kind, dims, dimension of the solution space of T' A R = A Q): h'(h - h0)
# for generic, `shared` = min(h, h') // 2 + 1 for classical-like
SOLUTION_SPACES = [
    ("generic", (4, 3, 2), 6),
    ("generic", (6, 4, 3), 12),
    ("generic", (5, 2, 1), 8),
    ("generic", (40, 30, 20), 600),
    ("classical-like", (3, 3), 2),
    ("classical-like", (5, 7), 3),
    ("classical-like", (6, 2), 2),
    ("classical-like", (12, 9), 5),
]


def _redirect_a_draw(monkeypatch, kind, dims, stream):
    """Make the generator draw A's Gaussian matrix from `stream`.

    That draw is every `generators.ginibre` call except the generic
    family's square draw of T', so one seed with several streams gives
    instances that differ in A alone.  Returns the list of redirected
    draws.  Each call wraps the package's own `ginibre`, not an earlier
    redirection."""
    h_prime = dims[1]
    drawn = []

    def redirected(rng, rows, cols):
        if kind == "generic" and (rows, cols) == (h_prime, h_prime):
            return ginibre(rng, rows, cols)
        drawn.append(ginibre(stream, rows, cols))
        return drawn[-1]

    monkeypatch.setattr(generators, "ginibre", redirected)
    return drawn


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind,dims,dim_null", SOLUTION_SPACES)
def test_generated_a_solves_the_intertwining_equation(kind, dims, dim_null, seed):
    ds = generators.generate_random(kind, dims, 0.6, seed)
    assert operator_norm(ds.t_prime @ ds.a @ ds.r - ds.a @ ds.q) <= 1e-12
    assert abs(operator_norm(ds.a) - 0.6) <= 1e-12
    assert _statuses(ds)[0] == "certified"
    null = intertwining_nullspace(ds.t_prime, ds.r, ds.q)
    assert null.shape[1] == dim_null
    vec_a = ds.a.reshape(-1)
    assert np.linalg.norm(vec_a - null @ (adj(null) @ vec_a)) <= 1e-12


@pytest.mark.parametrize(
    "kind,dims,dim_null", [c for c in SOLUTION_SPACES if c[2] <= 20]
)
def test_closed_form_draws_span_the_solution_space(monkeypatch, kind, dims, dim_null):
    # d + 1 draws of A on one (T', R, Q) span the oracle's d-dimensional
    # null space, so the closed form reaches all of it; the 600-dimensional
    # generic space is covered by the projection test below
    instances = []
    for j in range(dim_null + 1):
        _redirect_a_draw(monkeypatch, kind, dims, np.random.default_rng([3, j]))
        instances.append(generators.generate_random(kind, dims, 0.6, 3))
    ds = instances[0]
    assert all(np.array_equal(x.t_prime, ds.t_prime) and np.array_equal(x.q, ds.q)
               for x in instances)
    assert intertwining_nullspace(ds.t_prime, ds.r, ds.q).shape[1] == dim_null
    assert _rank(np.stack([x.a.reshape(-1) for x in instances], axis=1)) == dim_null


@pytest.mark.parametrize("dims", [c[1] for c in SOLUTION_SPACES if c[0] == "generic"])
def test_generic_a_is_the_orthogonal_projection_of_its_draw(monkeypatch, dims):
    # A is the drawn Ginibre matrix projected orthogonally onto the null
    # space of the Kronecker oracle, then rescaled: the same isotropic
    # Gaussian on that space as sampling in an orthonormal basis of it
    drawn = _redirect_a_draw(monkeypatch, "generic", dims, np.random.default_rng(4))
    ds = generators.generate_random("generic", dims, 0.6, 4)
    null = intertwining_nullspace(ds.t_prime, ds.r, ds.q)
    z = drawn[-1]
    p = (null @ (adj(null) @ z.reshape(-1))).reshape(z.shape)
    np.testing.assert_allclose(ds.a, p * (0.6 / operator_norm(p)), rtol=0, atol=1e-10)


@pytest.mark.parametrize("dims", [(80, 60, 40), (120, 90, 60)])
def test_large_generic_projection_is_orthogonal(monkeypatch, dims):
    # past the reach of the Kronecker oracle: two draws of A on one
    # (T', R, Q), checked against the intertwining equation and each other
    instances, draws = [], []
    for j in range(2):
        draws.append(_redirect_a_draw(monkeypatch, "generic", dims, np.random.default_rng([6, j])))
        instances.append(generators.generate_random("generic", dims, 0.6, 6))
    ds, other = instances
    assert np.array_equal(ds.q, other.q)
    assert _statuses(ds)[0] == "certified"
    assert operator_norm(ds.t_prime @ ds.a @ ds.r - ds.a @ ds.q) <= 1e-12
    # A = c P z with c > 0, and <P z, z> = ||P z||^2 is real, so P z is
    # A <A, z> / ||A||^2; z - P z must be orthogonal to the null space
    (z,) = draws[0]
    a_z = np.vdot(ds.a, z)
    assert abs(a_z.imag) <= 1e-12 * abs(a_z)
    residual = z - ds.a * (a_z / np.vdot(ds.a, ds.a))
    scale = np.linalg.norm(z) * np.linalg.norm(other.a)
    assert abs(np.vdot(residual, other.a)) <= 1e-12 * scale


def test_projection_iteration_cap_raises(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(generators, "CG_MAX_ITERATIONS", 1)
    with pytest.raises(NotConverged):
        generators.generate_random("generic", (40, 30, 20), 0.6, 0)
    path = tmp_path / "inst.json"
    assert cli.main(["gen", "--kind", "generic", "--dims", "40,30,20",
                     "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not path.exists()


@pytest.mark.parametrize("kind,dims,solvable", [
    ("generic", (3, 2, 0), True),
    ("generic", (3, 0, 2), False),
    ("generic", (3, 0, 0), False),
    ("classical-like", (0, 3), False),
    ("classical-like", (3, 0), False),
])
def test_zero_dimensional_edges(tmp_path, capsys, kind, dims, solvable):
    # an empty H0 leaves every A solvable; an empty H' (or no shared
    # eigenvalue) leaves only A = 0, and `rclift gen` exits 4
    path = tmp_path / "inst.json"
    argv = ["gen", "--kind", kind, "--dims", ",".join(map(str, dims)),
            "--norm", "0.5", "--seed", "1", "--out", str(path)]
    if solvable:
        ds = generators.generate_random(kind, dims, 0.5, 1)
        assert _statuses(ds)[0] == "certified"
        assert abs(operator_norm(ds.a) - 0.5) <= 1e-12
        assert cli.main(argv) == 0
        assert cli.main(["validate", str(path)]) == 0
    else:
        with pytest.raises(EmptySolutionSpace):
            generators.generate_random(kind, dims, 0.5, 1)
        assert cli.main(argv) == 4
        assert "generator failure" in capsys.readouterr().err
