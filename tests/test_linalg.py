import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pivoted_gram_schmidt, spectral_radius

from rclift import cli, generators, lifting, linalg, serialize
from rclift.errors import DimensionMismatch, NegativeEigenvalue, NotPositiveDefinite


def _hermitian_part(m):
    return 0.5 * (m + m.conj().T)


def test_psd_sqrt_identity():
    np.testing.assert_allclose(linalg.psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)


def test_psd_sqrt_diagonal():
    m = np.diag([0.75, 1.0])
    expected = np.diag([np.sqrt(3) / 2, 1.0])
    np.testing.assert_allclose(linalg.psd_sqrt(m), expected, atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_psd_sqrt_recomposition(seed):
    rng = np.random.default_rng(seed)
    b = linalg.ginibre(rng, 6, 6)
    m = b.conj().T @ b
    s = linalg.psd_sqrt(m)
    assert linalg.operator_norm(s @ s - m) < 1e-9 * linalg.operator_norm(m)
    # roundtrip: sqrt of the square recovers the root
    assert linalg.operator_norm(linalg.psd_sqrt(s @ s) - s) < 1e-8 * linalg.operator_norm(s)


def test_psd_sqrt_takes_the_hermitian_part():
    # the root of [[1, 1], [0, 1]] is that of its Hermitian part, bit for bit
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(linalg.psd_sqrt(m), linalg.psd_sqrt(_hermitian_part(m)))


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NegativeEigenvalue):
        linalg.psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_clamps_rounding():
    # negative rounding is clamped to 0; a small positive eigenvalue may be
    # genuine (the root of an ill-conditioned weight), so psd_sqrt keeps it,
    # while the defect roots cut it to exactly 0
    s = linalg.psd_sqrt(np.diag([1.0, -1e-12]))
    assert linalg.operator_norm(s - np.diag([1.0, 0.0])) < 1e-15
    s = linalg.psd_sqrt(np.diag([1.0, 1e-12]))
    assert linalg.operator_norm(s - np.diag([1.0, 1e-6])) < 1e-15
    for noise in (-1e-12, 1e-12):
        root, basis = linalg.psd_sqrt_and_range(np.diag([1.0, noise]))
        assert linalg.operator_norm(root - np.diag([1.0, 0.0])) < 1e-15
        assert basis.shape == (2, 1)


def test_operator_norm_cases():
    assert linalg.operator_norm(np.zeros((3, 2))) == 0.0
    rng = np.random.default_rng(0)
    u = linalg.haar_unitary(rng, 4)
    assert abs(linalg.operator_norm(u) - 1.0) < 1e-12
    assert abs(linalg.operator_norm(np.array([[0.5, 0.0]])) - 0.5) < 1e-14
    assert linalg.operator_norm(np.zeros((0, 5))) == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_operator_norm_submultiplicative(seed):
    rng = np.random.default_rng(seed)
    a = linalg.ginibre(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
    b = linalg.ginibre(rng, a.shape[1], int(rng.integers(1, 8)))
    assert linalg.operator_norm(a @ b) <= linalg.operator_norm(a) * linalg.operator_norm(b) + 1e-10


def test_spectral_radius_cases():
    assert spectral_radius(np.array([[0, 1], [0, 0]])) == 0.0
    assert abs(spectral_radius(np.diag([0.3, -0.9])) - 0.9) < 1e-14
    assert spectral_radius(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_spectral_radius_below_norm(seed):
    rng = np.random.default_rng(seed)
    m = linalg.ginibre(rng, 5, 5)
    assert spectral_radius(m) <= linalg.operator_norm(m) + 1e-10


def test_kernel_embedding_structured():
    # the window-slot constraint map: kernel of the adjoint is the first slot
    q = np.array([[0.0], [1.0]])
    e = linalg.kernel_embedding(q)
    np.testing.assert_allclose(e, np.array([[1.0], [0.0]]), atol=1e-14)


def test_kernel_embedding_full_rank():
    rng = np.random.default_rng(1)
    m = linalg.ginibre(rng, 4, 4)
    assert linalg.kernel_embedding(m).shape == (4, 0)


def matrix_rank(m) -> int:
    """Rank by the package's rank rule, from a fresh SVD."""
    return linalg.rank_from_singular_values(np.linalg.svd(m, compute_uv=False))


@pytest.mark.parametrize("seed", range(5))
def test_kernel_embedding_nullspace_oracle(seed):
    rng = np.random.default_rng(seed)
    left = linalg.ginibre(rng, 6, 3)
    right = linalg.ginibre(rng, 3, 4)
    m = left @ right  # rank 3
    e = linalg.kernel_embedding(m)
    assert e.shape == (6, 3)
    assert linalg.operator_norm(m.conj().T @ e) < 1e-10 * linalg.operator_norm(m)
    # completeness: rank + kernel dimension = rows
    assert matrix_rank(m) + e.shape[1] == m.shape[0]
    # orthonormality
    gram = e.conj().T @ e
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)


def test_solve_hpd_cases():
    rng = np.random.default_rng(2)
    b = linalg.ginibre(rng, 4, 2)
    np.testing.assert_allclose(linalg.solve_hpd(np.eye(4), b), b, atol=1e-14)
    np.testing.assert_allclose(
        linalg.solve_hpd(np.array([[0.75]]), np.array([[0.5]])),
        np.array([[2.0 / 3.0]]),
        atol=1e-14,
    )
    g = linalg.ginibre(rng, 5, 5)
    m = g.conj().T @ g + np.eye(5)
    x = linalg.solve_hpd(m, b := linalg.ginibre(rng, 5, 3))
    assert linalg.operator_norm(m @ x - b) < 1e-9 * linalg.operator_norm(b)


def test_solve_hpd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        linalg.solve_hpd(np.diag([1.0, -1.0]), np.ones((2, 1)))
    rng = np.random.default_rng(4)
    u = linalg.haar_unitary(rng, 4)
    m = (u * np.array([2.0, 1.0, 0.5, -0.25])) @ u.conj().T
    # refused whatever the right-hand side, an empty one included
    for b in (linalg.ginibre(rng, 4, 1), np.zeros((4, 0), dtype=complex)):
        with pytest.raises(NotPositiveDefinite):
            linalg.solve_hpd(m, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_solve_hpd_rejects_non_finite_rhs(bad):
    b = np.ones((3, 2), dtype=complex)
    b[1, 1] = bad
    with pytest.raises(ValueError):
        linalg.solve_hpd(np.eye(3, dtype=complex), b)


def test_solve_hpd_rejects_non_finite_matrix_past_the_gate():
    # an Inf or NaN above the diagonal carries into the Hermitian part, whose
    # one scan refuses it in every function that takes a Hermitian matrix
    for bad in (np.inf, np.nan):
        m = np.eye(3, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            linalg.solve_hpd(m, np.ones((3, 1), dtype=complex))
        for f in (linalg.hermitian_eig, linalg.psd_sqrt, linalg.min_eig_hermitian):
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                f(m)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_solve_hpd_bit_identical_to_scipy_wrappers(n, cols, seed):
    rng = np.random.default_rng(seed)
    g = linalg.ginibre(rng, n, n)
    m = g.conj().T @ g + 1e-3 * np.eye(n)
    b = linalg.ginibre(rng, n, cols)
    h = 0.5 * (m + m.conj().T)
    expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(h, lower=True), b)
    assert np.array_equal(linalg.solve_hpd(m, b), expected)


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_hpd_factor_and_adjoint_solve(n):
    rng = np.random.default_rng(n + 20)
    g = linalg.ginibre(rng, n, n)
    m = g.conj().T @ g + 1e-2 * np.eye(n)
    w = linalg.hpd_factor(m)
    assert np.array_equal(w, np.triu(w))
    assert linalg.operator_norm(w.conj().T @ w - m) <= 1e-12 * max(linalg.operator_norm(m), 1.0)
    b = linalg.ginibre(rng, n, 3)
    x = linalg.solve_factor_adjoint(w, b)
    assert x.shape == (n, 3)
    np.testing.assert_allclose(x, np.linalg.solve(w.conj().T, b) if n else b, rtol=1e-10, atol=1e-12)


def test_hpd_factor_gates():
    with pytest.raises(NotPositiveDefinite):
        linalg.hpd_factor(np.diag([1.0, -1.0]))
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    assert np.array_equal(linalg.hpd_factor(m), linalg.hpd_factor(_hermitian_part(m)))
    with pytest.raises(DimensionMismatch):
        linalg.solve_factor_adjoint(np.eye(2), np.ones((3, 1)))


def test_psd_sqrt_and_inverses_refuses_a_singular_defect():
    root, inv_root, inv = linalg.psd_sqrt_and_inverses(np.diag([4.0, 0.25]))
    np.testing.assert_allclose(inv_root @ root, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(inv, np.diag([0.25, 4.0]), atol=1e-14)
    with pytest.raises(NotPositiveDefinite):
        linalg.psd_sqrt_and_inverses(np.diag([1.0, 1e-13]))


def test_operator_norm_of_a_stack():
    rng = np.random.default_rng(6)
    stack = np.stack([linalg.ginibre(rng, 3, 2) for _ in range(5)])
    norms = [linalg.operator_norm(m) for m in stack]
    assert linalg.operator_norm(stack) == max(norms)
    assert linalg.operator_norm(stack[:1]) == norms[0]
    assert linalg.operator_norm(np.zeros((4, 3, 0))) == 0.0
    assert linalg.operator_norm(np.zeros((0, 3, 3))) == 0.0


def test_disc_stack_shapes_and_gate():
    assert linalg.disc_stack(0.5j).shape == (1, 1)
    assert linalg.disc_stack(np.array([0.1, -0.2j, 0.0])).shape == (3, 1, 1)
    assert linalg.disc_stack(np.array([], dtype=complex)).shape == (0, 1, 1)
    with pytest.raises(ValueError):
        linalg.disc_stack(np.array([0.1, 1.0]))
    with pytest.raises(ValueError):
        linalg.disc_stack(np.nan)
    with pytest.raises(DimensionMismatch):
        linalg.disc_stack(np.zeros((2, 2)))


def test_zero_dimensional_matrices_flow():
    z = np.zeros((0, 0))
    assert linalg.operator_norm(z) == 0.0
    assert linalg.kernel_embedding(np.zeros((3, 0))).shape == (3, 3)
    basis, pinv = linalg.range_and_pinv(np.zeros((3, 0)))
    assert basis.shape == (3, 0) and pinv.shape == (0, 3)
    np.testing.assert_allclose(linalg.solve_hpd(z, np.zeros((0, 2))), np.zeros((0, 2)))
    assert linalg.inv_hpd(z).shape == (0, 0)
    assert linalg.solve_hpd(np.diag([2.0, 3.0]), np.zeros((2, 0))).shape == (2, 0)


def test_psd_sqrt_and_range_noise_control():
    # a zero gap contaminated with rounding must keep rank zero
    rng = np.random.default_rng(3)
    noise = linalg.ginibre(rng, 4, 4) * 1e-15
    m = noise + noise.conj().T
    root, e = linalg.psd_sqrt_and_range(m)
    assert e.shape == (4, 0)
    assert linalg.operator_norm(root) < 1e-7
    # an honest mixture keeps exactly the significant directions
    m2 = np.diag([0.5, 1e-14, 0.0, 0.8])
    root2, e2 = linalg.psd_sqrt_and_range(m2)
    assert e2.shape == (4, 2)
    np.testing.assert_allclose(root2, np.diag([np.sqrt(0.5), 0, 0, np.sqrt(0.8)]), atol=1e-12)


@pytest.mark.parametrize("rows,cols,rank", [(5, 3, 3), (5, 3, 2), (3, 5, 1), (4, 4, 0)])
def test_range_and_pinv_match_the_two_svd_forms(rows, cols, rank):
    # one SVD gives the basis of the two-SVD form (the canonical basis of
    # the column space) and numpy's pseudoinverse at the same cutoff
    rng = np.random.default_rng(rows + 7 * rank)
    m = linalg.ginibre(rng, rows, rank) @ linalg.ginibre(rng, rank, cols)
    basis, pinv = linalg.range_and_pinv(m)
    u, s, _ = np.linalg.svd(m)
    r = linalg.rank_from_singular_values(s)
    assert basis.shape == (rows, rank) and r == rank
    np.testing.assert_allclose(basis, linalg._canonical_basis(u[:, :r]), atol=1e-12)
    np.testing.assert_allclose(pinv, np.linalg.pinv(m, rcond=linalg.RANK_RTOL), atol=1e-12)


def test_canonical_embedding_is_literal_for_diagonal_projectors():
    e = linalg.range_and_pinv(np.diag([1.0, 1.0, 0.0, 0.0]))[0]
    np.testing.assert_allclose(e, np.eye(4)[:, :2], atol=1e-14)
    e2 = linalg.kernel_embedding(np.vstack([np.zeros((1, 2)), np.eye(2)]))
    np.testing.assert_allclose(e2, np.eye(3)[:, :1], atol=1e-14)


@pytest.mark.parametrize("n, r", [(n, r) for n in (1, 3, 6) for r in sorted({0, 1, n - 1, n})])
def test_canonical_basis_depends_on_the_span_only(n, r):
    rng = np.random.default_rng(10 * n + r)
    u = linalg.haar_unitary(rng, n)[:, :r]
    basis = linalg._canonical_basis(u)
    np.testing.assert_allclose(linalg._canonical_basis(u @ linalg.haar_unitary(rng, r)), basis,
                               atol=1e-12)
    if r == n:
        assert np.array_equal(basis, np.eye(n))
    else:  # a proper subspace: the pivoted Gram-Schmidt basis of its projector
        np.testing.assert_allclose(basis, pivoted_gram_schmidt(u @ u.conj().T, r), atol=1e-12)


def test_invertible_defect_basis_ignores_roundoff():
    # D_T' is invertible here, so its basis is the identity, whatever
    # roundoff the eigenvectors of I - T'*T' carry
    ds = generators.generate_random("generic", (12, 8, 5), 0.8, 5)
    m = np.eye(ds.dim_h_prime) - ds.t_prime.conj().T @ ds.t_prime
    rng = np.random.default_rng(0)
    for _ in range(20):
        noise = linalg.ginibre(rng, *m.shape) * 1e-17
        _, e = linalg.psd_sqrt_and_range(m + noise + noise.conj().T)
        assert np.array_equal(e, np.eye(ds.dim_h_prime))


def _same(x, y):
    """Bit-identical results: arrays, tuples of arrays, or floats."""
    if isinstance(x, tuple):
        return all(np.array_equal(a, b) for a, b in zip(x, y))
    return np.array_equal(x, y)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 8),
    c=st.sampled_from([0.0, 0.001, 1.0, 1e3]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_hermitian_kernel_reads_only_the_hermitian_part(seed, n, c, scale):
    # an HPD matrix h plus an anti-Hermitian part k with ||k|| = c * ||h||:
    # the kernel drops k, so every result on m is its result on (m + m*)/2
    rng = np.random.default_rng(seed)
    b = linalg.ginibre(rng, n, n)
    h = scale * (b @ b.conj().T + np.eye(n))
    a = linalg.ginibre(rng, n, n)
    k = a - a.conj().T
    if n:
        k *= c * linalg.operator_norm(h) / linalg.operator_norm(k)
    m = h + k
    for f in (linalg.hermitian_eig, linalg.psd_sqrt, linalg.min_eig_hermitian,
              linalg.hpd_factor, lambda x: linalg.solve_hpd(x, np.eye(n))):
        assert _same(f(m), f(_hermitian_part(m)))


def test_hermitian_kernel_runs_no_svd(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(4)
    b = linalg.ginibre(rng, 6, 6)
    m = b @ b.conj().T + np.eye(6)
    m = 0.5 * (m + m.conj().T)
    linalg.hermitian_eig(m)
    linalg.solve_hpd(m, np.eye(6))
    # nor does a matrix that is far from Hermitian
    linalg.hermitian_eig(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert calls == []


@pytest.mark.parametrize("seed", range(3))
def test_min_eig_hermitian_takes_no_eigenvectors(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    b = linalg.ginibre(rng, 7, 7)
    m = b @ b.conj().T - 2.0 * np.eye(7)
    expected = float(linalg.hermitian_eig(m)[0][0])

    def refuse(*_args, **_kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert abs(linalg.min_eig_hermitian(m) - expected) <= 1e-12 * max(1.0, abs(expected))
    assert linalg.min_eig_hermitian(np.zeros((0, 0))) == float("inf")
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert linalg.min_eig_hermitian(skew) == linalg.min_eig_hermitian(_hermitian_part(skew))


@pytest.mark.parametrize("seed", range(3))
def test_observability_gramian_matches_lyapunov_solver(seed):
    rng = np.random.default_rng(seed)
    a = linalg.ginibre(rng, 6, 6)
    a *= 0.9 / spectral_radius(a)
    c = linalg.ginibre(rng, 2, 6)
    g = linalg.observability_gramian(a, c)
    oracle = scipy.linalg.solve_discrete_lyapunov(a.conj().T, c.conj().T @ c)
    assert linalg.operator_norm(g.p - oracle) <= 1e-10 * linalg.operator_norm(oracle)
    stein = linalg.operator_norm(a.conj().T @ g.p @ a + c.conj().T @ c - g.p)
    assert stein <= 1e-12 * linalg.operator_norm(oracle)
    # W = sum a*^t a^t, so b* W b is at least b* b
    b = linalg.ginibre(rng, 6, 3)
    assert g.weight(b) >= linalg.operator_norm(b.conj().T @ b)


def test_p_residual_carries_the_rounding_allowance():
    # the nilpotent shift sums exactly, so the computed residual of P is 0;
    # the bound that `form` uses still allows for rounding, with ||c*c||_1
    # where W's has ||I||_1 = 1
    n = 4
    a = np.eye(n, k=1, dtype=complex)
    c = np.arange(1.0, n + 1.0)[None, :].astype(complex)
    g = linalg.observability_gramian(a, c)
    assert linalg.operator_norm(a.conj().T @ g.p @ a + c.conj().T @ c - g.p) == 0.0
    p_1 = np.linalg.norm(g.p, 1)
    k = (n + 2) * np.finfo(float).eps
    assert g.p_residual == pytest.approx(k * (2 * p_1 + np.linalg.norm(c.conj().T @ c, 1)))
    b = np.eye(n, dtype=complex)
    _, err = g.form(b, b)
    assert err == pytest.approx(g.p_residual * g.weight(b))


def test_observability_gramian_of_an_expanding_matrix_is_none():
    assert linalg.observability_gramian(2.0 * np.eye(3), np.ones((1, 3))) is None


def _scaled_unitary(r: float) -> np.ndarray:
    return r * linalg.haar_unitary(np.random.default_rng(8), 4)


def test_stein_stops_once_w_cannot_certify():
    # a unitary a leaves W = 2^k I after k doublings; the sum stops at the
    # first k whose rounding allowance reaches 1
    a = _scaled_unitary(1.0)
    (w,), _ = linalg._stein(a, np.eye(4, dtype=complex)[None])
    a_sq = np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf)
    allowance = (4 + 2) * np.finfo(float).eps * (a_sq + 1)
    top = max(np.diagonal(w).real)
    assert allowance * top >= 1.0 > allowance * top / 2


def _jordan(n: int) -> np.ndarray:
    # rho = 0.5 with an off-diagonal of 1e3: W is finite but ill-conditioned
    return 0.5 * np.eye(n, dtype=complex) + 1e3 * np.eye(n, k=1, dtype=complex)


# state matrix, and whether its Stein solve must certify it (None: may)
STABILITY_EDGES = {
    "unitary_0.9": (_scaled_unitary(0.9), True),
    "unitary_0.999": (_scaled_unitary(0.999), True),
    "unitary_1-1e-6": (_scaled_unitary(1.0 - 1e-6), True),
    "unitary_1": (_scaled_unitary(1.0), False),
    "unitary_1+1e-12": (_scaled_unitary(1.0 + 1e-12), False),
    "jordan_2": (_jordan(2), None),
    "jordan_3": (_jordan(3), None),
    "empty": (np.zeros((0, 0), dtype=complex), True),
}


@pytest.mark.parametrize("name", STABILITY_EDGES)
def test_stability_certificate_edges(name):
    a, certify = STABILITY_EDGES[name]
    n = a.shape[0]
    g = linalg.observability_gramian(a, np.ones((1, n), dtype=complex))
    if g is None:
        assert certify is not True
        rows = cli._rows([lifting.Verdict("state_spectral_radius", 0.0, np.inf, 1.0)])
        assert serialize.canonical_json(rows) == (
            '[{"lower":0.0,"name":"state_spectral_radius","passed":false,'
            '"status":"uncertified","threshold":1.0,"value":null}]\n'
        )
    else:
        assert certify is not False
        assert spectral_radius(a) <= g.radius_bound < 1.0
    if n == 0:
        assert g.radius_bound == 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 6),
    rho=st.floats(0.0, 1.05),
    normal=st.booleans(),
)
def test_stability_bound_never_below_the_eigenvalues(seed, n, rho, normal):
    rng = np.random.default_rng(seed)
    if normal:
        u = linalg.haar_unitary(rng, n)
        moduli = rho * np.append(1.0, rng.uniform(size=n - 1))
        a = (u * moduli * np.exp(2j * np.pi * rng.uniform(size=n))) @ u.conj().T
    else:
        g = linalg.ginibre(rng, n, n)
        a = g * (rho / spectral_radius(g))
    g = linalg.observability_gramian(a, np.ones((1, n), dtype=complex))
    assert (np.inf if g is None else g.radius_bound) >= spectral_radius(a)
