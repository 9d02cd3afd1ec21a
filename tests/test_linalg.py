import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
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


def test_zero_matrix_norm_takes_no_svd(monkeypatch, lapack_calls):
    # an exactly zero matrix or stack has norm 0.0, the value its SVD would
    # give, with no LAPACK call; a nonzero one still takes its SVD
    def refuse(*_args, **_kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for shape in ((3, 3), (2, 5), (1, 1), (4, 2, 3), (0, 3)):
        z = np.zeros(shape, complex)
        assert linalg.operator_norm(z) == 0.0
        assert linalg.operator_norm(-z) == 0.0
    assert linalg.norm_bracket(np.zeros((2, 3), complex), 0.0) == (0.0, 0.0)
    assert lapack_calls == []
    assert linalg.operator_norm(np.diag([0.0, 2.0])) == 2.0
    assert [name for name, _, _ in lapack_calls] == ["gesdd_lwork", "gesdd"]


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


def test_hermitian_kernel_runs_no_svd(monkeypatch, lapack_calls):
    # neither numpy's SVD nor LAPACK's gesdd, while the kernel's own
    # routines (heevd, potrf) are seen to run
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
    routines = [name for name, _, _ in lapack_calls]
    assert "gesdd" not in routines and {"heevd", "potrf"} <= set(routines)


@pytest.mark.parametrize("seed", range(3))
def test_min_eig_hermitian_takes_no_eigenvectors(monkeypatch, lapack_calls, seed):
    # no numpy eigh, and every heevd call it makes asks for no vectors
    rng = np.random.default_rng(seed)
    b = linalg.ginibre(rng, 7, 7)
    m = b @ b.conj().T - 2.0 * np.eye(7)
    expected = float(linalg.hermitian_eig(m)[0][0])
    lapack_calls.clear()

    def refuse(*_args, **_kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert abs(linalg.min_eig_hermitian(m) - expected) <= 1e-12 * max(1.0, abs(expected))
    assert linalg.min_eig_hermitian(np.zeros((0, 0))) == float("inf")
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert linalg.min_eig_hermitian(skew) == linalg.min_eig_hermitian(_hermitian_part(skew))
    eigen = [kwargs["compute_v"] for name, _, kwargs in lapack_calls if name == "heevd"]
    assert len(eigen) == 3 and not any(eigen)


# --- the direct LAPACK calls against numpy's wrappers ---------------------------


def _close(x, y, scale):
    """x and y agree to rounding: within 64 n eps of `scale`, n their size."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and bool(np.all(np.abs(x - y) <= 64 * max(x.size, 1) * linalg.EPS * scale))


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [0, 1, 2, 6, 40, 128])
def test_spectral_helpers_agree_with_numpy(n, kind):
    # every helper whose SVD or eigenproblem now runs in LAPACK directly,
    # against numpy's wrappers, on a square matrix and a wide and a tall
    # one, and the Hermitian helpers on a matrix far from Hermitian and on
    # its Hermitian part
    rng = np.random.default_rng(n)
    draw = ((lambda r, c: rng.standard_normal((r, c))) if kind == "real"
            else (lambda r, c: linalg.ginibre(rng, r, c)))
    for m in (draw(n, n), draw(n, n // 2), draw(n // 2, n)):
        s = np.linalg.svd(m, compute_uv=False)
        top = float(s[0]) if s.size else 0.0
        assert _close(linalg.operator_norm(m), top, max(top, 1.0))
        if m.shape[1] == 0:
            assert linalg.min_singular_value(m) == np.inf
        else:
            assert _close(linalg.min_singular_value(m), s[-1] if s.size else 0.0, max(top, 1.0))
        for full in (False, True):
            u, sv, vh = linalg._svd(m, full=full)
            u_np, _, vh_np = np.linalg.svd(m, full_matrices=full)
            assert u.shape == u_np.shape and vh.shape == vh_np.shape and _close(sv, s, top)
            k = sv.size
            assert _close((u[:, :k] * sv) @ vh[:k], m, max(top, 1.0))
            assert _close(u.conj().T @ u, np.eye(u.shape[1]), 1.0)
            assert _close(vh @ vh.conj().T, np.eye(vh.shape[0]), 1.0)
        basis, pinv = linalg.range_and_pinv(m)
        assert _close(pinv, np.linalg.pinv(m), max(linalg.operator_norm(pinv), 1.0) ** 2)
        assert basis.shape == (m.shape[0], min(m.shape))
        kernel = linalg.kernel_embedding(m)
        assert kernel.shape == (m.shape[0], m.shape[0] - min(m.shape))
        assert _close(kernel.conj().T @ m, np.zeros((kernel.shape[1], m.shape[1])), max(top, 1.0))
    x = draw(n, n)
    h = _hermitian_part(x)
    scale = max(float(np.max(np.abs(np.linalg.eigvalsh(h)), initial=0.0)), 1.0)
    for operand in (x, h):
        w, v = linalg.hermitian_eig(operand)
        w_np = np.linalg.eigvalsh(h)
        assert _close(w, w_np, scale) and _close((v * w) @ v.conj().T, h, scale)
        if n:
            assert _close(linalg.min_eig_hermitian(operand), w_np[0], scale)
        assert _close(linalg._eigh(h, vectors=False)[0], w_np, scale)
    lower, upper = linalg.Gram.of(x).root_of_max_eig()
    norm = float(np.linalg.svd(x, compute_uv=False)[0]) if n else 0.0
    assert lower <= norm <= upper


def test_direct_calls_run_at_the_optimal_workspace(lapack_calls):
    # each gesdd and heevd call passes the workspace LAPACK reports as
    # optimal, numpy's choice, and heevd reads the lower triangle; at n = 40
    # an eigenvalue-only heevd at the minimal workspace would run another
    # reduction, unblocked, and round differently
    rng = np.random.default_rng(0)
    m = linalg.ginibre(rng, 40, 30)
    h = _hermitian_part(linalg.ginibre(rng, 40, 40))
    linalg.operator_norm(m)
    linalg.range_and_pinv(m)
    linalg.kernel_embedding(m)
    linalg.hermitian_eig(h)
    linalg.min_eig_hermitian(h)
    linalg.Gram.of(m).root_of_max_eig()
    checked = []
    for name, args, kwargs in lapack_calls:
        if name == "gesdd":
            rows, cols = args[0].shape
            work, _ = scipy.linalg.lapack.zgesdd_lwork(
                rows, cols, compute_uv=kwargs["compute_uv"], full_matrices=kwargs["full_matrices"])
            assert kwargs["lwork"] == int(work.real)
        elif name == "heevd":
            work, iwork, rwork, _ = scipy.linalg.lapack.zheevd_lwork(
                args[0].shape[0], compute_v=kwargs["compute_v"], lower=1)
            assert kwargs["lower"] == 1
            assert (kwargs["lwork"], kwargs["liwork"], kwargs["lrwork"]) == (
                int(work.real), iwork, int(rwork))
        else:
            continue
        checked.append(name)
    assert checked == ["gesdd"] * 3 + ["heevd"] * 3


def _outcome(f, m):
    """What f(m) gives: ("raises", message) for a LinAlgError, else the
    NaN pattern of its values."""
    try:
        values = f(m)
    except np.linalg.LinAlgError as err:
        return "raises", str(err)
    return "nan", np.isnan(np.asarray(values)).tolist()


# (direct helper, numpy's counterpart), both read as the values they give
NON_FINITE_PAIRS = {
    "operator_norm": (linalg.operator_norm, lambda m: np.linalg.svd(m, compute_uv=False)[0]),
    "min_singular_value": (linalg.min_singular_value,
                           lambda m: np.linalg.svd(m, compute_uv=False)[-1]),
    "svd": (lambda m: linalg._svd(m)[1], lambda m: np.linalg.svd(m, full_matrices=False)[1]),
    "svd_full": (lambda m: linalg._svd(m, full=True)[1], lambda m: np.linalg.svd(m)[1]),
    "eigh": (lambda m: linalg._eigh(m)[0], lambda m: np.linalg.eigh(m)[0]),
    "eigvalsh": (lambda m: linalg._eigh(m, vectors=False)[0], np.linalg.eigvalsh),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", NON_FINITE_PAIRS)
def test_non_finite_input_meets_numpys_outcome(name, bad, capfd):
    # a NaN raises numpy's LinAlgError with its message where numpy raises
    # (the direct gesdd returns info -4 and would not), an Inf gives NaN
    # where numpy gives it, and LAPACK writes nothing to stderr
    ours, theirs = NON_FINITE_PAIRS[name]
    m = np.eye(3, dtype=complex)
    m[0, 1], m[1, 1] = 0.5, bad
    outcome = _outcome(ours, m)
    assert outcome == _outcome(theirs, m)
    if name.startswith("svd") or name in ("operator_norm", "min_singular_value"):
        assert outcome[0] == ("raises" if np.isnan(bad) else "nan")
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("n", list(range(1, 10)) + [40, 131])
def test_haar_unitary_is_numpys_qr_bit_for_bit(n):
    # 20 seeds at each n up to 9 (180 cases), one at 40 and at 131, where
    # LAPACK's QR runs blocked: generated instances do not move
    for seed in range(20 if n < 10 else 1):
        q, r = np.linalg.qr(linalg.ginibre(np.random.default_rng(seed), n, n))
        d = np.diagonal(r)
        assert np.array_equal(linalg.haar_unitary(np.random.default_rng(seed), n), q * (d / np.abs(d)))


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
    # where W's has ||I||_1 = 1, and for the rounding of q = c* c itself,
    # (p + 2) eps ||c||_F^2 for p rows; `form` adds that of forming b* p b
    n = 4
    a = np.eye(n, k=1, dtype=complex)
    c = np.arange(1.0, n + 1.0)[None, :].astype(complex)
    g = linalg.observability_gramian(a, c)
    assert linalg.operator_norm(a.conj().T @ g.p @ a + c.conj().T @ c - g.p) == 0.0
    p_1 = np.linalg.norm(g.p, 1)
    eps = np.finfo(float).eps
    k = (n + 2) * eps
    q_rounding = (1 + 2) * eps * linalg.frobenius_upper(c) ** 2
    expected = k * (2 * p_1 + np.linalg.norm(c.conj().T @ c, 1)) + q_rounding
    assert g.p_residual == pytest.approx(expected, rel=1e-12, abs=0.0)
    b = np.eye(n, dtype=complex)
    _, err = g.form(b, b)
    f = linalg.frobenius_upper
    expected = g.p_residual * g.weight(b) + 2 * k * f(b) * f(b) * f(g.p)
    assert err == pytest.approx(expected, rel=1e-12, abs=0.0)


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


def test_root_of_max_eig_edges():
    # no columns: the zero norm, with or without rows; an overflowing Gram
    # or allowance knows nothing, (0, inf)
    assert linalg.Gram.of(np.zeros((3, 0), complex)).root_of_max_eig() == (0.0, 0.0)
    assert linalg.Gram.of(np.zeros((0, 2), complex)).root_of_max_eig() == (0.0, 0.0)
    assert linalg.Gram.of(np.full((2, 2), 1e160, complex)).root_of_max_eig() == (0.0, np.inf)
    x = np.eye(2, dtype=complex)
    assert linalg.Gram.of(x).root_of_max_eig(np.eye(2), np.nan) == (0.0, np.inf)
    lower, upper = linalg.Gram.of(2.0 * x).root_of_max_eig(5.0 * np.eye(2))
    assert lower < 3.0 < upper and upper - lower <= 64 * linalg.EPS


@pytest.mark.parametrize("entry", [1e-170, 1e-320, 1e200, 1e308])
def test_frobenius_bracket_survives_underflow_and_overflow(entry):
    # the squares of 1e-170 and 1e-320 underflow, those of 1e200 and 1e308
    # overflow; the full 2 x 2 matrix of them has rank one, so its norm and
    # Frobenius norm are both exactly 2 entry, which the bracket keeps
    # (2e308 is past the largest float: the upper end is inf, the floor not)
    m = np.full((2, 2), entry, complex)
    lower, upper = linalg.frobenius_bracket(m)
    assert upper == linalg.frobenius_upper(m)
    exact = 2 * entry
    assert lower <= exact <= upper <= exact * (1 + 8 * linalg.EPS) + linalg.TINY
    # the floor is the Frobenius norm over sqrt(2), less its rounding
    assert lower >= np.sqrt(2) * entry * (1 - 32 * linalg.EPS) - 2 * linalg.TINY


def test_frobenius_upper_is_the_plain_sum_in_the_normal_range():
    rng = np.random.default_rng(2)
    for scale in (1e-150, 1e-8, 1.0, 1e150):
        m = scale * linalg.ginibre(rng, 5, 3)
        plain = np.sqrt(np.vdot(m, m).real) * (1 + (m.size + 2) * linalg.EPS)
        assert linalg.frobenius_upper(m) == plain
    zero = np.zeros((2, 3))
    assert linalg.frobenius_upper(zero) == 0.0 and linalg.frobenius_bracket(zero) == (0.0, 0.0)


def test_norm_bracket_is_the_plain_widening_in_the_normal_range():
    # the underflow term moves no end from 2^-1019 up
    rng = np.random.default_rng(3)
    for scale in (1e-300, 1e-8, 1.0, 1e150):
        m = scale * linalg.ginibre(rng, 4, 3)
        norm, k = linalg.operator_norm(m), (m.size + 2) * linalg.EPS
        for err in (0.0, 1e-3 * norm, 2.0 * norm):
            plain = (max(norm * (1.0 - k) - err, 0.0), norm * (1.0 + k) + err)
            assert linalg.norm_bracket(m, err) == plain


def test_root_of_max_eig_allows_for_underflow():
    # every product in the Gram of 1e-170 entries underflows, so the
    # computed Gram is 0; the underflow allowance keeps the norm, 2e-170,
    # inside the bracket
    lower, upper = linalg.Gram.of(np.full((2, 2), 1e-170)).root_of_max_eig()
    assert lower == 0.0 and 2e-170 <= upper <= 1e-150
    # a Gram of no products is exact, and so is its bracket
    assert linalg.Gram.of(np.zeros((0, 2))).root_of_max_eig() == (0.0, 0.0)


def test_gramian_bounds_give_their_forms():
    # the storage bound knows only 0 <= b* P b <= (1 + eta) b* b; the Stein
    # Gramian gives b* p b as both forms, its error at least that of `form`
    rng = np.random.default_rng(4)
    a = 0.5 * linalg.haar_unitary(rng, 3)
    c = np.sqrt(0.75) * np.eye(3, dtype=complex)  # a* a + c* c = I: P = I
    b = linalg.ginibre(rng, 3, 2)
    storage = linalg.storage_gramian_bound(a, c)
    lower, upper, err = storage.forms(b)
    assert lower is None and storage.eta <= 1e-12
    assert np.array_equal(upper, (1.0 + storage.eta) * (b.conj().T @ b))
    assert 0.0 < err <= 1e-13
    stein = linalg.observability_gramian(a, c)
    lower, upper, err = stein.forms(b)
    assert lower is upper and err >= stein.form(b, b)[1]
    assert linalg.operator_norm(upper - b.conj().T @ b) <= 1e-13
    # the two-sided bound: b1* b2 within epsilon ||b1|| ||b2|| plus rounding
    m, err = storage.form(b, a)
    assert np.array_equal(m, b.conj().T @ a) and 0.0 < err <= 1e-13
    assert spectral_radius(a) <= storage.radius_bound < 1.0
    # ||a|| from a* a <= M* M <= (1 + e) I: about 1 here, above ||a|| = 0.5
    assert 0.5 < storage.a_norm <= 1.0 + 1e-13
    m, err = storage.form(a, b)
    f = linalg.frobenius_upper
    assert err == (storage.epsilon * storage.a_norm * linalg.Gram.of(b).root_of_max_eig()[1]
                   + (3 + 2) * linalg.EPS * f(a) * f(b))
    none = np.zeros((0, 0))
    assert linalg.storage_gramian_bound(none, np.zeros((2, 0))) == (
        linalg.StorageGramian(0.0, 0.0, 0.0, 0.0, none))
