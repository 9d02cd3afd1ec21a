import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclift import linalg
from rclift.errors import NegativeEigenvalue, NotHermitian, NotPositiveDefinite


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


def test_psd_sqrt_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NegativeEigenvalue):
        linalg.psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_clamps_rounding():
    m = np.diag([1.0, -1e-12])
    s = linalg.psd_sqrt(m)
    assert linalg.operator_norm(s - np.diag([1.0, 0.0])) < 1e-5


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
    assert linalg.spectral_radius(np.array([[0, 1], [0, 0]])) == 0.0
    assert abs(linalg.spectral_radius(np.diag([0.3, -0.9])) - 0.9) < 1e-14
    assert linalg.spectral_radius(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_spectral_radius_below_norm(seed):
    rng = np.random.default_rng(seed)
    m = linalg.ginibre(rng, 5, 5)
    assert linalg.spectral_radius(m) <= linalg.operator_norm(m) + 1e-10


def test_kernel_embedding_structured():
    # the window-slot constraint map: kernel of the adjoint is the first slot
    q = np.array([[0.0], [1.0]])
    emb = linalg.kernel_embedding(q)
    np.testing.assert_allclose(emb.basis, np.array([[1.0], [0.0]]), atol=1e-14)


def test_kernel_embedding_full_rank():
    rng = np.random.default_rng(1)
    m = linalg.ginibre(rng, 4, 4)
    assert linalg.kernel_embedding(m).dim == 0


def matrix_rank(m) -> int:
    """Rank by the package's rank rule, from a fresh SVD."""
    return linalg.rank_from_singular_values(np.linalg.svd(m, compute_uv=False))


@pytest.mark.parametrize("seed", range(5))
def test_kernel_embedding_nullspace_oracle(seed):
    rng = np.random.default_rng(seed)
    left = linalg.ginibre(rng, 6, 3)
    right = linalg.ginibre(rng, 3, 4)
    m = left @ right  # rank 3
    emb = linalg.kernel_embedding(m)
    assert emb.dim == 3
    assert linalg.operator_norm(m.conj().T @ emb.basis) < 1e-10 * linalg.operator_norm(m)
    # completeness: rank + kernel dimension = rows
    assert matrix_rank(m) + emb.dim == m.shape[0]
    # orthonormality
    gram = emb.basis.conj().T @ emb.basis
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


def test_zero_dimensional_matrices_flow():
    z = np.zeros((0, 0))
    assert linalg.operator_norm(z) == 0.0
    assert linalg.kernel_embedding(np.zeros((3, 0))).dim == 3
    assert linalg.range_embedding(np.zeros((3, 0))).dim == 0
    np.testing.assert_allclose(linalg.solve_hpd(z, np.zeros((0, 2))), np.zeros((0, 2)))


def test_psd_sqrt_and_range_noise_control():
    # a zero gap contaminated with rounding must keep rank zero
    rng = np.random.default_rng(3)
    noise = linalg.ginibre(rng, 4, 4) * 1e-15
    m = noise + noise.conj().T
    root, emb = linalg.psd_sqrt_and_range(m)
    assert emb.dim == 0
    assert linalg.operator_norm(root) < 1e-7
    # an honest mixture keeps exactly the significant directions
    m2 = np.diag([0.5, 1e-14, 0.0, 0.8])
    root2, emb2 = linalg.psd_sqrt_and_range(m2)
    assert emb2.dim == 2
    np.testing.assert_allclose(root2, np.diag([np.sqrt(0.5), 0, 0, np.sqrt(0.8)]), atol=1e-12)


def test_canonical_embedding_is_literal_for_diagonal_projectors():
    emb = linalg.range_embedding(np.diag([1.0, 1.0, 0.0, 0.0]))
    np.testing.assert_allclose(emb.basis, np.eye(4)[:, :2], atol=1e-14)
    emb2 = linalg.kernel_embedding(np.vstack([np.zeros((1, 2)), np.eye(2)]))
    np.testing.assert_allclose(emb2.basis, np.eye(3)[:, :1], atol=1e-14)


def _two_svd_rule_rejects(m, tol):
    """The Hermiticity rule by its definition: two spectral norms."""
    return linalg.operator_norm(m - m.conj().T) > tol * max(linalg.operator_norm(m), 1.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 8),
    c=st.sampled_from([0.001, 0.5, 0.99, 1.01, 2.0]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_hermitian_gate_keeps_the_two_svd_verdict(seed, n, c, scale):
    # an HPD matrix h plus an anti-Hermitian part k with ||m - m*|| = ||2k||
    # = c * tol * max(||h||, 1): around c = 1 only the SVDs can decide
    tol = linalg.RANK_RTOL
    rng = np.random.default_rng(seed)
    b = linalg.ginibre(rng, n, n)
    h = scale * (b @ b.conj().T + np.eye(n))
    a = linalg.ginibre(rng, n, n)
    k = a - a.conj().T
    if n:
        k *= c * tol * max(linalg.operator_norm(h), 1.0) / (2 * linalg.operator_norm(k))
    m = h + k
    rejects = _two_svd_rule_rejects(m, tol)
    for call in (lambda: linalg.hermitian_eig(m), lambda: linalg.solve_hpd(m, np.eye(n))):
        if rejects:
            with pytest.raises(NotHermitian):
                call()
        else:
            call()


def test_hermitian_gate_runs_no_svd_on_hermitian_input(monkeypatch):
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
    assert calls == []
    # a matrix the cheap test cannot settle still goes to the SVD rule
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert calls
