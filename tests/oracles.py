"""Reference algorithms of the tests that the package does not run: the
nonsymmetric eigenvalue solver, since a Stein Gramian certifies stability
there (`rclift.linalg.observability_gramian`), the pivoted Gram-Schmidt
loop that `rclift.linalg._canonical_basis` replaced, and the numerical
null space of the intertwining equation that the closed forms of
`rclift.generators` replaced, the colligation of a realization that
`rclift.redheffer.kyp_norm` bounds, and the paper's closed-form Nehari
realization, in the paper's coordinates, that `rclift.nehari.coefficients`
replaced with the lifting core in storage coordinates, the block
layouts that `rclift.nehari` gathers in one indexing pass, written here as
loops over the definitions, on seeded problems of the Nehari edge shapes,
and the exact values of the computed
matrices at 60 digits (mpmath) that every certificate's [lower, upper]
must bracket."""

from dataclasses import dataclass

import mpmath
import numpy as np

from rclift import nehari, redheffer
from rclift.linalg import adj, eye, ginibre, inv_hpd, psd_sqrt, solve_hpd, zeros


def spectral_radius(m) -> float:
    """max |eigenvalue| of a square matrix; 0 for a 0 x 0 matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def pivoted_gram_schmidt(p, rank: int) -> np.ndarray:
    """Orthonormal basis of the range of a projector p: take the remaining
    column with the largest residual norm (lowest index on ties),
    orthogonalize it twice, and fix its phase so the largest entry is real
    positive."""
    n = p.shape[0]
    basis = np.zeros((n, rank), dtype=complex)
    cols = np.array(p, dtype=complex)
    remaining = list(range(n))
    for k in range(rank):
        pick = remaining[int(np.argmax(np.linalg.norm(cols[:, remaining], axis=0)))]
        v = cols[:, pick] / np.linalg.norm(cols[:, pick])
        v -= basis[:, :k] @ (basis[:, :k].conj().T @ v)
        v /= np.linalg.norm(v)
        i = int(np.argmax(np.abs(v)))
        basis[:, k] = v * np.conj(v[i]) / abs(v[i])
        remaining.remove(pick)
        for j in remaining:
            cols[:, j] -= basis[:, k] * (basis[:, k].conj() @ cols[:, j])
    return basis


def intertwining_nullspace(t_prime, r, q, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the null space of A -> T' A R - A Q, columns as
    row-major flattened h' x h matrices, from a full SVD of its Kronecker
    matrix: vec(T' A R - A Q) = (T' kron R^T - I kron Q^T) vec(A)."""
    h_prime, h = t_prime.shape[0], r.shape[0]
    k = np.kron(t_prime, r.T) - np.kron(np.eye(h_prime), q.T)
    if k.shape[0] == 0:
        return np.eye(h_prime * h, dtype=complex)
    _, s, vh = np.linalg.svd(k)
    rank = int(np.sum(s > rtol * s[0])) if s.size and s[0] > 0 else 0
    return vh[rank:].conj().T


# (u, y, N, K): K > N, K = 0, N = 1, u = 0, y = 0
EDGE_SHAPES = [(2, 3, 2, 5), (1, 1, 1, 4), (2, 2, 3, 0), (3, 2, 1, 3), (0, 2, 3, 3), (2, 0, 3, 3)]


def random_taps_problem(seed, u, y, n_w, k):
    """Problem with k Ginibre taps scaled by 0.3; any port may be zero."""
    rng = np.random.default_rng(seed)
    return nehari.NehariProblem(n_w, u, y, tuple(0.3 * ginibre(rng, y, u) for _ in range(k)))


def tap(p, n: int) -> np.ndarray:
    """F_-n of a Nehari problem, zero past the stored taps (n >= 1)."""
    if n <= p.k_taps:
        return p.taps[n - 1]
    return zeros(p.y_dim, p.u_dim)


def hankel_blocks(p) -> np.ndarray:
    """The truncated Hankel matrix, block by block: block row n = 1..max(K, 1)
    (the row of index -n) and window slot j = 0..N-1 hold F_-(n+j)."""
    y, u = p.y_dim, p.u_dim
    rows = max(p.k_taps, 1)
    out = zeros(rows * y, p.n_window * u)
    for n in range(1, rows + 1):
        for j in range(p.n_window):
            out[(n - 1) * y : n * y, j * u : (j + 1) * u] = tap(p, n + j)
    return out


def combined_operator_blocks(p, h) -> np.ndarray:
    """The truncated combined tap/solution operator of the coefficients
    H_0..H_deg in a (deg + 1, y, u) array h, block by block: the row of
    index i = -K..deg and window slot j = 1..N hold the term of index
    i - j + 1 of F_-K, ..., F_-1, H_0, ..., H_deg, zero before F_-K."""
    n_w, u, y, k = p.n_window, p.u_dim, p.y_dim, p.k_taps
    deg = len(h) - 1
    out = zeros((k + deg + 1) * y, n_w * u)
    for row, i in enumerate(range(-k, deg + 1)):
        for j in range(1, n_w + 1):
            m = i - j + 1
            if m >= 0:
                block = h[m]
            elif -m <= k:
                block = tap(p, -m)
            else:
                block = zeros(y, u)
            out[row * y : (row + 1) * y, (j - 1) * u : j * u] = block
    return out


def lifting_data_blocks(p) -> tuple:
    """T', R and Q of the Nehari lifting data set, block by block: T' is the
    backward shift on the max(K, 1) tap rows (block (n, n + 1) is I), R
    maps slot j of U^(N-1) to window slot j and Q to window slot j + 1."""
    y, u, n_w = p.y_dim, p.u_dim, p.n_window
    rows = max(p.k_taps, 1)
    t_prime = zeros(rows * y, rows * y)
    for n in range(rows - 1):
        t_prime[n * y : (n + 1) * y, (n + 1) * y : (n + 2) * y] = eye(y)
    r = zeros(n_w * u, (n_w - 1) * u)
    q = zeros(n_w * u, (n_w - 1) * u)
    for j in range(n_w - 1):
        r[j * u : (j + 1) * u, j * u : (j + 1) * u] = eye(u)
        q[(j + 1) * u : (j + 2) * u, j * u : (j + 1) * u] = eye(u)
    return t_prime, r, q


def colligation(rc) -> np.ndarray:
    """The system matrix [[X1, X2], [X3, 0], [X4, X5]] of a realization,
    mapping (state, parameter output) to (next state, parameter input,
    dilation defect output)."""
    return np.block([
        [rc.x1, rc.x2],
        [rc.x3, np.zeros((rc.x3.shape[0], rc.x2.shape[1]), dtype=complex)],
        [rc.x4, rc.x5],
    ])


def lambda_cross(lam) -> np.ndarray:
    """Lambda^x = Lambda^-1, the inverse of the defect Gram of a Nehari
    problem."""
    return inv_hpd(lam)


def solve_g(p, lam) -> list:
    """The corner solution [G_1 ... G_{N-1}]: the (N-1)-corner of the
    defect Gram `lam` applied to the stacked adjoints gives the stacked tap
    adjoints; empty for N = 1.  NotPositiveDefinite when the corner is not
    positive definite."""
    n_w, u = p.n_window, p.u_dim
    if n_w == 1:
        return []
    corner = lam[: (n_w - 1) * u, : (n_w - 1) * u]
    sol = solve_hpd(corner, np.vstack([adj(tap(p, i)) for i in range(1, n_w)]))
    return [adj(sol[(i - 1) * u : i * u, :]) for i in range(1, n_w)]


@dataclass(frozen=True)
class NehariClosedForm(redheffer.Realization):
    """The paper's realization of a Nehari problem, in its coordinates,
    with the inverse Gram and the corner solution it is built from.

    X1 = T, X2 = -[G*(I+FG*)^(-1/2), C2], X3 = (Lambda^x_11)^(-1/2) e_1*,
    X4 = F T, X5 = [(I+FG*)^(-1/2), 0], E = e_1 and base Gamma_-.  T is the
    block shift with first block column -Lambda^x_(i+1,1) (Lambda^x_11)^-1,
    F the tap row [F_-1 .. F_-N], G the row `g_row` padded with a zero
    block, and C2 the last block column of Lambda^x times
    (Lambda^x_NN)^(-1/2).  `nehari.coefficients` is this realization with
    the state written as W x, for the Cholesky factor Lambda = W*W.
    """

    lam_cross: np.ndarray
    g_row: tuple


def nehari_closed_form(p) -> NehariClosedForm:
    """The paper's closed-form realization of the Nehari problem p."""
    n_w, u, y = p.n_window, p.u_dim, p.y_dim
    lam = p.defect_gram
    lam_x = lambda_cross(lam)
    g_row = solve_g(p, lam)

    def block(i, j):  # 1-based u x u block of Lambda^x
        return lam_x[(i - 1) * u : i * u, (j - 1) * u : j * u]

    lam11_inv = inv_hpd(block(1, 1))
    t_state = zeros(n_w * u, n_w * u)
    for i in range(1, n_w):
        t_state[(i - 1) * u : i * u, i * u : (i + 1) * u] = eye(u)
        t_state[(i - 1) * u : i * u, :u] = -block(i + 1, 1) @ lam11_inv
    e_1 = np.vstack([eye(u)] + [zeros(u, u)] * (n_w - 1))
    c2 = lam_x[:, (n_w - 1) * u :] @ psd_sqrt(inv_hpd(block(n_w, n_w)))
    f_row = np.hstack([tap(p, n) for n in range(1, n_w + 1)])
    g_big = np.hstack(g_row + [zeros(y, u)] * (n_w - len(g_row)))
    i_fg_neg_half = psd_sqrt(inv_hpd(eye(y) + f_row @ adj(g_big)))
    return NehariClosedForm(
        x1=t_state,
        x2=-np.hstack([adj(g_big) @ i_fg_neg_half, c2]),
        x3=psd_sqrt(lam11_inv) @ adj(e_1),
        x4=f_row @ t_state,
        x5=np.hstack([i_fg_neg_half, zeros(y, u)]),
        e=e_1,
        base=np.vstack([tap(p, n) for n in range(1, max(p.k_taps, 1) + 1)]),
        lam_cross=lam_x,
        g_row=tuple(g_row),
    )


def closed_form_operators(p, cf):
    """The operators C1, C2, F and G of the paper's closed form `cf`.

    C1 is the first block column of Lambda^x below its top block over a
    zero block, times (Lambda^x_11)^-1; C2 the last block column times
    (Lambda^x_NN)^(-1/2); F = [F_-1 .. F_-N]; G the corner solution padded
    with a zero block.
    """
    n_w, u, y = p.n_window, p.u_dim, p.y_dim
    lam_x = cf.lam_cross
    col1 = np.vstack([lam_x[u:, :u], zeros(u, u)])
    c1 = col1 @ inv_hpd(lam_x[:u, :u])
    c2 = lam_x[:, (n_w - 1) * u :] @ psd_sqrt(inv_hpd(lam_x[(n_w - 1) * u :, (n_w - 1) * u :]))
    f_row = np.hstack([tap(p, n) for n in range(1, n_w + 1)])
    g_big = np.hstack(list(cf.g_row) + [zeros(y, u)] * (n_w - len(cf.g_row)))
    return c1, c2, f_row, g_big


# --- exact values of computed matrices -------------------------------------------

EXACT_DIGITS = 60
EXACT_MAX_STATES = 6  # the Kronecker system of the Stein equation has n^2 unknowns


def mp_matrix(m) -> mpmath.matrix:
    """The float matrix m as an mpmath matrix, entry for entry exactly."""
    m = np.asarray(m, dtype=complex)
    out = mpmath.matrix(m.shape[0], m.shape[1])
    for (i, j), z in np.ndenumerate(m):
        out[i, j] = mpmath.mpc(z.real, z.imag)
    return out


def _adj(m: mpmath.matrix) -> mpmath.matrix:
    return m.transpose_conj()


def _stack(*blocks: mpmath.matrix) -> mpmath.matrix:
    """The blocks stacked vertically; they share their column count."""
    cols = blocks[0].cols
    out = mpmath.matrix(sum(b.rows for b in blocks), cols)
    r = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(cols):
                out[r + i, j] = b[i, j]
        r += b.rows
    return out


def _top_eig(h: mpmath.matrix):
    """The largest eigenvalue of a Hermitian mpmath matrix; 0 when empty."""
    if h.rows == 0:
        return mpmath.mpf(0)
    h = (h + _adj(h)) / 2
    return max(mpmath.re(e) for e in mpmath.eigh(h, eigvals_only=True))


def exact_norm(m: mpmath.matrix):
    """The operator norm of an mpmath matrix, sqrt(lambda_max(m* m))."""
    if m.rows == 0 or m.cols == 0:
        return mpmath.mpf(0)
    return mpmath.sqrt(max(_top_eig(_adj(m) @ m), 0))


def exact_spectral_radius(a):
    """max |eigenvalue| of the float matrix a at EXACT_DIGITS digits, from
    mpmath's QR algorithm run at that precision; 0 for a 0 x 0 matrix."""
    if a.shape[0] == 0:
        return mpmath.mpf(0)
    with mpmath.workdps(EXACT_DIGITS):
        m = mp_matrix(a)
        if m.rows == 1:  # mpmath's eig returns vectors for a 1 x 1 matrix all the same
            return abs(m[0, 0])
        return max(abs(e) for e in mpmath.eig(m, left=False, right=False))


def _gauss_solve(rows: list, rhs: list) -> list:
    """x with rows x = rhs, by Gaussian elimination with partial pivoting
    on |re| + |im|, in the working precision; `rows` is a list of lists."""
    n = len(rows)
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(rows[i][col].real) + abs(rows[i][col].imag))
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            factor = rows[i][col] * inv
            if factor:
                row_i, row_c = rows[i], rows[col]
                for j in range(col + 1, n):
                    row_i[j] -= factor * row_c[j]
                rhs[i] -= factor * rhs[col]
    x = [mpmath.mpc(0)] * n
    for i in reversed(range(n)):
        x[i] = (rhs[i] - mpmath.fsum(rows[i][j] * x[j] for j in range(i + 1, n))) / rows[i][i]
    return x


def exact_gramian(a, c) -> mpmath.matrix:
    """The observability Gramian P = a* P a + c* c of the float matrices
    a and c, at EXACT_DIGITS digits: the Kronecker system
    (I - a^T kron a*) vec P = vec(c* c), with vec stacking columns, solved
    by Gaussian elimination.  Meaningful only for a stable a;
    n <= EXACT_MAX_STATES."""
    n = a.shape[0]
    assert n <= EXACT_MAX_STATES
    with mpmath.workdps(EXACT_DIGITS):
        am, cm = mp_matrix(a), mp_matrix(c)
        if n == 0:
            return mpmath.matrix(0, 0)
        a_star = _adj(am)
        q = _adj(cm) @ cm
        k = mpmath.eye(n * n)
        for j in range(n):  # block (j, l) of a^T kron a* is a_(l j) a*
            for l in range(n):
                coef = am[l, j]
                if coef == 0:
                    continue
                for i in range(n):
                    for p in range(n):
                        k[j * n + i, l * n + p] -= coef * a_star[i, p]
        vec = _gauss_solve([[k[i, j] for j in range(n * n)] for i in range(n * n)],
                           [q[i, j] for j in range(n) for i in range(n)])
        p_mat = mpmath.matrix(n, n)
        for j in range(n):
            for i in range(n):
                p_mat[i, j] = vec[j * n + i]
        return (p_mat + _adj(p_mat)) / 2


def _form(p_mat: mpmath.matrix, m: mpmath.matrix) -> mpmath.matrix:
    """m* P m, zero when there is no state."""
    return _adj(m) @ p_mat @ m if p_mat.rows else mpmath.zeros(m.cols)


def exact_certificate_values(ds, sol, p_mat: mpmath.matrix | None = None) -> tuple:
    """The exact projection residual, intertwining residual and stacked
    norm of a lifting solution in state-space form, the three quantities
    of `rclift.hardy.certify_interpolant`, for its float matrices and the
    data set's computed defect coordinates (D_T', E_T); `p_mat`, when
    given, is `exact_gramian(sol.a, sol.c)`."""
    with mpmath.workdps(EXACT_DIGITS):
        if p_mat is None:
            p_mat = exact_gramian(sol.a, sol.c)
        a_mp, b, c = mp_matrix(sol.a), mp_matrix(sol.b), mp_matrix(sol.c)
        a_part, r, q = mp_matrix(sol.a_part), mp_matrix(ds.r), mp_matrix(ds.q)
        d_t, e_t = (mp_matrix(m) for m in ds.t_prime_defect)
        gammas = [mp_matrix(g) for g in sol.gamma_coeffs] + [c @ b]
        shifted = [_adj(e_t) @ d_t @ a_part] + gammas[:-1]
        rows = _stack(mp_matrix(ds.t_prime) @ a_part @ r - a_part @ q,
                      *(s @ r - g @ q for s, g in zip(shifted, gammas)))
        y = b @ r - a_mp @ (b @ q)
        head = _stack(a_part, *gammas[:-1])
        residual = mpmath.sqrt(max(_top_eig(_adj(rows) @ rows + _form(p_mat, y)), 0))
        sigma = mpmath.sqrt(max(_top_eig(_adj(head) @ head + _form(p_mat, b)), 0))
        projection = exact_norm(a_part - mp_matrix(ds.a))
        return projection, residual, sigma


def exact_isometry_residual(rc):
    """The exact largest residual of the three identities of
    `rclift.redheffer.isometry_certificate` for a realization's float
    matrices."""
    with mpmath.workdps(EXACT_DIGITS):
        c_f = np.vstack([rc.x3, rc.x4])
        d_f = np.vstack([np.zeros((rc.kq_dim, rc.w_dim), complex), rc.x5])
        p_mat = exact_gramian(rc.x1, c_f)
        x1, x2, e, base = (mp_matrix(m) for m in (rc.x1, rc.x2, rc.e, rc.base))
        c, d = mp_matrix(c_f), mp_matrix(d_f)
        return max(
            exact_norm(_adj(d) @ d + _adj(x2) @ p_mat @ x2 - mpmath.eye(rc.w_dim)),
            exact_norm(_adj(c) @ d + _adj(x1) @ p_mat @ x2),
            exact_norm(_adj(base) @ base + _adj(e) @ p_mat @ e - mpmath.eye(rc.e.shape[1])),
        )


def exact_kyp_norm(rc):
    """The exact value of `rclift.redheffer.kyp_norm` for a realization's
    float matrices."""
    with mpmath.workdps(EXACT_DIGITS):
        return max(exact_norm(mp_matrix(colligation(rc))),
                   exact_norm(mp_matrix(np.vstack([rc.base, rc.e]))))
