import numpy as np
import pytest
from power_series import taylor_eval, transfer_taylor

from rclift import linalg, schur
from rclift.errors import DimensionMismatch
from rclift.hardy import StateSpace


def test_zero_and_constant_eval():
    v = schur.zero(2, 3)
    np.testing.assert_allclose(schur.eval(v, 0.4j), np.zeros((3, 2)))
    c = np.array([[0.3, 0.1], [0.0, -0.5]])
    vc = schur.constant(c)
    np.testing.assert_allclose(schur.eval(vc, -0.2), c)


def test_constant_must_be_contractive():
    with pytest.raises(ValueError):
        schur.constant(1.5 * np.eye(2))


def test_parameter_container_checks_shapes_only():
    # the gate runs where values enter; the container takes a system as it is
    big = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), 1.5 * np.eye(2))
    with pytest.raises(ValueError, match="contraction"):
        schur.contraction_gate(big)
    with pytest.raises(DimensionMismatch):
        StateSpace(np.zeros((1, 1)), np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2))
    v = schur.random_schur(2, 3, 4, 5)
    assert schur.contraction_gate(v) is v


def test_left_multiply_gates_its_result():
    # the composition is gated, not the factor: 2 S V is refused, while
    # 2 S applied to the zero parameter stays zero
    v = schur.random_schur(1, 2, 2, 3)
    with pytest.raises(ValueError, match="contraction"):
        schur.left_multiply(2.0 * np.eye(2), v)
    w = schur.left_multiply(2.0 * np.eye(2), schur.zero(1, 2))
    assert linalg.operator_norm(w.system_matrix()) == 0.0


def grid_certify(v, points=256, radius=0.999):
    """Max value norm over a disc grid: an independent audit of Schur class."""
    worst = 0.0
    for k in range(points):
        lam = radius * np.exp(2j * np.pi * k / points)
        worst = max(worst, linalg.operator_norm(schur.eval(v, lam)))
    return worst


@pytest.mark.parametrize("seed", range(4))
def test_transfer_grid_certification(seed):
    v = schur.random_schur(2, 3, 4, seed)
    assert grid_certify(v, points=256, radius=0.999) <= 1.0 + 1e-9


def test_random_schur_deterministic():
    a = schur.random_schur(2, 2, 3, 123)
    b = schur.random_schur(2, 2, 3, 123)
    np.testing.assert_allclose(a.system_matrix(), b.system_matrix())


def test_random_schur_static_state():
    v = schur.random_schur(3, 2, 0, 7)
    assert v.state_dim == 0
    assert linalg.operator_norm(schur.eval(v, 0.5)) <= 1.0


@pytest.mark.parametrize("kind_seed", [0, 1])
def test_taylor_partial_sums_converge(kind_seed):
    # the system matrix is a contraction, so every coefficient has norm at
    # most one and the dropped tail at lam is at most |lam|^(deg+1)/(1-|lam|);
    # the floor covers roundoff once the truncation error drops below it
    v = schur.random_schur(2, 2, 3, kind_seed)
    lam = 0.5
    exact = schur.eval(v, lam)
    floor = 64 * np.finfo(float).eps
    for deg in (10, 80):  # truncation dominates at 10, roundoff at 80
        partial = taylor_eval(transfer_taylor(v, deg), lam)
        tail = abs(lam) ** (deg + 1) / (1.0 - abs(lam))
        assert linalg.operator_norm(partial - exact) <= tail + floor


def test_taylor_static_kinds():
    vz = schur.zero(1, 2)
    assert all(linalg.operator_norm(c) == 0 for c in transfer_taylor(vz, 4))
    c = np.array([[0.4], [0.2]])
    ts = transfer_taylor(schur.constant(c), 4)
    np.testing.assert_allclose(ts[0], c)
    assert all(linalg.operator_norm(x) == 0 for x in ts[1:])


def test_left_multiply_flips_signs():
    v = schur.random_schur(1, 2, 2, 3)
    s = np.diag([1.0, -1.0])
    w = schur.left_multiply(s, v)
    lam = 0.3 + 0.2j
    np.testing.assert_allclose(schur.eval(w, lam), s @ schur.eval(v, lam))


def test_left_multiply_dimension_check():
    v = schur.random_schur(1, 2, 2, 3)
    with pytest.raises(DimensionMismatch):
        schur.left_multiply(np.eye(3), v)


DISC_POINTS = np.array([0.0, 0.5, -0.7j, 0.3 + 0.6j, 0.95 * np.exp(2.0j)])


@pytest.mark.parametrize("state_dim", [0, 1, 3])
def test_eval_stack_is_pointwise(state_dim):
    v = schur.random_schur(2, 3, state_dim, 12)
    stack = schur.eval(v, DISC_POINTS)
    assert stack.shape == (len(DISC_POINTS), 3, 2)
    for s, lam in zip(stack, DISC_POINTS):
        value = schur.eval(v, lam)
        assert linalg.operator_norm(s - value) <= 1e-15 * linalg.operator_norm(value)
    if state_dim == 0:
        assert all(np.array_equal(s, v.d) for s in stack)


@pytest.mark.parametrize("bad", [1.0, -1.0j, 0.3 + 1.2j])
def test_eval_stack_rejects_any_outside_point(bad):
    with pytest.raises(ValueError):
        schur.eval(schur.random_schur(2, 3, 1, 12), np.append(DISC_POINTS, bad))


def test_eval_rejects_a_grid_of_points():
    with pytest.raises(DimensionMismatch):
        schur.eval(schur.zero(1, 1), np.zeros((2, 2)))
