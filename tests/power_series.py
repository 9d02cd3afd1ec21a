"""Truncated power-series arithmetic, the tests' oracle for state-space
feedback: transfer functions expanded to Taylor coefficients and composed
coefficient by coefficient, independently of
`redheffer.closed_loop_realization`."""

import numpy as np

from rclift.hardy import StateSpace, markov
from rclift.linalg import eye, zeros


def transfer_taylor(sys: StateSpace, deg: int) -> np.ndarray:
    """Taylor coefficients [D, CB, CAB, CA^2 B, ...] of the transfer
    function, as a (deg + 1, p, q) array."""
    return np.concatenate([sys.d[None], markov(sys.a, sys.b, sys.c, deg)])


def taylor_eval(ts: np.ndarray, lam: complex) -> np.ndarray:
    """Value at a point of the truncated polynomial with the coefficients
    ts, a (k, p, q) array, by Horner's rule."""
    acc = zeros(ts.shape[1], ts.shape[2])
    for c in reversed(ts):
        acc = acc * lam + c
    return acc


def series_mul(a: list[np.ndarray], b: list[np.ndarray], deg: int) -> list[np.ndarray]:
    """Cauchy product of coefficient lists, truncated at degree deg."""
    out = []
    for k in range(deg + 1):
        acc = zeros(a[0].shape[0], b[0].shape[1])
        for i in range(min(k, len(a) - 1) + 1):
            if k - i < len(b):
                acc = acc + a[i] @ b[k - i]
        out.append(acc)
    return out


def series_neumann(s: list[np.ndarray], deg: int) -> list[np.ndarray]:
    """Coefficients of (I - S)^-1 for a square series S with zero constant term."""
    n = s[0].shape[0]
    assert s[0].shape == (n, n) and not np.any(s[0])
    out = [eye(n)]
    for k in range(1, deg + 1):
        acc = zeros(n, n)
        for j in range(1, min(k, len(s) - 1) + 1):
            acc = acc + s[j] @ out[k - j]
        out.append(acc)
    return out


def linear_fractional(phi, v: list[np.ndarray], deg: int) -> list[np.ndarray]:
    """Coefficients of P22 + P21 V (I - P11 V)^-1 P12 for the coefficient
    series phi = (P11, P12, P21, P22), P11 with zero constant term."""
    p11, p12, p21, p22 = (list(p) for p in phi)
    inv = series_neumann(series_mul(p11, v, deg), deg)
    chain = series_mul(v, series_mul(inv, p12, deg), deg)
    return [a + b for a, b in zip(p22, series_mul(p21, chain, deg))]
