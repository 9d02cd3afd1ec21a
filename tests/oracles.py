"""Eigenvalue oracle of the tests: the nonsymmetric eigenvalue solver that
the package never calls, since a Stein Gramian certifies stability there
(`rclift.linalg.observability_gramian`)."""

import numpy as np


def spectral_radius(m) -> float:
    """max |eigenvalue| of a square matrix; 0 for a 0 x 0 matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))
