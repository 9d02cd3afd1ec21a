"""Fixtures shared by the test modules."""

import pytest

from rclift import linalg

# The tables of LAPACK routines that `linalg` calls directly.
LAPACK_TABLES = ("_SPECTRAL_ROUTINES", "_QR_ROUTINES", "_CHOLESKY_ROUTINES")


@pytest.fixture
def lapack_calls(monkeypatch):
    """The LAPACK calls `linalg` makes while the test runs, in order, as
    (routine, args, kwargs), the routine named without its type letter
    (`gesdd`, `heevd_lwork`, `potrf`, ...): every routine of every table is
    replaced by a wrapper that records its call and makes it."""
    calls = []

    def recording(routine):
        name = routine.__name__.split()[-1][1:]  # "function zgesdd" -> "gesdd"

        def call(*args, **kwargs):
            calls.append((name, args, kwargs))
            return routine(*args, **kwargs)

        return call

    for table in LAPACK_TABLES:
        monkeypatch.setattr(linalg, table, tuple(map(recording, getattr(linalg, table))))
    return calls
