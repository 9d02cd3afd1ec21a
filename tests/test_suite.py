"""The criterion runner of the acceptance suite, on stub checks, and the
criteria that must be able to fail."""

import collections
import dataclasses
from types import SimpleNamespace

import pytest

from rclift import redheffer, suite

CFG = suite.SuiteConfig(base=1)


def _fake_clock(monkeypatch, *readings):
    monkeypatch.setattr(suite, "time", SimpleNamespace(time=iter(readings).__next__))


def _stub(passed):
    def check(cfg):
        return passed, {"base": cfg.base}

    return check


@pytest.mark.parametrize(
    "check_passed, elapsed, passed",
    [(True, 2.0, False), (True, 0.5, True), (False, 0.5, False)],
    ids=["over_budget", "within_budget", "failed_within_budget"],
)
def test_budget_is_recorded_and_gates(monkeypatch, check_passed, elapsed, passed):
    _fake_clock(monkeypatch, 10.0, 10.0 + elapsed)
    result = suite._criterion("x", budget_s=1.0)(_stub(check_passed))(CFG)
    assert result.name == "x"
    assert result.passed is passed
    assert result.details == {"base": 1, "runtime_within_budget": elapsed < 1.0}
    assert result.runtime_s == elapsed


def test_no_budget_records_nothing(monkeypatch):
    _fake_clock(monkeypatch, 0.0, 100.0)
    result = suite._criterion("x")(_stub(True))(CFG)
    assert result.passed is True
    assert result.details == {"base": 1}
    assert result.runtime_s == 100.0


def test_criteria_keep_their_function_names():
    # the benchmark's per-layer figures `suite.acNN_*.s` and the acceptance
    # test ids are read off these names
    assert [c.__name__ for c in suite.CRITERIA] == [
        "ac01_defect_gram_identity",
        "ac02_omega_dichotomy",
        "ac03_weight_and_projection_identities",
        "ac04_schur_class_membership",
        "ac05_feedback_transform_identity",
        "ac06_contractive_interpolants",
        "ac07_stacked_operator_contraction",
        "ac08_classical_specialization",
        "ac09_nehari_forward_soundness",
        "ac10_hat_m_isometry",
        "ac11_scalar_worked_example",
        "ac12_special_case_agreement",
    ]


def test_shared_pools_are_drawn_once_per_run(monkeypatch):
    # ac01/ac02 read one SEED0 lifting pool and ac09/ac10 one Nehari pool: a
    # run draws each of their instances once, and the next run, even on the
    # same config, draws them all again
    shared = {"_lifting_instance": {(i, suite.SEED0) for i in range(CFG.n_small)},
              "_nehari_pool_entry": {(i,) for i in range(CFG.n_mid)}}
    draws = {name: collections.Counter() for name in shared}
    for name, counts in draws.items():
        def draw(*args, fn=getattr(suite, name), counts=counts):
            counts[args[:2]] += 1
            return fn(*args)

        monkeypatch.setattr(suite, name, draw)
    for _ in range(2):
        suite.run_suite(CFG)
        for name, keys in shared.items():
            assert {k: draws[name][k] for k in keys} == dict.fromkeys(keys, 1), name
            draws[name].clear()


def test_ac06_fails_on_forged_solutions(monkeypatch):
    # Gamma_0 * 1.5 breaks the interpolation conditions of every solution;
    # the criterion must refuse to certify them
    honest = redheffer.solution_realization

    def forged(rc, v):
        sol = honest(rc, v)
        return dataclasses.replace(sol, gamma_coeffs=(1.5 * sol.gamma_coeffs[0],))

    monkeypatch.setattr(redheffer, "solution_realization", forged)
    result = suite.ac06_contractive_interpolants(CFG)
    assert not result.passed
    assert result.details["certified"] == 0
