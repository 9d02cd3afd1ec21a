import json

import numpy as np
import pytest

from rclift import nehari, serialize
from rclift.cli import main
from rclift.hardy import TaylorSeries

SCALAR_PROBLEM = {
    "kind": "nehari",
    "N": 2,
    "u_dim": 1,
    "y_dim": 1,
    "taps": [[[0.5, 0.0]]],
}


@pytest.fixture()
def scalar_problem(tmp_path):
    path = tmp_path / "scalar.json"
    serialize.dump_json(str(path), SCALAR_PROBLEM)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_scalar(scalar_problem, capsys):
    code, out, _ = run(capsys, "validate", scalar_problem)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert any(r["name"] == "hankel_contraction" for r in doc["residuals"])


def test_validate_flags_expansive_instance(tmp_path, capsys):
    bad = dict(SCALAR_PROBLEM, taps=[[[1.2, 0.0]]])
    path = tmp_path / "bad.json"
    serialize.dump_json(str(path), bad)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    doc = json.loads(out)
    row = next(r for r in doc["residuals"] if r["name"] == "hankel_contraction")
    assert not row["passed"]


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "error" in err


def test_solve_central_scalar(scalar_problem, tmp_path, capsys):
    out_path = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", scalar_problem, "--central",
                     "--degree", "12", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "nehari_solution"
    assert all(pair == [0.0, 0.0] for coeff in doc["H"] for pair in coeff)
    assert abs(doc["sigma_max"] - 0.5) < 1e-12


def test_solve_with_parameter_and_verify(scalar_problem, tmp_path, capsys):
    param = tmp_path / "v.json"
    serialize.dump_json(
        str(param),
        {"variant": "random", "in_dim": 1, "out_dim": 2, "state_dim": 2, "seed": 3},
    )
    sol = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", scalar_problem, "--param", str(param),
                     "--degree", "24", "--out", str(sol))
    assert code == 0
    code, out, _ = run(capsys, "verify", scalar_problem, str(sol), "--degree", "24")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_rejects_forged_solution(scalar_problem, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    serialize.dump_json(str(sol), {
        "kind": "nehari_solution",
        "H": [[[2.0, 0.0]]],
        "tail_bound": 0.0,
        "sigma_max": 2.0,
        "report": {},
    })
    code, out, _ = run(capsys, "verify", scalar_problem, str(sol))
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("degree, expect_code", [(0, 0), (1, 1), (5, 1)])
def test_verify_nehari_truncates_to_degree(scalar_problem, tmp_path, capsys, degree, expect_code):
    # H_1 = 2 refutes the solution, but only when the check reaches degree 1;
    # a --degree above the stored degree 1 checks every stored coefficient
    coeffs = [np.array([[0.0]]), np.array([[2.0]])]
    sol = tmp_path / "sol.json"
    doc = serialize.nehari_solution_to_json(TaylorSeries(tuple(coeffs)), 0.0, {})
    serialize.dump_json(str(sol), doc)
    code, out, _ = run(capsys, "verify", scalar_problem, str(sol), "--degree", str(degree))
    assert code == expect_code
    problem = serialize.instance_from_json(SCALAR_PROBLEM)
    kept = TaylorSeries(tuple(coeffs[: min(degree, 1) + 1]))
    (row,) = json.loads(out)["residuals"]
    assert row["name"] == "combined_operator_norm"
    assert abs(row["value"] - nehari.assemble_l(problem, kept).sigma_max) < 1e-12


@pytest.mark.parametrize("command", ["solve", "verify", "nehari"])
def test_negative_degree_exits_2(scalar_problem, tmp_path, capsys, command):
    sol = tmp_path / "sol.json"
    run(capsys, "solve", scalar_problem, "--central", "--degree", "4", "--out", str(sol))
    extra = {"solve": ["--central"], "verify": [str(sol)], "nehari": []}[command]
    code, _, err = run(capsys, command, scalar_problem, *extra, "--degree", "-3")
    assert code == 2
    assert "nonnegative" in err


def test_solve_non_strict_exits_3(tmp_path, capsys):
    inst = dict(SCALAR_PROBLEM, taps=[[[1.0, 0.0]]])
    path = tmp_path / "tight.json"
    serialize.dump_json(str(path), inst)
    code, _, err = run(capsys, "solve", str(path), "--central")
    assert code == 3
    assert "hypothesis" in err


def test_gen_then_validate_all_kinds(tmp_path, capsys):
    for kind, dims in [("nehari", "2,1,3,2"), ("nehari-like", "1,2,2,3"),
                       ("classical-like", "3,3"), ("generic", "4,3,2")]:
        path = tmp_path / f"{kind}.json"
        code, _, _ = run(capsys, "gen", "--kind", kind, "--dims", dims,
                         "--seed", "7", "--norm", "0.7", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0, out


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "gen", "--kind", "generic", "--dims", "4,3,2",
                         "--seed", "11", "--out", str(path))
        assert code == 0
    assert a.read_text() == b.read_text()


def test_lifting_solve_verify_roundtrip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", "--kind", "generic", "--dims", "4,3,2",
                     "--seed", "2", "--norm", "0.75", "--out", str(inst))
    assert code == 0
    sol = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", str(inst), "--central", "--degree", "24",
                     "--out", str(sol))
    assert code == 0
    doc = json.loads(sol.read_text())
    assert doc["kind"] == "lifting_solution"
    assert doc["report"]["passed"] is True
    code, out, _ = run(capsys, "verify", str(inst), str(sol), "--degree", "24")
    assert code == 0


def test_nehari_subcommand(scalar_problem, capsys):
    code, out, _ = run(capsys, "nehari", scalar_problem, "--degree", "32")
    assert code == 0
    doc = json.loads(out)
    names = {r["name"] for r in doc["residuals"]}
    assert {"hankel_norm", "gram_matches_hankel", "state_spectral_radius",
            "stacked_isometry_residual"} <= names


def test_report_byte_stability(scalar_problem, tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code, _, _ = run(capsys, "validate", scalar_problem, "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_suite_fast_mode(capsys):
    code, out, err = run(capsys, "suite", "--seeds", "1", "--degree", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["criteria"]) == 12
    assert err.count("PASS") + err.count("FAIL") == 12
    failed = [c["name"] for c in doc["criteria"] if not c["passed"]]
    assert failed == ["classical_specialization"]


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    bad = dict(SCALAR_PROBLEM, taps=[[[1.0000001, 0.0]]])
    path = tmp_path / "edge.json"
    serialize.dump_json(str(path), bad)
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 1
    monkeypatch.setenv("RCLIFT_TOL", "1e-3")
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 0


def _tamper_lifting_instance(tmp_path, capsys, bad):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--kind", "generic", "--dims", "4,3,2", "--seed", "2",
        "--norm", "0.75", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["a"]["data"][0] = bad
    path.write_text(json.dumps(doc))
    return ["validate", str(path)], "a: "


def _tamper_nehari_tap(tmp_path, capsys, bad):
    path = tmp_path / "inst.json"
    serialize.dump_json(str(path), dict(SCALAR_PROBLEM, taps=[[bad]]))
    return ["validate", str(path)], "tap 0: "


def _tamper_lifting_gamma(tmp_path, capsys, bad):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(capsys, "gen", "--kind", "generic", "--dims", "4,3,2", "--seed", "2",
        "--norm", "0.75", "--out", str(inst))
    run(capsys, "solve", str(inst), "--central", "--degree", "3", "--out", str(sol))
    doc = json.loads(sol.read_text())
    doc["gamma"][1]["data"][0] = bad
    sol.write_text(json.dumps(doc))
    return ["verify", str(inst), str(sol), "--degree", "3"], "gamma[1]: "


def _tamper_nehari_h(tmp_path, capsys, bad):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    serialize.dump_json(str(inst), SCALAR_PROBLEM)
    run(capsys, "solve", str(inst), "--central", "--degree", "3", "--out", str(sol))
    doc = json.loads(sol.read_text())
    doc["H"][1][0] = bad
    sol.write_text(json.dumps(doc))
    return ["verify", str(inst), str(sol), "--degree", "3"], "H[1]: "


@pytest.mark.parametrize("bad", [["x", 0], [None, 0], [[1.0], 0], [1.0], [1.0, 0.0, 0.0],
                                 ["0.5", 0.0], [0.5, True]],
                         ids=["string", "null", "nested", "short", "long", "numeric_string",
                              "bool"])
@pytest.mark.parametrize("tamper", [_tamper_lifting_instance, _tamper_nehari_tap,
                                    _tamper_lifting_gamma, _tamper_nehari_h],
                         ids=["lifting_a", "nehari_tap", "lifting_gamma", "nehari_h"])
def test_malformed_matrix_entry_exits_2(tmp_path, capsys, tamper, bad):
    argv, where = tamper(tmp_path, capsys, bad)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and where in err


@pytest.mark.parametrize("value", [3.0, "3", 3.5], ids=["float", "string", "fraction"])
def test_malformed_matrix_dims_exit_2(tmp_path, capsys, value):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--kind", "generic", "--dims", "4,3,2", "--seed", "2",
        "--norm", "0.75", "--out", str(path))
    doc = json.loads(path.read_text())
    assert doc["a"]["rows"] == 3
    doc["a"]["rows"] = value
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith("error: a: rows must be an integer")


def test_nehari_report_independent_of_degree(tmp_path, capsys):
    # the report certifies the full operator, so no row depends on the
    # degree (the state matrix here is not nilpotent, so a truncation would)
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--kind", "nehari", "--dims", "2,2,3,3", "--seed", "1", "--out", str(path))
    docs = []
    for deg in ("4", "256"):
        code, out, _ = run(capsys, "nehari", str(path), "--degree", deg)
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0]["residuals"] == docs[1]["residuals"]
    row = next(r for r in docs[0]["residuals"] if r["name"] == "stacked_isometry_residual")
    assert row["threshold"] == 1e-10
    assert row["passed"] and row["value"] <= 1e-10
