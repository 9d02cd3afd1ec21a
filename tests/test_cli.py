import argparse
import base64
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from wire import as_pairs

import rclift
from rclift import cli, generators, lifting, linalg, nehari, redheffer, schur, serialize
from rclift.cli import main
from rclift.hardy import markov

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
    row = next(r for r in doc["residuals"] if r["name"] == "contraction_a")
    assert row["value"] == row["lower"] == 0.5 and row["status"] == "certified"


def test_validate_flags_expansive_instance(tmp_path, capsys):
    bad = dict(SCALAR_PROBLEM, taps=[[[1.2, 0.0]]])
    path = tmp_path / "bad.json"
    serialize.dump_json(str(path), bad)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    doc = json.loads(out)
    row = next(r for r in doc["residuals"] if r["name"] == "contraction_a")
    assert not row["passed"] and row["status"] == "refuted"


def test_gen_nehari_keeps_the_norm_at_or_below_the_target(tmp_path, capsys):
    # the taps are shrunk by ulps until the computed Hankel norm is at most
    # the target, as `generate_random` does; seeds 4-6 used to land ulps
    # above 1 - STRICT_DELTA and fail the strictness gate
    target = 1.0 - lifting.STRICT_DELTA
    path = tmp_path / "inst.json"
    for seed in range(8):
        code, _, _ = run(capsys, "gen", "--kind", "nehari", "--dims", "2,2,3,4",
                         "--norm", repr(target), "--seed", str(seed), "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["residuals"]}
        assert target - 1e-14 <= rows["contraction_a"]["value"] <= target
        assert rows["strictness_gram_min_eig"]["status"] == "certified"


def test_validate_reports_the_nehari_gate(tmp_path, capsys):
    # ||A|| = 0.9999999 misses the lifting margin 1 - STRICT_DELTA, but the
    # Nehari pipeline gates the defect Gram, whose least eigenvalue 2e-7
    # clears GRAM_MIN_EIG: validate reports that gate alone, and solve runs
    path = tmp_path / "inst.json"
    serialize.dump_json(str(path), dict(SCALAR_PROBLEM, N=1, taps=[[[0.9999999, 0.0]]]))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    rows = {r["name"]: r for r in json.loads(out)["residuals"]}
    assert not any(name.startswith("strictness_") and name != "strictness_gram_min_eig"
                   for name in rows)
    assert rows["strictness_gram_min_eig"]["status"] == "certified"
    code, _, _ = run(capsys, "solve", str(path), "--central", "--degree", "4")
    assert code == 0


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
    coeffs = np.array([[[0.0]], [[2.0]]], complex)
    sol = tmp_path / "sol.json"
    doc = serialize.nehari_solution_to_json(coeffs, 0.0, {})
    serialize.dump_json(str(sol), doc)
    code, out, _ = run(capsys, "verify", scalar_problem, str(sol), "--degree", str(degree))
    assert code == expect_code
    problem = serialize.instance_from_json(SCALAR_PROBLEM)
    kept = coeffs[: min(degree, 1) + 1]
    (row,) = json.loads(out)["residuals"]
    assert row["name"] == "combined_operator_norm"
    # a truncated norm is a lower bound, with no upper end
    assert row["value"] is None and not row["passed"]
    assert abs(row["lower"] - nehari.assemble_l(problem, kept)) < 1e-12


@pytest.mark.parametrize("command", ["solve", "verify", "nehari"])
def test_negative_degree_exits_2(scalar_problem, tmp_path, capsys, command):
    sol = tmp_path / "sol.json"
    run(capsys, "solve", scalar_problem, "--central", "--degree", "4", "--out", str(sol))
    extra = {"solve": ["--central"], "verify": [str(sol)], "nehari": []}[command]
    code, _, err = run(capsys, command, scalar_problem, *extra, "--degree", "-3")
    assert code == 2
    assert "nonnegative" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
@pytest.mark.parametrize("command", ["solve", "verify", "validate"])
def test_tolerance_not_finite_and_nonnegative_exits_2(tmp_path, capsys, command, tol):
    # a threshold of 1 + inf certified a forged solution (its Gamma scaled
    # tenfold), and nan or a negative tolerance refuted every solution
    inst, _, doc = _solved_lifting(tmp_path, capsys)
    for gamma in doc["gamma"]:
        _scale_matrix(gamma, 10.0)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    extra = {"solve": ["--central"], "verify": [str(forged)], "validate": []}[command]
    code, out, err = run(capsys, command, str(inst), *extra, "--tol", tol)
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol must be finite and nonnegative")


@pytest.mark.parametrize("argv", [["validate", "--degree", "3"], ["nehari", "--tol", "1e-3"]])
def test_option_the_command_ignores_exits_2(scalar_problem, capsys, argv):
    # validate truncates nothing and the nehari report has no tolerance,
    # so neither accepts the option; the usage printed lists every command,
    # though only the invoked one's parser is built
    with pytest.raises(SystemExit) as exc:
        main([argv[0], scalar_problem, *argv[1:]])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        cli.build_parser().format_usage()
        + f"rclift: error: unrecognized arguments: {' '.join(argv[1:])}\n")


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_command_names_are_the_full_parsers_choices():
    assert cli.COMMANDS == tuple(_subcommands(cli.build_parser()).choices)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_one_command_parser_formats_like_the_full_one(command):
    full, alone = cli.build_parser(), cli.build_parser(command)
    assert tuple(_subcommands(alone).choices) == (command,)
    full_sub = _subcommands(full).choices[command]
    alone_sub = _subcommands(alone).choices[command]
    assert alone_sub.format_help() == full_sub.format_help()
    assert alone_sub.format_usage() == full_sub.format_usage()
    # the top-level usage is what an "unrecognized arguments" error prints
    assert alone.format_usage() == full.format_usage()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_command_builds_two_parsers(capsys, monkeypatch, command):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert built == ["rclift", f"rclift {command}"]
    assert capsys.readouterr().out.startswith(f"usage: rclift {command} ")


@pytest.mark.parametrize("argv, expect_code", [(["--help"], 0), ([], 2), (["bogus"], 2)])
def test_no_command_lists_every_command(capsys, argv, expect_code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == expect_code
    out = capsys.readouterr()
    assert "{validate,solve,verify,nehari,gen,suite}" in out.out + out.err


def test_solve_non_strict_exits_3(tmp_path, capsys):
    inst = dict(SCALAR_PROBLEM, taps=[[[1.0, 0.0]]])
    path = tmp_path / "tight.json"
    serialize.dump_json(str(path), inst)
    code, _, err = run(capsys, "solve", str(path), "--central")
    assert code == 3
    assert "hypothesis" in err


def test_solve_expansive_lifting_exits_3(tmp_path, capsys):
    # ||A|| = 1.2: I - A*A is no defect square, which is a violated hypothesis
    one = serialize.matrix_to_json(np.eye(1))
    inst = {"kind": "lifting", "a": serialize.matrix_to_json(np.array([[1.2]])),
            "t_prime": one, "r": one, "q": one}
    path = tmp_path / "expansive.json"
    serialize.dump_json(str(path), inst)
    code, out, err = run(capsys, "solve", str(path), "--central")
    assert code == 3
    assert out == ""
    assert "hypothesis violation" in err


def test_verify_overflowing_nehari_coefficients_is_an_error(scalar_problem, tmp_path, capsys):
    # the Gram of the combined operator overflows: no value can be reported
    sol = tmp_path / "huge.json"
    serialize.dump_json(str(sol), {"H": [[[1e160, 0.0]]]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", scalar_problem, str(sol))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "overflow" in err
    assert caught == []


def test_gen_then_validate_all_kinds(tmp_path, capsys):
    for kind, dims in [("nehari", "2,1,3,2"), ("nehari-like", "1,2,2,3"),
                       ("classical-like", "3,3"), ("generic", "4,3,2")]:
        path = tmp_path / f"{kind}.json"
        code, _, _ = run(capsys, "gen", "--kind", kind, "--dims", dims,
                         "--seed", "7", "--norm", "0.7", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0, out


@pytest.mark.parametrize("argv", [
    ["--kind", "generic", "--dims", "2,2,2"],
    ["--kind", "generic", "--dims", "0,2,0"],
    ["--kind", "generic", "--dims", "3,2"],
    ["--kind", "generic", "--dims", "3,-1,1"],
    ["--kind", "classical-like", "--dims", "3"],
    ["--kind", "nehari", "--dims", "1,1,2"],
    ["--kind", "generic", "--dims", "4,x,2"],
    ["--kind", "generic", "--dims", "4,3,2", "--norm", "1.0"],
    ["--kind", "nehari", "--dims", "2,1,3,2", "--norm", "-1"],
    ["--kind", "nehari", "--dims", "2,1,3,2", "--norm", "1.0"],
], ids=["h0_not_below_h", "all_empty", "too_few", "negative", "classical_too_few",
        "nehari_too_few", "not_integer", "norm_one", "nehari_norm_negative",
        "nehari_norm_one"])
def test_gen_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_gen_nehari_with_an_empty_space(tmp_path, capsys):
    # no input or no output space leaves only zero taps, of norm 0
    path = tmp_path / "empty.json"
    code, _, _ = run(capsys, "gen", "--kind", "nehari", "--dims", "0,1,2,1",
                     "--out", str(path))
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


def test_nehari_report_certifies_near_boundary(tmp_path, capsys):
    # ||Gamma|| = 1 - 1e-6: the gate admits the problem, and the report's
    # isometry certificate holds, with every row passed
    p = generators.random_nehari_problem(np.random.default_rng(0), 2, 2, 3, 4, 1 - 1e-6)
    path = tmp_path / "edge.json"
    serialize.dump_json(str(path), serialize.instance_to_json(p))
    code, out, _ = run(capsys, "nehari", str(path))
    assert code == 0
    assert all(r["passed"] for r in json.loads(out)["residuals"])


def _instance_file(tmp_path, p) -> str:
    path = tmp_path / "inst.json"
    serialize.dump_json(str(path), serialize.instance_to_json(p))
    return str(path)


def _nehari_report_rows(tmp_path, capsys, p) -> dict:
    """The rows of the `rclift nehari` report on p, by name."""
    code, out, _ = run(capsys, "nehari", _instance_file(tmp_path, p))
    assert code == 0
    return {r["name"]: r for r in json.loads(out)["residuals"]}


@pytest.mark.parametrize("dims", [(2, 2, 3, 4), (3, 1, 4, 2)])
def test_nehari_report_rows_bracket_their_residual_norms(tmp_path, capsys, dims):
    # `gram_matches_hankel` and `gram_inverse` bracket the norms of their
    # computed residuals by Frobenius norms, and `hankel_norm` the norm of
    # A by its Gram: the SVD norm lies inside each
    p = generators.random_nehari_problem(np.random.default_rng(5), *dims, 0.8)
    rows = _nehari_report_rows(tmp_path, capsys, p)
    a, lam = p.a, nehari.gram(p)
    ident = np.eye(lam.shape[0])
    residuals = {
        "gram_matches_hankel": lam - (ident - a.conj().T @ a),
        "gram_inverse": lam @ linalg.inv_hpd(lam) - ident,
    }
    for name, residual in residuals.items():
        row = rows[name]
        norm = linalg.operator_norm(residual)
        assert 0.0 < row["lower"] <= norm <= row["value"], name
        assert row["value"] <= np.sqrt(lam.shape[0]) * norm * (1 + 1e-12)
        assert row["status"] == "certified"
    row = rows["hankel_norm"]
    assert row["lower"] <= linalg.operator_norm(a) <= row["value"]
    assert row["status"] == "certified"


def test_nehari_report_hankel_norm_without_taps_is_zero(tmp_path, capsys):
    # with no taps the Gram of A is exactly zero, and so is its bracket
    rows = _nehari_report_rows(tmp_path, capsys, nehari.NehariProblem(3, 2, 3, ()))
    assert (rows["hankel_norm"]["lower"], rows["hankel_norm"]["value"]) == (0.0, 0.0)
    assert rows["hankel_norm"]["status"] == "certified"


@pytest.mark.parametrize("command", ["nehari", "validate"])
def test_nehari_commands_form_a_and_its_gram_once(tmp_path, capsys, monkeypatch, command):
    # one report lays out the Hankel matrix once (`_gather`) and forms its
    # Gram once (`combined_gram`); every reader shares the problem's copies
    path = _instance_file(
        tmp_path, generators.random_nehari_problem(np.random.default_rng(5), 2, 2, 3, 4, 0.8))
    calls = []

    def counted(name):
        real = getattr(nehari, name)

        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in ("_gather", "combined_gram"):
        monkeypatch.setattr(nehari, name, counted(name))
    code, _, _ = run(capsys, command, path)
    assert code == 0
    assert sorted(calls) == ["_gather", "combined_gram"]


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


@pytest.mark.parametrize("argv", [
    pytest.param(["suite", "--seeds", "2"], id="suite"),
    # the projection's conjugate-gradient iteration count depends on rounding
    pytest.param(["gen", "--kind", "generic", "--dims", "40,30,20", "--seed", "1"], id="gen"),
])
def test_suite_report_bytes_do_not_depend_on_blas_threads(argv):
    src = os.path.dirname(os.path.dirname(rclift.__file__))
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from rclift.cli import main; sys.exit(main())",
             *argv],
            env=env, capture_output=True, check=True, timeout=300)
        reports.append(done.stdout)
    assert reports[0] == reports[1]


def test_tolerance_option_override(tmp_path, capsys):
    bad = dict(SCALAR_PROBLEM, taps=[[[1.0000001, 0.0]]])
    path = tmp_path / "edge.json"
    serialize.dump_json(str(path), bad)
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 1
    code, _, _ = run(capsys, "validate", str(path), "--tol", "1e-3")
    assert code == 0


def _tamper_lifting_instance(tmp_path, capsys, bad):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--kind", "generic", "--dims", "4,3,2", "--seed", "2",
        "--norm", "0.75", "--out", str(path))
    doc = json.loads(path.read_text())
    as_pairs(doc["a"])["data"][0] = bad
    path.write_text(json.dumps(doc))
    return ["validate", str(path)], "a: "


def _tamper_nehari_tap(tmp_path, capsys, bad):
    path = tmp_path / "inst.json"
    serialize.dump_json(str(path), dict(SCALAR_PROBLEM, taps=[[bad]]))
    return ["validate", str(path)], "tap 0: "


def _tamper_lifting_solution(tmp_path, capsys, where, bad):
    """Replace one entry of the matrix at doc path `where` of a solved file."""
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(capsys, "gen", "--kind", "generic", "--dims", "4,3,2", "--seed", "2",
        "--norm", "0.75", "--out", str(inst))
    run(capsys, "solve", str(inst), "--central", "--degree", "3", "--out", str(sol))
    doc = json.loads(sol.read_text())
    matrix = doc
    for key in where:
        matrix = matrix[key]
    as_pairs(matrix)["data"][0] = bad
    sol.write_text(json.dumps(doc))
    return ["verify", str(inst), str(sol), "--degree", "3"]


def _tamper_lifting_gamma(tmp_path, capsys, bad):
    # a solved file lists Gamma_0 only; its tail holds the rest
    return _tamper_lifting_solution(tmp_path, capsys, ("gamma", 0), bad), "gamma[0]: "


def _tamper_lifting_tail(tmp_path, capsys, bad):
    return _tamper_lifting_solution(tmp_path, capsys, ("tail", "b"), bad), "tail.b: "


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
                                    _tamper_lifting_gamma, _tamper_lifting_tail,
                                    _tamper_nehari_h],
                         ids=["lifting_a", "nehari_tap", "lifting_gamma", "lifting_tail",
                              "nehari_h"])
def test_malformed_matrix_entry_exits_2(tmp_path, capsys, tamper, bad):
    argv, where = tamper(tmp_path, capsys, bad)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and where in err


def _packed_payload(m, entries) -> dict:
    """The packed matrix object m with the payload of `entries`."""
    return dict(m, b64=base64.b64encode(np.asarray(entries, "<c16").tobytes()).decode())


def _size(m) -> int:
    return m["rows"] * m["cols"]


# packed twins of the pair refusals: (spoiled packed matrix object, the
# reader's complaint)
PACKED_SPOILS = {
    "nan": (lambda m: _packed_payload(m, [complex(np.nan, 0.0)] * _size(m)), "non-finite"),
    "inf": (lambda m: _packed_payload(m, [complex(0.0, np.inf)] * _size(m)), "non-finite"),
    "short": (lambda m: _packed_payload(m, [0.0] * (_size(m) - 1)), "payload bytes"),
    "long": (lambda m: _packed_payload(m, [0.0] * (_size(m) + 1)), "payload bytes"),
    "bad_base64": (lambda m: dict(m, b64="*" + m["b64"][1:]), "not base64"),
    "non_string": (lambda m: dict(m, b64=[[0.0, 0.0]] * _size(m)), "must be a string"),
    "both_keys": (lambda m: dict(m, data=as_pairs(dict(m))["data"]), "exactly one of"),
}


@pytest.mark.parametrize("spoil", sorted(PACKED_SPOILS))
@pytest.mark.parametrize("target", ["instance", "parameter", "solution"])
def test_malformed_packed_matrix_exits_2(tmp_path, capsys, spoil, target):
    inst, sol, _ = _solved_lifting(tmp_path, capsys)
    param = tmp_path / "v.json"
    serialize.dump_json(str(param), serialize.parameter_to_json(
        schur.random_schur(*_parameter_dims(inst), 3, 8)))
    path, key, argv = {
        "instance": (inst, "a", ["validate", str(inst)]),
        "parameter": (param, "a", ["solve", str(inst), "--param", str(param)]),
        "solution": (sol, "a_part", ["verify", str(inst), str(sol)]),
    }[target]
    doc = json.loads(path.read_text())
    spoiled, complaint = PACKED_SPOILS[spoil]
    doc[key] = spoiled(doc[key])
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key}: ") and complaint in err


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


def _first_entry(text: bytes, entry: bytes) -> bytes:
    """The file text, its matrices re-spelled as pairs, with the first
    [re, im] pair of its first matrix replaced."""
    text = serialize.canonical_json(as_pairs(json.loads(text))).encode()
    head, sep, tail = text.partition(b'"data":[[')
    assert sep
    return head + b'"data":[' + entry + tail[tail.index(b"]") + 1:]


@pytest.mark.parametrize("spoil", [
    lambda t: _first_entry(t, b"[NaN,0.0]"),
    lambda t: _first_entry(t, b"[0.0,Infinity]"),
    lambda t: _first_entry(t, b"[-Infinity,0.0]"),
    lambda t: _first_entry(t, b"[1e400,0.0]"),
    lambda t: b"\xef\xbb\xbf" + t,
    lambda t: _first_entry(t, b'["\xff",0.0]'),
], ids=["nan", "infinity", "minus_infinity", "overflow", "bom", "non_utf8"])
@pytest.mark.parametrize("target", ["instance", "parameter", "solution"])
def test_unreadable_json_exits_2_naming_the_file(tmp_path, capsys, spoil, target):
    # a file that is not strict JSON in UTF-8 is refused at load, by every
    # reading command, as an I/O error naming the file
    inst, sol, _ = _solved_lifting(tmp_path, capsys)
    param = tmp_path / "v.json"
    serialize.dump_json(str(param), serialize.parameter_to_json(
        schur.random_schur(*_parameter_dims(inst), 2, 8)))
    argv, path = {
        "instance": (["validate", str(inst)], inst),
        "parameter": (["solve", str(inst), "--param", str(param)], param),
        "solution": (["verify", str(inst), str(sol)], sol),
    }[target]
    path.write_bytes(spoil(path.read_bytes()))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {path}: ")


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


def _solved_lifting(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(capsys, "gen", "--kind", "generic", "--dims", "4,3,2", "--seed", "2",
        "--norm", "0.75", "--out", str(inst))
    code, _, _ = run(capsys, "solve", str(inst), "--central", "--degree", "3", "--out", str(sol))
    assert code == 0
    return inst, sol, json.loads(sol.read_text())


def _scale_matrix(obj, factor):
    obj["data"] = [[factor * re, factor * im] for re, im in as_pairs(obj)["data"]]


def test_solve_writes_a_certified_realization(tmp_path, capsys):
    inst, sol, doc = _solved_lifting(tmp_path, capsys)
    assert len(doc["gamma"]) == 1 and set(doc["tail"]) == {"a", "b", "c"}
    assert doc["report"]["certificate"] == "certified"
    code, out, _ = run(capsys, "verify", str(inst), str(sol))
    report = json.loads(out)
    assert code == 0 and report["certificate"] == "certified"
    assert report["residuals"] == doc["report"]["residuals"]


def _forge_gamma0(doc):
    _scale_matrix(doc["gamma"][0], 1.5)


def _forge_c(doc):
    # scale C tenfold until the first nonzero Markov coefficient C A^k B of
    # the tail has norm >= 2; it is one block of the stacked solution, so
    # the stacked norm is past a contraction whatever the instance
    a, b, c = (serialize.matrix_from_json(doc["tail"][k]) for k in "abc")
    first = next(m for m in markov(a, b, c, a.shape[0]) if np.linalg.norm(m) > 1e-12)
    factor = 10.0
    while factor * np.linalg.norm(first, 2) < 2.0:
        factor *= 10.0
    _scale_matrix(doc["tail"]["c"], factor)


def _forge_unstable_a(doc):
    _scale_matrix(doc["tail"]["a"], 50.0)


def _forge_no_tail(doc):
    del doc["tail"]


def _pad_unobservable(doc):
    # two stable states that C does not see, with rows of B near 1e20: the
    # function is unchanged, but the roundoff bound of the Gramian grows
    # with B past every threshold
    tail = {k: serialize.matrix_from_json(v) for k, v in doc["tail"].items()}
    n, extra = tail["a"].shape[0], 2
    a = np.zeros((n + extra, n + extra), complex)
    a[:n, :n], a[n:, n:] = tail["a"], 0.5 * np.eye(extra)
    b = np.vstack([tail["b"], np.full((extra, tail["b"].shape[1]), 1e20)])
    c = np.hstack([tail["c"], np.zeros((tail["c"].shape[0], extra))])
    doc["tail"] = {k: serialize.matrix_to_json(m) for k, m in zip("abc", (a, b, c))}


def _forge_padded_gamma0(doc):
    _pad_unobservable(doc)
    _forge_gamma0(doc)


def _forge_huge_gamma0(doc):
    _scale_matrix(doc["gamma"][0], 1e200)


@pytest.mark.parametrize("forge, expect", [
    (_forge_gamma0, "refuted"),
    (_forge_c, "refuted"),
    (_forge_unstable_a, "not certified"),
    (_forge_no_tail, "uncertified"),
    (_pad_unobservable, "uncertified"),
    (_forge_padded_gamma0, "refuted"),
    (_forge_huge_gamma0, "refuted"),
], ids=["gamma0_scaled", "c_scaled", "unstable_a", "no_tail", "padded", "padded_gamma0_scaled",
        "gamma0_overflows_gram"])
def test_verify_forged_realization(tmp_path, capsys, forge, expect):
    inst, sol, doc = _solved_lifting(tmp_path, capsys)
    forge(doc)
    sol.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(inst), str(sol), "--degree", "16")
    report = json.loads(out)
    status = report["certificate"]
    assert code == (1 if status == "refuted" else 0)
    assert report["passed"] is (code == 0)
    if expect == "not certified":
        assert status != "certified"
    else:
        assert status == expect
    for row in report["residuals"]:
        assert row["value"] is None or row["lower"] <= row["value"]
    if forge is _forge_c:
        # pushed past a contraction, not only off the intertwining
        row = next(r for r in report["residuals"] if r["name"] == "stacked_norm")
        assert row["value"] > row["threshold"] and not row["passed"]


def test_verify_overflowing_tail_exits_1(tmp_path, capsys):
    # an unstable tail whose expansion to --degree overflows floating point
    # cannot be checked: a clean error, not a traceback or a pass
    inst, sol, doc = _solved_lifting(tmp_path, capsys)
    _scale_matrix(doc["tail"]["a"], 1e3)
    sol.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(inst), str(sol), "--degree", "200")
    assert code == 1 and out == ""
    assert "overflow" in err


def _parameter_dims(inst):
    ds = serialize.instance_from_json(serialize.load_json(str(inst)))
    rc = redheffer.build_coefficients(lifting.derive(ds))
    return rc.kq_dim, rc.w_dim


@pytest.mark.parametrize("form", ["zero", "constant", "written_zero", "written_constant"])
def test_zero_state_parameters_solve_certified(tmp_path, capsys, form):
    # zero and constant parameters are systems with state dimension 0, in
    # the old wire forms and in the one form the writer emits; they run
    # through the same closed loop and exact check as any other parameter
    inst, _, _ = _solved_lifting(tmp_path, capsys)
    kq, w = _parameter_dims(inst)
    const = 0.5 * np.eye(w, kq)
    doc = {
        "zero": {"variant": "zero", "in_dim": kq, "out_dim": w},
        "constant": {"variant": "constant", "matrix": serialize.matrix_to_json(const)},
        "written_zero": serialize.parameter_to_json(schur.zero(kq, w)),
        "written_constant": serialize.parameter_to_json(schur.constant(const)),
    }[form]
    param, sol = tmp_path / "v.json", tmp_path / "sol_v.json"
    serialize.dump_json(str(param), doc)
    code, _, _ = run(capsys, "solve", str(inst), "--param", str(param), "--out", str(sol))
    assert code == 0
    assert json.loads(sol.read_text())["report"]["certificate"] == "certified"
    code, out, _ = run(capsys, "verify", str(inst), str(sol))
    assert code == 0 and json.loads(out)["certificate"] == "certified"


@pytest.mark.parametrize("variant", ["constant", "transfer"])
@pytest.mark.parametrize("excess, expect_code", [(5e-11, 0), (5e-10, 2)])
def test_parameter_contraction_gate(tmp_path, capsys, variant, excess, expect_code):
    # one gate, ||[[A, B], [C, D]]|| <= 1 + 1e-10, for every parameter: a
    # constant or a transfer system of norm 1 + 5e-10 exits 2
    inst, _, _ = _solved_lifting(tmp_path, capsys)
    kq, w = _parameter_dims(inst)
    if variant == "constant":
        doc = {"variant": "constant",
               "matrix": serialize.matrix_to_json((1.0 + excess) * np.eye(w, kq))}
    else:
        v = schur.random_schur(kq, w, 2, 8)
        scale = (1.0 + excess) / np.linalg.norm(v.system_matrix(), 2)
        doc = {"variant": "transfer",
               **{k: serialize.matrix_to_json(scale * getattr(v, k)) for k in "abcd"}}
    param = tmp_path / "v.json"
    serialize.dump_json(str(param), doc)
    code, _, err = run(capsys, "solve", str(inst), "--param", str(param))
    assert code == expect_code
    if expect_code == 2:
        assert "contraction" in err
