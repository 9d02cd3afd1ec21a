import base64
import copy
import itertools
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from wire import as_pairs

from rclift import cli, generators, lifting, nehari, redheffer, schur, serialize
from rclift.errors import ParseError
from rclift.hardy import SolutionRealization, SolutionTaylor
from rclift.linalg import ginibre


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    back = serialize.matrix_from_json(serialize.matrix_to_json(m))
    np.testing.assert_allclose(back, m)


def test_lifting_instance_roundtrip():
    ds = generators.generate_random("generic", (4, 3, 2), 0.7, 5)
    back = serialize.instance_from_json(serialize.instance_to_json(ds))
    for field in ("a", "t_prime", "r", "q"):
        np.testing.assert_allclose(getattr(back, field), getattr(ds, field))


def test_nehari_instance_roundtrip():
    p = nehari.NehariProblem(
        2, 2, 1, (np.array([[0.1, 0.2]]), np.array([[0.0, -0.3j]]))
    )
    back = serialize.instance_from_json(serialize.instance_to_json(p))
    assert back.n_window == 2 and back.u_dim == 2 and back.y_dim == 1
    for a, b in zip(back.taps, p.taps):
        np.testing.assert_allclose(a, b)


@pytest.mark.parametrize("maker", [
    lambda: schur.zero(2, 3),
    lambda: schur.constant(np.array([[0.3, 0.1j], [0.0, 0.5]])),
    lambda: schur.random_schur(2, 2, 3, 9),
])
def test_parameter_roundtrip(maker):
    v = maker()
    back = serialize.parameter_from_json(serialize.parameter_to_json(v))
    assert (back.in_dim, back.out_dim) == (v.in_dim, v.out_dim)
    for lam in (0.0, 0.4j, -0.6):
        np.testing.assert_allclose(schur.eval(back, lam), schur.eval(v, lam))


WIRE_POINTS = (0.0, 0.4j, -0.6 + 0.2j)
_M = serialize.matrix_to_json
# (document, its values at WIRE_POINTS as the per-variant readers gave them)
WIRE_CASES = {
    "zero": ({"variant": "zero", "in_dim": 1, "out_dim": 2}, [[[0.0], [0.0]]] * 3),
    "constant": ({"variant": "constant", "matrix": _M(np.array([[0.3], [-0.4j]]))},
                 [[[0.3], [-0.4j]]] * 3),
    # d + lam c b / (1 - 0.5 lam) with c b = [0.3; 0.15j] and d = [0.2; 0]
    "transfer": ({"variant": "transfer", "a": _M(np.array([[0.5]])),
                  "b": _M(np.array([[0.5]])), "c": _M(np.array([[0.6], [0.3j]])),
                  "d": _M(np.array([[0.2], [0.0]]))},
                 [[[0.2 + 0.3 * z / (1 - 0.5 * z)], [0.15j * z / (1 - 0.5 * z)]]
                  for z in WIRE_POINTS]),
    "random": ({"variant": "random", "in_dim": 1, "out_dim": 2, "state_dim": 2, "seed": 3},
               [[[-0.17575998638271068 + 0.004928104930963984j],
                 [-0.07163366494464328 - 0.10263251692171141j]],
                [[-0.21765512719294075 + 0.002776461902140513j],
                 [-0.029255350864156142 - 0.04827419357159838j]],
                [[-0.19714997030017456 - 0.050402353370282614j],
                 [-0.11759561715682786 - 0.016025041646565943j]]]),
}


@pytest.mark.parametrize("variant", sorted(WIRE_CASES))
def test_parameter_wire_compatibility(variant):
    # every variant an older writer emitted still reads, with the same
    # values; the writer emits the one transfer form, which reads back to
    # the same function
    doc, values = WIRE_CASES[variant]
    v = serialize.parameter_from_json(doc)
    written = serialize.parameter_to_json(v)
    assert written["variant"] == "transfer" and set(written) == {"variant", "a", "b", "c", "d"}
    back = serialize.parameter_from_json(json.loads(serialize.canonical_json(written)))
    for lam, expected in zip(WIRE_POINTS, values):
        np.testing.assert_allclose(schur.eval(v, lam), expected, rtol=1e-15, atol=1e-17)
        assert np.array_equal(schur.eval(back, lam), schur.eval(v, lam))


def test_random_parameter_variant():
    v = serialize.parameter_from_json(
        {"variant": "random", "in_dim": 2, "out_dim": 3, "state_dim": 2, "seed": 4}
    )
    w = schur.random_schur(2, 3, 2, 4)
    np.testing.assert_allclose(v.system_matrix(), w.system_matrix())


def test_solution_roundtrips():
    h = np.array([[[0.1 + 0.2j]], [[0.0]]])
    doc = serialize.nehari_solution_to_json(h, 0.5, {"passed": True})
    back = serialize.nehari_solution_from_json(doc, 1, 1)
    assert np.array_equal(back, h)

    sol = SolutionTaylor(a_part=np.array([[0.2]]), gamma_coeffs=np.array([[[0.1]]]))
    doc2 = serialize.lifting_solution_to_json(sol, {"passed": True})
    assert "tail" not in doc2
    back2 = serialize.lifting_solution_from_json(doc2)
    np.testing.assert_allclose(back2.a_part, sol.a_part)


def test_realization_solution_roundtrips():
    rng = np.random.default_rng(2)
    real = SolutionRealization(
        a_part=ginibre(rng, 2, 3), gamma_coeffs=ginibre(rng, 4, 3)[None],
        a=ginibre(rng, 5, 5), b=ginibre(rng, 5, 3), c=ginibre(rng, 4, 5),
    )
    doc = json.loads(serialize.canonical_json(serialize.lifting_solution_to_json(real, {})))
    assert set(doc["tail"]) == {"a", "b", "c"}
    back = serialize.lifting_solution_from_json(doc)
    assert isinstance(back, SolutionRealization)
    for name in ("a_part", "a", "b", "c"):
        assert np.array_equal(getattr(back, name), getattr(real, name))
    assert np.array_equal(back.gamma_coeffs, real.gamma_coeffs)


# exit code of `rclift verify` on each coefficient-list case of the readers
READER_CASES = {
    "gamma_empty": 2,  # no coefficient and no tail: nothing to check
    "gamma_empty_with_tail": 0,  # m = 0, the tail is the whole function
    "gamma_ragged": 2,
    "gamma_ragged_with_tail": 2,
    "h_empty": 2,
}


def _reader_documents(case):
    """(instance document, solution document) of one reader case."""
    if case == "h_empty":
        p = nehari.NehariProblem(2, 1, 1, (np.array([[0.5]]),))
        return serialize.instance_to_json(p), {"kind": "nehari_solution", "H": []}
    ds = generators.generate_random("generic", (5, 4, 3), 0.8, 1)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    central = redheffer.solution_realization(rc, schur.zero(rc.kq_dim, rc.w_dim))
    a, c, e = central.a, central.c, rc.e  # the parameter has no state, so E_cl = E
    # the central solution C (I - lam A)^-1 E with no listed coefficient
    empty = np.zeros((0, c.shape[0], e.shape[1]), complex)
    doc = serialize.lifting_solution_to_json(SolutionRealization(ds.a, empty, a, e, c), {})
    if case.startswith("gamma_ragged"):
        doc["gamma"] = [serialize.matrix_to_json(m) for m in (c @ e, (c @ e)[:-1])]
    if not case.endswith("with_tail"):
        del doc["tail"]
    return serialize.instance_to_json(ds), doc


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_coefficient_list_readers(tmp_path, capsys, case):
    inst, doc = _reader_documents(case)
    paths = [str(tmp_path / "inst.json"), str(tmp_path / "sol.json")]
    serialize.dump_json(paths[0], inst)
    serialize.dump_json(paths[1], doc)
    code = cli.main(["verify", *paths])
    out, err = capsys.readouterr()
    assert code == READER_CASES[case], err
    if code:
        assert err.startswith("error: ")
        with pytest.raises(ParseError):
            if case == "h_empty":
                serialize.nehari_solution_from_json(doc, 1, 1)
            else:
                serialize.lifting_solution_from_json(doc)
    else:
        assert json.loads(out)["certificate"] == "certified"
        sol = serialize.lifting_solution_from_json(doc)
        assert sol.gamma_coeffs.shape == (0, sol.c.shape[0], sol.a_part.shape[1])


@pytest.mark.parametrize("tail", [[], "abc", {"a": {}, "b": {}}], ids=["list", "string", "short"])
def test_malformed_tail_raises(tail):
    doc = serialize.lifting_solution_to_json(
        SolutionTaylor(a_part=np.array([[0.2]]), gamma_coeffs=np.array([[[0.1]]])), {}
    )
    doc["tail"] = tail
    with pytest.raises(ParseError):
        serialize.lifting_solution_from_json(doc)


NON_FINITE = (math.nan, math.inf)
_HALF = _M(np.array([[0.5]]))
LIFTING_DOC = {"kind": "lifting", "a": _HALF, "t_prime": _HALF, "r": _HALF, "q": _HALF}
NEHARI_DOC = {"kind": "nehari", "N": 1, "u_dim": 1, "y_dim": 1, "taps": [[[0.5, 0.0]]]}


def _poisoned(doc, path, bad):
    """A copy of doc with the real part of the first entry of the matrix at
    `path` (a matrix object, re-spelled as pairs, or a bare pair list) set
    to `bad`; such a value reaches a reader only through a Python dict, as
    JSON cannot spell it."""
    doc = copy.deepcopy(doc)
    m = doc
    for key in path:
        m = m[key]
    (as_pairs(m)["data"] if isinstance(m, dict) else m)[0] = [bad, 0.0]
    return doc


@pytest.mark.parametrize("bad", [
    {"no_kind": 1},
    {"kind": "unknown"},
    {"kind": "lifting", "a": {"rows": 1, "cols": 1, "data": [[0.0]]}},
    {"kind": "nehari", "N": 1, "u_dim": 1, "y_dim": 1, "taps": [[[1.0, 0.0], [2.0, 0.0]]]},
    {"kind": "lifting", "a": {"rows": 1, "cols": 1, "data": [[[1.0, 0.0]]]}},
    {"kind": "lifting", "a": {"rows": "x", "cols": 1, "data": [[1.0, 0.0]]}},
    {"kind": "lifting", "a": {"rows": 1, "cols": 1, "data": [[10**400, 0.0]]}},
    {"kind": "nehari", "N": 1, "u_dim": 1, "y_dim": 1, "taps": [[[float("nan"), 0.0]]]},
    {"kind": "nehari", "N": 2.0, "u_dim": 1, "y_dim": 1, "taps": []},
    {"kind": "nehari", "N": 1, "u_dim": True, "y_dim": 1, "taps": [[[0.5, 0.0]]]},
    # the reader is the one NaN/Inf gate of an instance's matrices
    *(_poisoned(LIFTING_DOC, (field,), bad)
      for field, bad in itertools.product(("a", "t_prime", "r", "q"), NON_FINITE)),
    *(_poisoned(NEHARI_DOC, ("taps", 0), bad) for bad in NON_FINITE),
])
def test_malformed_instances_raise(bad):
    with pytest.raises(ParseError):
        serialize.instance_from_json(bad)


@pytest.mark.parametrize("bad", [
    _poisoned(WIRE_CASES[variant][0], (field,), bad)
    for (variant, field), bad in itertools.product(
        [("constant", "matrix"), *(("transfer", k) for k in "abcd")], NON_FINITE)
])
def test_malformed_parameters_raise(bad):
    # the reader is the one NaN/Inf gate of a parameter's matrices
    with pytest.raises(ParseError, match="non-finite"):
        serialize.parameter_from_json(bad)


_REALIZATION_DOC = serialize.lifting_solution_to_json(SolutionRealization(
    a_part=np.array([[0.2]]), gamma_coeffs=np.array([[[0.1]]]),
    a=np.array([[0.5]]), b=np.array([[0.5]]), c=np.array([[0.5]])), {})


@pytest.mark.parametrize("path, bad", itertools.product(
    [("a_part",), ("gamma", 0), ("tail", "a"), ("tail", "b"), ("tail", "c"), ("H", 0)],
    NON_FINITE))
def test_malformed_solutions_raise(path, bad):
    # the readers are the one NaN/Inf gate of a solution's matrices
    with pytest.raises(ParseError, match="non-finite"):
        if path[0] == "H":
            doc = {"kind": "nehari_solution", "H": [[[0.1, 0.0]]]}
            serialize.nehari_solution_from_json(_poisoned(doc, path, bad), 1, 1)
        else:
            serialize.lifting_solution_from_json(_poisoned(_REALIZATION_DOC, path, bad))


@pytest.mark.parametrize("field, value", [
    ("rows", 1.9), ("rows", 1.0), ("rows", True), ("rows", "1"), ("cols", True), ("cols", 1.0),
])
def test_matrix_dims_must_be_json_integers(field, value):
    # int() would truncate 1.9 and read true as 1
    obj = {"rows": 1, "cols": 1, "data": [[0.5, 0.0]]}
    obj[field] = value
    with pytest.raises(ParseError, match=f"{field} must be an integer"):
        serialize.matrix_from_json(obj, "m")


@pytest.mark.parametrize("entry", [
    ["0.5", True], ["0.5", 0.0], [0.5, True], [False, 0.0],
    [0.5], [0.5, 0.0, 1.0], 0.5, "ab", {"re": 0.5, "im": 0.0},
])
def test_matrix_entries_must_be_json_numbers(entry):
    # a float conversion would read ["0.5", true] as 0.5+1j, and a counted
    # flat read would truncate [0.5, 0.0, 1.0] to its first pair
    with pytest.raises(ParseError, match="entries are not"):
        serialize.matrix_from_json({"rows": 1, "cols": 1, "data": [entry]}, "m")


@pytest.mark.parametrize("key", ["in_dim", "seed"])
def test_random_parameter_fields_must_be_json_integers(key):
    doc = {"variant": "random", "in_dim": 1, "out_dim": 2, "state_dim": 2, "seed": 3}
    doc[key] = 1.0
    with pytest.raises(ParseError, match=f"{key} must be an integer"):
        serialize.parameter_from_json(doc)


def test_integer_past_64_bits_reads_as_float(tmp_path):
    # the codec holds 64-bit integers; a wider literal reads as a float,
    # which an integer field refuses
    path = tmp_path / "v.json"
    path.write_text('{"variant":"random","in_dim":1,"out_dim":2,"state_dim":1,'
                    '"seed":18446744073709551616}')
    with pytest.raises(ParseError, match="seed must be an integer, not float"):
        serialize.parameter_from_json(serialize.load_json(str(path)))


def test_canonical_json_deterministic_and_sorted():
    doc = {"b": 1.0 / 3.0, "a": [1, 2.5e-17], "c": {"y": True, "x": None}}
    one = serialize.canonical_json(doc)
    two = serialize.canonical_json(json.loads(one))
    assert one == two
    assert one.index('"a"') < one.index('"b"') < one.index('"c"')


def test_canonical_json_drops_nonfinite():
    assert json.loads(serialize.canonical_json({"v": float("inf")}))["v"] is None


def _former_canonize(obj):
    """The former canonizer, kept as the oracle: a full copy of the document
    with every float re-read from its 17-significant-digit form."""
    if isinstance(obj, dict):
        return {str(k): _former_canonize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_former_canonize(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f) or math.isinf(f):
            return None
        return float(f"{f:.17g}")
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot canonize {type(obj).__name__}")


def _former_canonical_json(obj):
    return json.dumps(_former_canonize(obj), sort_keys=True, separators=(",", ":")) + "\n"


# In the former text: a JSON string, or a number in exponent form
# (Python's repr writes one digit before the point there).
_FORMER_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(-?)(\d)(?:\.(\d+))?e([+-]\d+)')
_ESCAPE = re.compile(r"\\\\|(?:\\u[0-9a-f]{4})+")


def _unescape_wide(match):
    """A run of \\u escapes with every character from U+007F up written as itself."""
    if match[0] == "\\\\":
        return match[0]
    chars = json.loads(f'"{match[0]}"')
    return "".join(c if ord(c) >= 0x7F else json.dumps(c)[1:-1] for c in chars)


def _respell(match):
    if match[0].startswith('"'):
        return _ESCAPE.sub(_unescape_wide, match[0])
    sign, lead, frac, exp = match.groups()
    if int(exp) == -5:
        return f"{sign}0.0000{lead}{frac or ''}"
    return f"{sign}{lead}{'.' + frac if frac else ''}e{int(exp)}"


def _respelled(former: str) -> str:
    """The former canonical text in the documented spelling of `serialize`:
    exponents without `+` or zero pad, the floats of exponent -5 written
    positionally, and characters from U+007F up unescaped."""
    return _FORMER_TOKEN.sub(_respell, former)


def _has_wide_int(obj) -> bool:
    """Whether a leaf integer of obj lies outside [-2**63, 2**64)."""
    if isinstance(obj, dict):
        return any(map(_has_wide_int, obj.values()))
    if isinstance(obj, (list, tuple)):
        return any(map(_has_wide_int, obj))
    return type(obj) is int and not -(2**63) <= obj < 2**64


@pytest.mark.parametrize(
    "doc, text",
    [([1e-05, -1.5e-05, 9.87e-05, 1e-07, 1e16, -2.5e300, 5e-324, 1e-4, 1e15, 0.0, -0.0],
      "[0.00001,-0.000015,0.0000987,1e-7,1e16,-2.5e300,5e-324,0.0001,1000000000000000.0,"
      "0.0,-0.0]"),
     ({"1e+16": "é\\u00e9\x1f\x7f\U0001f600"}, '{"1e+16":"é\\\\u00e9\\u001f\x7f\U0001f600"}')],
    ids=["numbers", "strings"],
)
def test_canonical_spelling(doc, text):
    assert serialize.canonical_json(doc) == text + "\n"
    assert _respelled(_former_canonical_json(doc)) == text + "\n"


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _single(bits):
    return np.frombuffer(struct.pack("<I", bits), dtype=np.float32)[0]


_DOUBLES = st.integers(0, 2**64 - 1).map(_double)
_SPECIAL = st.sampled_from(
    [0.0, -0.0, 0.1, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     math.inf, -math.inf, math.nan]
)
_LEAVES = st.one_of(
    _DOUBLES,
    _SPECIAL,
    _DOUBLES.map(np.float64),
    _SPECIAL.map(np.float64),
    st.integers(0, 2**32 - 1).map(_single),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=_DOCUMENTS)
@example(doc=[2**64 - 1, -(2**63)])
@example(doc={"v": [2**64]})
@example(doc=-(2**63) - 1)
def test_canonical_json_matches_former_canonizer(doc):
    # the same digits as the former stdlib text, in the documented spelling
    if _has_wide_int(doc):
        with pytest.raises(TypeError):
            serialize.canonical_json(doc)
    else:
        assert serialize.canonical_json(doc) == _respelled(_former_canonical_json(doc))


@pytest.mark.parametrize("bad", [1j, np.zeros(2), np.bool_(True), {"v": [math.nan, object()]}])
def test_canonical_json_rejects_unsupported_values(bad):
    with pytest.raises(TypeError):
        _former_canonical_json(bad)
    with pytest.raises(TypeError):
        serialize.canonical_json(bad)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 3), (64, 64)])
def test_matrix_codec_round_trip_is_bit_exact(tmp_path, shape):
    rng = np.random.default_rng(11)
    parts = rng.integers(0, 2**64, size=shape + (2,), dtype=np.uint64).view(float)
    parts[~np.isfinite(parts)] = -0.0
    edges = [-0.0, 5e-324, -2.5e-310, 0.0, 1.5e-05, 9.999999999999998e15, 1e308, -1e308]
    parts.flat[: len(edges)] = edges[: parts.size]
    m = parts.view(complex)[..., 0]
    # through the file codec, in both spellings: orjson's reader must
    # return the very doubles its writer spelled, and the packed payload
    # the very bytes
    for writer in (serialize.matrix_to_json, serialize.decimal_matrix_to_json):
        serialize.dump_json(str(tmp_path / "m.json"), writer(m))
        back = serialize.matrix_from_json(serialize.load_json(str(tmp_path / "m.json")))
        assert back.shape == shape and back.dtype == complex
        assert back.tobytes() == np.ascontiguousarray(m).tobytes()


def test_packed_payload_is_little_endian_complex128_in_base64():
    m = np.array([[complex(1.0, -0.0), 5e-324j]])
    doc = serialize.matrix_to_json(m)
    assert set(doc) == {"rows", "cols", "b64"} and (doc["rows"], doc["cols"]) == (1, 2)
    assert doc["b64"] == base64.b64encode(struct.pack("<4d", 1.0, -0.0, 0.0, 5e-324)).decode()


def _documents(spell):
    """Every kind of document the writer makes, with `spell` applied to it."""
    ds = generators.generate_random("generic", (5, 4, 3), 0.8, 1)
    rc = redheffer.build_coefficients(lifting.derive(ds))
    v = schur.random_schur(rc.kq_dim, rc.w_dim, 2, 5)
    p = generators.random_nehari_problem(np.random.default_rng(3), 2, 1, 3, 2, 0.8)
    nc = nehari.coefficients(p)
    h = redheffer.solution_taylor(nc, schur.zero(nc.kq_dim, nc.w_dim), 3).gamma_coeffs
    docs = {
        "lifting": serialize.instance_to_json(ds),
        "nehari": serialize.instance_to_json(p),
        "parameter": serialize.parameter_to_json(v),
        "lifting_solution": serialize.lifting_solution_to_json(
            redheffer.solution_realization(rc, v), {}),
        "nehari_solution": serialize.nehari_solution_to_json(h, 0.5, {}),
    }
    return {k: json.loads(serialize.canonical_json(spell(d))) for k, d in docs.items()}


def _read(kind, doc):
    if kind in ("lifting", "nehari"):
        obj = serialize.instance_from_json(doc)
        fields = ("a", "t_prime", "r", "q") if kind == "lifting" else ("taps",)
    elif kind == "parameter":
        obj, fields = serialize.parameter_from_json(doc), serialize.PARAMETER_KEYS
    elif kind == "lifting_solution":
        obj = serialize.lifting_solution_from_json(doc)
        fields = ("a_part", "gamma_coeffs", *serialize.TAIL_KEYS)
    else:
        return [serialize.nehari_solution_from_json(doc, 2, 1)]
    return [np.asarray(getattr(obj, f)) for f in fields]


def test_writer_packs_all_but_the_coefficient_lists():
    docs = _documents(lambda d: d)
    packed = {"rows", "cols", "b64"}
    assert all(set(docs["lifting"][k]) == packed for k in ("a", "t_prime", "r", "q"))
    assert all(set(docs["parameter"][k]) == packed for k in serialize.PARAMETER_KEYS)
    sol = docs["lifting_solution"]
    assert set(sol["a_part"]) == packed
    assert all(set(sol["tail"][k]) == packed for k in serialize.TAIL_KEYS)
    # the coefficients a person reads stay decimal
    assert all(set(g) == {"rows", "cols", "data"} for g in sol["gamma"])
    for pairs in (*docs["nehari"]["taps"], *docs["nehari_solution"]["H"]):
        assert all(isinstance(x, float) for pair in pairs for x in pair)


def test_decimal_documents_read_to_the_same_bits():
    # files in the pair spelling, as every earlier writer and hand-written
    # instances spell them, read to the matrices of the packed ones
    packed, decimal = _documents(lambda d: d), _documents(as_pairs)
    assert any(packed[k] != decimal[k] for k in packed)
    for kind in packed:
        for x, y in zip(_read(kind, packed[kind]), _read(kind, decimal[kind]), strict=True):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _packed(entries, rows=1, cols=1):
    payload = np.asarray(entries, "<c16").tobytes()
    return {"rows": rows, "cols": cols, "b64": base64.b64encode(payload).decode()}


PACKED_REFUSALS = {
    "nan": (_packed([complex(math.nan, 0.0)]), "non-finite"),
    "inf": (_packed([complex(0.0, -math.inf)]), "non-finite"),
    "short": (_packed([0.5, 0.5], rows=1, cols=3), "need 48 payload bytes, got 32"),
    "long": (_packed([0.5, 0.5], rows=1, cols=1), "need 16 payload bytes, got 32"),
    "bad_character": (dict(_packed([0.5]), b64="AAAA*AAAAAAAAAAAAAAAAAAAAAA="), "not base64"),
    "bad_padding": (dict(_packed([0.5]), b64="AAAAAAAAAAAAAAAAAAAAAA"), "not base64"),
    "non_ascii": (dict(_packed([0.5]), b64="AAAAAAAAAAAAAAAAAAAAAAé="), "not base64"),
    "number": (dict(_packed([0.5]), b64=1), "b64 must be a string, not int"),
    "list": (dict(_packed([0.5]), b64=[[0.5, 0.0]]), "b64 must be a string, not list"),
    "null": (dict(_packed([0.5]), b64=None), "b64 must be a string, not NoneType"),
    "both_keys": (dict(_packed([0.5]), data=[[0.5, 0.0]]), "exactly one of data and b64"),
    "neither_key": ({"rows": 1, "cols": 1}, "exactly one of data and b64"),
    "negative_dims": (dict(_packed([0.5]), rows=-1, cols=-1), "negative dimensions"),
    "float_dims": (dict(_packed([0.5]), rows=1.0), "rows must be an integer"),
}


@pytest.mark.parametrize("case", sorted(PACKED_REFUSALS))
def test_malformed_packed_matrices_raise(case):
    bad, message = PACKED_REFUSALS[case]
    with pytest.raises(ParseError, match=message):
        serialize.matrix_from_json(bad, "m")
    # every document reader takes the packed spelling through it
    for read, doc in [(serialize.instance_from_json, dict(LIFTING_DOC, a=bad)),
                      (serialize.parameter_from_json, dict(WIRE_CASES["transfer"][0], b=bad)),
                      (serialize.lifting_solution_from_json, dict(_REALIZATION_DOC, a_part=bad))]:
        with pytest.raises(ParseError, match=message):
            read(doc)
