import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclift import generators, nehari, schur, serialize
from rclift.errors import ParseError
from rclift.hardy import SolutionTaylor, TaylorSeries


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


def test_random_parameter_variant():
    v = serialize.parameter_from_json(
        {"variant": "random", "in_dim": 2, "out_dim": 3, "state_dim": 2, "seed": 4}
    )
    w = schur.random_schur(2, 3, 2, 4)
    np.testing.assert_allclose(v.system.system_matrix(), w.system.system_matrix())


def test_solution_roundtrips():
    h = TaylorSeries((np.array([[0.1 + 0.2j]]), np.array([[0.0]])))
    doc = serialize.nehari_solution_to_json(h, 0.5, {"passed": True})
    back = serialize.nehari_solution_from_json(doc, 1, 1)
    np.testing.assert_allclose(back.coeffs[0], h.coeffs[0])

    sol = SolutionTaylor(a_part=np.array([[0.2]]), gamma_coeffs=(np.array([[0.1]]),))
    doc2 = serialize.lifting_solution_to_json(sol, {"passed": True})
    back2 = serialize.lifting_solution_from_json(doc2)
    np.testing.assert_allclose(back2.a_part, sol.a_part)


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
])
def test_malformed_instances_raise(bad):
    with pytest.raises(ParseError):
        serialize.instance_from_json(bad)


@pytest.mark.parametrize("field, value", [
    ("rows", 1.9), ("rows", 1.0), ("rows", True), ("rows", "1"), ("cols", True), ("cols", 1.0),
])
def test_matrix_dims_must_be_json_integers(field, value):
    # int() would truncate 1.9 and read true as 1
    obj = {"rows": 1, "cols": 1, "data": [[0.5, 0.0]]}
    obj[field] = value
    with pytest.raises(ParseError, match=f"{field} must be an integer"):
        serialize.matrix_from_json(obj, "m")


@pytest.mark.parametrize("entry", [["0.5", True], ["0.5", 0.0], [0.5, True], [False, 0.0]])
def test_matrix_entries_must_be_json_numbers(entry):
    # a float conversion would read ["0.5", true] as 0.5+1j
    with pytest.raises(ParseError, match="entries are not"):
        serialize.matrix_from_json({"rows": 1, "cols": 1, "data": [entry]}, "m")


@pytest.mark.parametrize("key", ["in_dim", "seed"])
def test_random_parameter_fields_must_be_json_integers(key):
    doc = {"variant": "random", "in_dim": 1, "out_dim": 2, "state_dim": 2, "seed": 3}
    doc[key] = 1.0
    with pytest.raises(ParseError, match=f"{key} must be an integer"):
        serialize.parameter_from_json(doc)


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
def test_canonical_json_matches_former_canonizer(doc):
    assert serialize.canonical_json(doc) == _former_canonical_json(doc)


@pytest.mark.parametrize("bad", [1j, np.zeros(2), np.bool_(True), {"v": [math.nan, object()]}])
def test_canonical_json_rejects_unsupported_values(bad):
    with pytest.raises(TypeError):
        _former_canonical_json(bad)
    with pytest.raises(TypeError):
        serialize.canonical_json(bad)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 3)])
def test_matrix_codec_round_trip_is_bit_exact(shape):
    rng = np.random.default_rng(11)
    parts = rng.integers(0, 2**64, size=shape + (2,), dtype=np.uint64).view(float)
    parts[~np.isfinite(parts)] = -0.0
    if parts.size:
        parts.flat[:4] = [-0.0, 5e-324, -2.5e-310, 0.0][: parts.size]
    m = parts.view(complex)[..., 0]
    text = serialize.canonical_json(serialize.matrix_to_json(m))
    back = serialize.matrix_from_json(json.loads(text))
    assert back.shape == shape and back.dtype == complex
    assert back.tobytes() == np.ascontiguousarray(m).tobytes()
