"""JSON wire formats for instances, parameters, and solutions.

A matrix object {"rows": r, "cols": c, ...} has two spellings of its
row-major entries.  The packed one, {"b64": payload}, is the standard
base64, with padding, of the entries as little-endian complex128 bytes,
16 r c of them.  The decimal one, {"data": [[re, im], ...]}, lists each
complex entry as an [re, im] pair of JSON numbers.  `matrix_from_json`
is the one reader of both; an object holding both keys, a payload that
is not a string of base64 characters or not 16 r c bytes long, negative
dimensions, and NaN/Inf entries are refused.  Both spellings read back
bit for bit what was written.

The writer packs every matrix object but the coefficient lists: the
lifting instance {a, t_prime, r, q}, the parameter {a, b, c, d}, and a
lifting solution's `a_part` and `tail` {a, b, c}.  The coefficients stay
decimal: each `gamma[i]` of a lifting solution is a `data` object, and
Nehari taps and solution coefficients `H` are bare row-major pair lists
whose shape is implied by the problem's port dimensions.  They are what a
person reads, writes by hand and truncates, so they keep a spelling that
can be read and edited; everything else, read only by programs, packs to
about half the bytes and reads and writes several times faster.  The rule
goes by role, not size: Gamma_0 can be as large as `a_part`.  Solution
readers ignore keys they do not use, such as the `tail_bound` that older
solution files carry.

A Schur parameter is written in one form, `{"variant": "transfer", "a",
"b", "c", "d"}`: the matrices of its `hardy.StateSpace`, with a state
dimension of 0 for a zero or constant parameter.  The reader also takes
the variants `zero` {in_dim, out_dim}, `constant` {matrix} and `random`
{in_dim, out_dim, state_dim, seed}.  The transfer and constant variants
pass the contraction gate `schur.contraction_gate`; the zero and random
ones are contractive by construction.

Readers are where data enters the package: they coerce to complex and
refuse NaN/Inf entries, and the containers they fill only check shapes.

A lifting solution holds `a_part` and a list `gamma` of matrix objects
Gamma_0..Gamma_{m-1}, and may hold a `tail` object of matrices {a, b, c}:
its Hardy-space block is then
Gamma(lam) = sum_{k<m} Gamma_k lam^k + lam^m C (I - lam A)^-1 B.
`rclift solve` writes m = 1, the quadruple {A, B, C, D = Gamma_0} of the
closed loop.  A file without `tail` lists the leading Taylor coefficients
of a truncated solution, at least Gamma_0, as a Nehari solution lists at
least H_0.  The readers return a coefficient sequence as one (m, p, q)
array.  Gamma is written in the canonical coordinates
of the defect space D_T' that `linalg.psd_sqrt_and_range` derives from
the instance, so writer and reader agree on them; they are the identity
when D_T' is invertible.

Every written document is canonical JSON, written and read by orjson:
keys sorted, no whitespace, UTF-8, and non-finite floats written as null,
so a report is byte-stable for a fixed seed, version and BLAS thread
count (across thread counts, see `cli`).  A packed payload is a function
of the entries' bits alone, so it is as stable as the decimal digits.  A
float is written in its shortest round-trip digits (Ryu), which read back
bit for bit: 0.1 is `0.1` and 1.0 is `1.0`.  Zero and any x with
1e-5 <= |x| < 1e16 are written positionally (`0.00001`,
`1000000000000000.0`), every other float in exponent form with no `+` and
no zero pad (`1e-7`, `1e16`, `5e-324`).  Every character from U+007F up
is written as itself, not as a \\u escape, and an integer outside
[-2**63, 2**64) raises TypeError; read back, such an integer is a float,
which every integer field refuses.  The reader refuses what is not strict
JSON in UTF-8: NaN and Infinity literals, a number that overflows to
infinity, a byte-order mark and bytes that are not UTF-8.
"""

from __future__ import annotations

import base64
from itertools import chain
from typing import Any

import numpy as np
import orjson

from . import nehari, schur
from .errors import ParseError
from .hardy import SolutionRealization, SolutionTaylor, StateSpace
from .lifting import LiftingDataSet
from .linalg import cmatrix


def matrix_to_json(m: np.ndarray) -> dict:
    """The packed matrix object of m (module docstring)."""
    m = cmatrix(m)
    payload = base64.b64encode(np.ascontiguousarray(m, "<c16")).decode("ascii")
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "b64": payload}


def decimal_matrix_to_json(m: np.ndarray) -> dict:
    """The decimal matrix object of m, for the coefficient lists."""
    m = cmatrix(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": _pairs_from_matrix(m)}


def _json_int(obj, key: str, what: str) -> int:
    """The JSON integer obj[key]; a bool, float or string is refused."""
    value = obj[key]
    if type(value) is not int:
        raise ParseError(f"{what}: {key} must be an integer, not {type(value).__name__}")
    return value


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    """The matrix of a matrix object in either spelling (module docstring)."""
    try:
        rows, cols = _json_int(obj, "rows", what), _json_int(obj, "cols", what)
        spelled = [key for key in ("data", "b64") if key in obj]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"{what}: expected a rows/cols object with data or b64") from exc
    if len(spelled) != 1:
        raise ParseError(f"{what}: a matrix object holds exactly one of data and b64")
    decode = _pairs_to_matrix if spelled == ["data"] else _packed_to_matrix
    return decode(obj[spelled[0]], rows, cols, what)


def _pairs_to_matrix(data, rows: int, cols: int, what: str) -> np.ndarray:
    _check_dims(rows, cols, what)
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(f"{what}: need {rows * cols} [re, im] pairs")
    # each entry must be a pair, or fromiter's count would regroup the
    # scalars, and each scalar a JSON number, or the float conversion would
    # read "0.5" and true as floats (one C-level pass each)
    try:
        if (set(map(len, data)) - {2}
                or not set(map(type, chain.from_iterable(data))) <= {int, float}):
            raise TypeError
        flat = np.fromiter(chain.from_iterable(data), float, 2 * rows * cols)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: entries are not [re, im] pairs") from exc
    return _finite_matrix(flat.view(complex), rows, cols, what)


def _packed_to_matrix(payload, rows: int, cols: int, what: str) -> np.ndarray:
    _check_dims(rows, cols, what)
    if not isinstance(payload, str):
        raise ParseError(f"{what}: b64 must be a string, not {type(payload).__name__}")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a character past ASCII
        raise ParseError(f"{what}: b64 is not base64: {exc}") from exc
    if len(raw) != 16 * rows * cols:
        raise ParseError(f"{what}: need {16 * rows * cols} payload bytes, got {len(raw)}")
    return _finite_matrix(np.frombuffer(raw, "<c16").astype(complex), rows, cols, what)


def _check_dims(rows: int, cols: int, what: str) -> None:
    if rows < 0 or cols < 0:
        raise ParseError(f"{what}: negative dimensions")


def _finite_matrix(entries: np.ndarray, rows: int, cols: int, what: str) -> np.ndarray:
    """The flat complex entries as a rows x cols matrix; ParseError on NaN/Inf."""
    if not np.all(np.isfinite(entries)):
        raise ParseError(f"{what}: non-finite entries")
    return entries.reshape(rows, cols)


def _pairs_from_matrix(m: np.ndarray) -> list:
    """Row-major [re, im] pairs of the entries of m, as Python floats."""
    return np.ascontiguousarray(m, complex).reshape(-1).view(float).reshape(-1, 2).tolist()


def _coefficients_from_json(coeffs, rows: int, cols: int, label: str):
    """The rows x cols matrices of a coefficient list (Nehari taps or H),
    each a bare list of row-major [re, im] pairs: one (k, rows, cols)
    array, or a list when there are none.

    All k are read by one `_pairs_to_matrix` call, on their pairs joined
    into one k rows x cols matrix, once each is checked to be a list of
    rows cols of them.  Anything that refuses is read again coefficient by
    coefficient, so the error names the first malformed one, `label`
    formatted with its index.
    """
    try:
        if (type(coeffs) is not list or not coeffs or set(map(type, coeffs)) != {list}
                or set(map(len, coeffs)) != {rows * cols}):
            raise TypeError
        joined = _pairs_to_matrix(list(chain.from_iterable(coeffs)), len(coeffs) * rows, cols,
                                  label)
        return joined.reshape(len(coeffs), rows, cols)
    except (TypeError, ParseError):
        pass
    return [_pairs_to_matrix(c, rows, cols, label.format(i)) for i, c in enumerate(coeffs)]


# --- instances -----------------------------------------------------------------


def instance_to_json(obj) -> dict:
    if isinstance(obj, LiftingDataSet):
        return {
            "kind": "lifting",
            "a": matrix_to_json(obj.a),
            "t_prime": matrix_to_json(obj.t_prime),
            "r": matrix_to_json(obj.r),
            "q": matrix_to_json(obj.q),
        }
    if isinstance(obj, nehari.NehariProblem):
        return {
            "kind": "nehari",
            "N": obj.n_window,
            "u_dim": obj.u_dim,
            "y_dim": obj.y_dim,
            "taps": [_pairs_from_matrix(t) for t in obj.taps],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def instance_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("instance file needs a 'kind' discriminator")
    kind = obj["kind"]
    if kind == "lifting":
        try:
            return LiftingDataSet(
                a=matrix_from_json(obj["a"], "a"),
                t_prime=matrix_from_json(obj["t_prime"], "t_prime"),
                r=matrix_from_json(obj["r"], "r"),
                q=matrix_from_json(obj["q"], "q"),
            )
        except KeyError as exc:
            raise ParseError(f"lifting instance missing field {exc}") from exc
    if kind == "nehari":
        try:
            n, u, y = (_json_int(obj, k, "nehari instance") for k in ("N", "u_dim", "y_dim"))
            taps = _coefficients_from_json(obj.get("taps", []), y, u, "tap {}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed nehari instance: {exc}") from exc
        try:
            return nehari.NehariProblem(n, u, y, tuple(taps))
        except Exception as exc:
            raise ParseError(f"invalid nehari instance: {exc}") from exc
    raise ParseError(f"unknown instance kind {kind!r}")


# --- Schur parameters ------------------------------------------------------------


PARAMETER_KEYS = ("a", "b", "c", "d")


def parameter_to_json(v: StateSpace) -> dict:
    return {"variant": "transfer", **{k: matrix_to_json(getattr(v, k)) for k in PARAMETER_KEYS}}


def parameter_from_json(obj) -> StateSpace:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ParseError("parameter file needs a 'variant' tag")
    variant = obj["variant"]
    what = f"{variant} parameter"
    try:
        if variant == "zero":
            return schur.zero(_json_int(obj, "in_dim", what), _json_int(obj, "out_dim", what))
        if variant == "constant":
            return schur.constant(matrix_from_json(obj["matrix"], "matrix"))
        if variant == "transfer":
            return schur.contraction_gate(
                StateSpace(*(matrix_from_json(obj[k], k) for k in PARAMETER_KEYS)))
        if variant == "random":
            return schur.random_schur(
                *(_json_int(obj, k, what) for k in ("in_dim", "out_dim", "state_dim", "seed"))
            )
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"invalid {variant} parameter: {exc}") from exc
    raise ParseError(f"unknown parameter variant {variant!r}")


# --- solutions -------------------------------------------------------------------


def nehari_solution_to_json(h: np.ndarray, sigma_max: float, report: dict) -> dict:
    return {
        "kind": "nehari_solution",
        "H": [_pairs_from_matrix(c) for c in h],
        "sigma_max": sigma_max,
        "report": report,
    }


def nehari_solution_from_json(obj, u_dim: int, y_dim: int) -> np.ndarray:
    """The coefficients H_0..H_deg as a (deg + 1, y_dim, u_dim) array."""
    try:
        coeffs = _coefficients_from_json(obj["H"], y_dim, u_dim, "H[{}]")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed nehari solution: {exc}") from exc
    if not len(coeffs):
        raise ParseError("a nehari solution needs at least the coefficient H_0")
    return np.stack(coeffs)


TAIL_KEYS = ("a", "b", "c")


def lifting_solution_to_json(sol: SolutionTaylor | SolutionRealization, report: dict) -> dict:
    doc = {
        "kind": "lifting_solution",
        "a_part": matrix_to_json(sol.a_part),
        "gamma": [decimal_matrix_to_json(g) for g in sol.gamma_coeffs],
        "report": report,
    }
    if isinstance(sol, SolutionRealization):
        doc["tail"] = {k: matrix_to_json(getattr(sol, k)) for k in TAIL_KEYS}
    return doc


def lifting_solution_from_json(obj) -> SolutionTaylor | SolutionRealization:
    """The solution, with Gamma_0..Gamma_{m-1} stacked in one (m, p, q)
    array; a file without `tail` must list at least Gamma_0."""
    try:
        a_part = matrix_from_json(obj["a_part"], "a_part")
        gammas = [matrix_from_json(g, f"gamma[{i}]") for i, g in enumerate(obj["gamma"])]
        tail = obj.get("tail")
        if tail is not None:
            tail = [matrix_from_json(tail[k], f"tail.{k}") for k in TAIL_KEYS]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed lifting solution: {exc}") from exc
    if len({g.shape for g in gammas}) > 1:
        raise ParseError("the gamma coefficients differ in shape")
    if tail is None:
        if not gammas:
            raise ParseError("a lifting solution without tail needs at least gamma[0]")
        return SolutionTaylor(a_part=a_part, gamma_coeffs=np.stack(gammas))
    a, b, c = tail
    stacked = np.stack(gammas) if gammas else np.zeros((0, c.shape[0], a_part.shape[1]), complex)
    return SolutionRealization(a_part=a_part, gamma_coeffs=stacked, a=a, b=b, c=c)


# --- canonical JSON ----------------------------------------------------------------


def _numpy_scalar(obj: Any) -> Any:
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot canonize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, shortest float digits.

    Documents hold dicts with `str` keys (every document rclift writes
    does), lists, tuples, str, int, bool, None, floats, and NumPy floating
    or integer scalars.  Floats are spelled as the module docstring says and
    non-finite floats written as null; any other value, and an integer
    outside [-2**63, 2**64), raises TypeError.
    """
    return orjson.dumps(
        obj, default=_numpy_scalar, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
    ).decode()


def load_json(path: str) -> Any:
    try:
        with open(path, "rb") as fh:
            return orjson.loads(fh.read())
    except (OSError, orjson.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def dump_json(path: str, obj: Any) -> None:
    text = canonical_json(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
