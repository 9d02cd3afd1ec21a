"""JSON wire formats for instances, parameters, and solutions.

Complex entries are [re, im] pairs.  General matrices are objects
{"rows": r, "cols": c, "data": [[re, im], ...]} with row-major data;
Nehari taps and solution coefficients are bare row-major pair lists whose
shape is implied by the problem's port dimensions.  Solution readers
ignore keys they do not use, such as the `tail_bound` that older solution
files carry.

Every written document is canonical JSON: keys sorted, no whitespace,
floats in Python's shortest round-trip repr (0.1 is written `0.1`), and
non-finite floats written as null, so a report is byte-stable for a fixed
seed and version.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any

import numpy as np

from . import nehari, schur
from .errors import ParseError
from .hardy import SystemRealization, TaylorSeries
from .lifting import LiftingDataSet
from .linalg import cmatrix


def matrix_to_json(m: np.ndarray) -> dict:
    m = cmatrix(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": _pairs_from_matrix(m)}


def _json_int(obj, key: str, what: str) -> int:
    """The JSON integer obj[key]; a bool, float or string is refused."""
    value = obj[key]
    if type(value) is not int:
        raise ParseError(f"{what}: {key} must be an integer, not {type(value).__name__}")
    return value


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    try:
        rows, cols, data = _json_int(obj, "rows", what), _json_int(obj, "cols", what), obj["data"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"{what}: expected rows/cols/data object") from exc
    return _pairs_to_matrix(data, rows, cols, what)


def _pairs_to_matrix(data, rows: int, cols: int, what: str) -> np.ndarray:
    if rows < 0 or cols < 0:
        raise ParseError(f"{what}: negative dimensions")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(f"{what}: need {rows * cols} [re, im] pairs")
    # np.array would turn "0.5" and true into floats, so every scalar of the
    # pairs must already be a JSON number (one C-level pass over the types)
    try:
        if not set(map(type, chain.from_iterable(data))) <= {int, float}:
            raise TypeError
        flat = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: entries are not [re, im] pairs") from exc
    if data and flat.shape != (rows * cols, 2):
        raise ParseError(f"{what}: entries are not [re, im] pairs")
    if not np.all(np.isfinite(flat)):
        raise ParseError(f"{what}: non-finite entries")
    return flat.reshape(rows * cols, 2).view(complex).reshape(rows, cols)


def _pairs_from_matrix(m: np.ndarray) -> list:
    """Row-major [re, im] pairs of the entries of m, as Python floats."""
    return np.ascontiguousarray(m, complex).reshape(-1).view(float).reshape(-1, 2).tolist()


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
            taps = [
                _pairs_to_matrix(t, y, u, f"tap {i}")
                for i, t in enumerate(obj.get("taps", []))
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed nehari instance: {exc}") from exc
        try:
            return nehari.NehariProblem(n, u, y, tuple(taps))
        except Exception as exc:
            raise ParseError(f"invalid nehari instance: {exc}") from exc
    raise ParseError(f"unknown instance kind {kind!r}")


# --- Schur parameters ------------------------------------------------------------


def parameter_to_json(v: schur.SchurParameter) -> dict:
    if v.kind == "zero":
        return {"variant": "zero", "in_dim": v.in_dim, "out_dim": v.out_dim}
    if v.kind == "constant":
        return {"variant": "constant", "matrix": matrix_to_json(v.matrix)}
    sys = v.system
    return {
        "variant": "transfer",
        "a": matrix_to_json(sys.a_s),
        "b": matrix_to_json(sys.b_s),
        "c": matrix_to_json(sys.c_s),
        "d": matrix_to_json(sys.d_s),
    }


def parameter_from_json(obj) -> schur.SchurParameter:
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
            sys = SystemRealization(
                a_s=matrix_from_json(obj["a"], "a"),
                b_s=matrix_from_json(obj["b"], "b"),
                c_s=matrix_from_json(obj["c"], "c"),
                d_s=matrix_from_json(obj["d"], "d"),
                contractive_certified=True,
            )
            return schur.from_system(sys)
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


def nehari_solution_to_json(h: TaylorSeries, sigma_max: float, report: dict) -> dict:
    return {
        "kind": "nehari_solution",
        "H": [_pairs_from_matrix(c) for c in h.coeffs],
        "sigma_max": sigma_max,
        "report": report,
    }


def nehari_solution_from_json(obj, u_dim: int, y_dim: int) -> TaylorSeries:
    try:
        coeffs = [
            _pairs_to_matrix(c, y_dim, u_dim, f"H[{i}]")
            for i, c in enumerate(obj["H"])
        ]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed nehari solution: {exc}") from exc
    return TaylorSeries(tuple(coeffs))


def lifting_solution_to_json(sol, report: dict) -> dict:
    return {
        "kind": "lifting_solution",
        "a_part": matrix_to_json(sol.a_part),
        "gamma": [matrix_to_json(g) for g in sol.gamma_coeffs],
        "report": report,
    }


def lifting_solution_from_json(obj):
    from .hardy import SolutionTaylor

    try:
        a_part = matrix_from_json(obj["a_part"], "a_part")
        gammas = [matrix_from_json(g, f"gamma[{i}]") for i, g in enumerate(obj["gamma"])]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed lifting solution: {exc}") from exc
    return SolutionTaylor(a_part=a_part, gamma_coeffs=tuple(gammas))


# --- canonical JSON ----------------------------------------------------------------


def _canonize(obj: Any) -> Any:
    """Copy of a JSON document with every non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {k: _canonize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonize(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return None
    return obj


def _numpy_scalar(obj: Any) -> Any:
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot canonize {type(obj).__name__}")


def _dumps(obj: Any) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_numpy_scalar
    )


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, shortest float repr.

    Documents hold dicts with `str` keys (every document rclift writes
    does), lists, tuples, str, int, bool, None, floats, and NumPy floating
    or integer scalars.  Floats are written in Python's shortest round-trip repr and
    non-finite floats as null; any other value raises TypeError.
    """
    try:
        text = _dumps(obj)
    except ValueError:  # a non-finite float: only such documents are copied
        text = _dumps(_canonize(obj))
    return text + "\n"


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def dump_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))
