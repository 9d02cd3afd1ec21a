"""Static checks on the package source (no linter is a dependency)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "rclift").glob("*.py"))


def _referrers(root: Path) -> list[Path]:
    """The files whose references keep a package definition alive: the
    package's own and the benchmark's.  A definition that only tests read
    is test code, and belongs in tests/."""
    return sorted(p for d in ("src", "bench") for p in (root / d).rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read, except re-exports in __all__."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(bound - read - exported)


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_detected():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport sys\nprint(sys.argv)\n")
    assert _unused_imports(tree) == ["os"]


def _function_local_imports(tree: ast.Module) -> list[str]:
    """`function:module` for each import statement inside a function body."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Import):
                found += [f"{node.name}:{a.name}" for a in inner.names]
            elif isinstance(inner, ast.ImportFrom):
                found.append(f"{node.name}:{'.' * inner.level}{inner.module or ''}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert _function_local_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_function_local_import_is_detected():
    tree = ast.parse(
        "import os\n\n"
        "def f():\n    from .linalg import solve_hpd\n    return solve_hpd\n\n"
        "class C:\n    def g(self):\n        import json\n        return json\n"
    )
    assert sorted(_function_local_imports(tree)) == ["f:.linalg", "g:json"]


def _unused_parameters(tree: ast.Module) -> list[str]:
    """`function:parameter` for each parameter its function never reads;
    names starting with an underscore are exempt (a signature may have to
    keep a parameter that its body ignores)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}:{a}" for a in params if not a.startswith("_") and a not in read]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert _unused_parameters(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_parameter_is_detected():
    tree = ast.parse(
        "def f(a, b, _c, *args, d=1, **kw):\n"
        "    def g(x):\n        return a + x\n"
        "    return g(1) + len(kw)\n\n"
        "h = lambda y, z: y\n"
    )
    assert sorted(_unused_parameters(tree)) == ["<lambda>:z", "f:args", "f:b", "f:d"]


def _calls_named(tree: ast.Module, names: tuple[str, ...]) -> list[str]:
    """`name:line` for each call of a function, or method, named in `names`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in names:
                found.append(f"{name}:{node.lineno}")
    return found


# NumPy's and SciPy's nonsymmetric eigensolvers: the package certifies
# stability from a bound on a Gramian (repeated squaring of the state matrix,
# or a Stein Gramian), never from computed eigenvalues.
NONSYMMETRIC_EIGENSOLVERS = ("eig", "eigvals")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_nonsymmetric_eigensolver(path):
    assert _calls_named(ast.parse(path.read_text(encoding="utf-8")), NONSYMMETRIC_EIGENSOLVERS) == []


def test_nonsymmetric_eigensolver_is_detected():
    tree = ast.parse(
        "import numpy as np\nfrom scipy.linalg import eig\n"
        "a = np.eye(2)\n"
        "r = max(abs(np.linalg.eigvals(a)))\n"
        "w = np.linalg.eigvalsh(a)[-1]\n"
        "v = eig(a)\n"
    )
    assert sorted(_calls_named(tree, NONSYMMETRIC_EIGENSOLVERS)) == ["eig:6", "eigvals:4"]


# Every eigenvector decomposition happens in `linalg`, which holds the one
# PSD noise policy.
EIGENVECTOR_SOLVERS = ("eigh", "hermitian_eig")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_eigenvectors_only_in_linalg(path):
    assert _calls_named(ast.parse(path.read_text(encoding="utf-8")), EIGENVECTOR_SOLVERS) == []


def test_eigenvector_decomposition_is_detected():
    tree = ast.parse(
        "import numpy as np\nimport scipy.linalg\nfrom .linalg import hermitian_eig\n"
        "m = np.eye(2)\n"
        "w, v = np.linalg.eigh(m)\n"
        "w, v = scipy.linalg.eigh(m)\n"
        "w, v = hermitian_eig(m)\n"
        "lam = np.linalg.eigvalsh(m)\n"
    )
    assert sorted(_calls_named(tree, EIGENVECTOR_SOLVERS)) == ["eigh:5", "eigh:6", "hermitian_eig:7"]


# Eigenvalues (`eigvalsh`) and singular values (`svd`) are taken in
# `linalg` alone, which holds the one rule that turns a computed norm into
# a bracket (`norm_bracket`, `root_of_max_eig`) and the helpers that read
# one value (`operator_norm`, `min_singular_value`, `min_eig_hermitian`).
SPECTRAL_VALUE_SOLVERS = ("eigvalsh", "svd")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_spectral_values_only_in_linalg(path):
    assert _calls_named(ast.parse(path.read_text(encoding="utf-8")), SPECTRAL_VALUE_SOLVERS) == []


def test_spectral_value_call_is_detected():
    tree = ast.parse(
        "import numpy as np\nimport scipy.linalg\nfrom .linalg import operator_norm\n"
        "m = np.eye(2)\n"
        "lam = np.linalg.eigvalsh(m)[-1]\n"
        "s = np.linalg.svd(m, compute_uv=False)\n"
        "u, s, vh = scipy.linalg.svd(m)\n"
        "top = operator_norm(m)\n"
    )
    assert sorted(_calls_named(tree, SPECTRAL_VALUE_SOLVERS)) == [
        "eigvalsh:5", "svd:6", "svd:7"]


# The Gramian bounds are tried in one order, `linalg.GRAMIAN_BOUNDS`, which
# every certificate reads; no module but `linalg` names a bound itself, so
# no certificate can skip the storage route or its Stein fallback.
GRAMIAN_BOUND_FUNCTIONS = ("storage_gramian_bound", "observability_gramian")


def _names_used(tree: ast.AST, names: tuple[str, ...]) -> list[str]:
    """`name:line` for each read, attribute or import of a name in `names`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        else:
            continue
        if name in names:
            found.append(f"{name}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_gramian_bounds_only_through_their_tuple(path):
    assert _names_used(ast.parse(path.read_text(encoding="utf-8")), GRAMIAN_BOUND_FUNCTIONS) == []


def test_gramian_bound_by_name_is_detected():
    tree = ast.parse(
        '"""storage_gramian_bound in a docstring is prose"""\n'
        "from . import linalg\nfrom .linalg import GRAMIAN_BOUNDS, observability_gramian\n"
        "g = linalg.storage_gramian_bound(a, c)\n"
        "for bound in GRAMIAN_BOUNDS:\n    bound(a, c)\n"
        "h = observability_gramian(a, c)\n"
    )
    assert sorted(_names_used(tree, GRAMIAN_BOUND_FUNCTIONS)) == [
        "observability_gramian:3", "observability_gramian:7", "storage_gramian_bound:4"]


# Values from outside are coerced and checked once, where they enter (the
# `serialize` readers, and `schur.contraction_gate` for parameters); the
# containers take their arrays as they are, so no `__post_init__` coerces
# or scans entries, or takes a norm to gate them.
ENTRY_CHECKS = ("cmatrix", "asarray", "isfinite", "operator_norm")


def _post_init_entry_checks(tree: ast.Module) -> list[str]:
    """`name:line` for each call named in ENTRY_CHECKS inside a `__post_init__`."""
    return [
        found
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        for found in _calls_named(node, ENTRY_CHECKS)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_containers_check_no_entries(path):
    assert _post_init_entry_checks(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_entry_check_in_a_container_is_detected():
    tree = ast.parse(
        "import numpy as np\nfrom .linalg import cmatrix\n\n"
        "class C:\n"
        "    def __post_init__(self):\n"
        "        a = cmatrix(self.a)\n"
        "        b = np.asarray(self.b)\n"
        "        if not np.isfinite(b).all():\n"
        "            raise ValueError\n"
        "        if operator_norm(b) > 1.0:\n"
        "            raise ValueError\n\n"
        "def f(m):\n    return np.asarray(m)\n"
    )
    assert sorted(_post_init_entry_checks(tree)) == [
        "asarray:7", "cmatrix:6", "isfinite:8", "operator_norm:10"]


# Every HPD solve goes through `linalg.solve_hpd`, which keeps the
# finiteness check and NotPositiveDefinite together.
SCIPY_CHOLESKY = ("cho_factor", "cho_solve", "cholesky")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_cholesky_wrapper(path):
    assert _calls_named(ast.parse(path.read_text(encoding="utf-8")), SCIPY_CHOLESKY) == []


def test_cholesky_wrapper_is_detected():
    tree = ast.parse(
        "import numpy as np\nimport scipy.linalg\nfrom scipy.linalg import cho_solve\n"
        "m = np.eye(2)\n"
        "f = scipy.linalg.cho_factor(m, lower=True)\n"
        "x = cho_solve(f, m)\n"
        "c = np.linalg.cholesky(m)\n"
        "potrf, = scipy.linalg.get_lapack_funcs(('potrf',), (m,))\n"
    )
    assert sorted(_calls_named(tree, SCIPY_CHOLESKY)) == ["cho_factor:5", "cho_solve:6", "cholesky:7"]


# LAPACK routines are bound in `linalg` alone, beside the gates
# (finiteness, NotPositiveDefinite) that every call of them needs.
LAPACK_BINDERS = ("get_lapack_funcs",)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_lapack_routines_only_in_linalg(path):
    assert _calls_named(ast.parse(path.read_text(encoding="utf-8")), LAPACK_BINDERS) == []


def test_lapack_binding_is_detected():
    tree = ast.parse(
        "import numpy as np\nimport scipy.linalg\nfrom scipy.linalg import get_lapack_funcs\n"
        "m = np.eye(2)\n"
        "potrf, = scipy.linalg.get_lapack_funcs(('potrf',), (m,))\n"
        "trtrs, = get_lapack_funcs(('trtrs',), dtype=complex)\n"
        "x = scipy.linalg.solve_triangular(m, m)\n"
    )
    assert sorted(_calls_named(tree, LAPACK_BINDERS)) == [
        "get_lapack_funcs:5", "get_lapack_funcs:6"]


# LAPACK is named in `linalg` alone: no other module binds a routine or
# reaches `scipy.linalg.lapack`, so every decomposition passes the gates of
# `linalg`'s direct calls (numpy's LinAlgError on a nonzero info, no empty
# matrix sent to LAPACK).
LAPACK_NAMES = ("get_lapack_funcs", "lapack")


def _lapack_names(tree: ast.AST) -> list[str]:
    """`name:line` for each read, attribute or import of `get_lapack_funcs`
    or `lapack` (`_names_used`), and `from module:line` for each import
    from a module path through `lapack`."""
    found = _names_used(tree, LAPACK_NAMES)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and "lapack" in (node.module or "").split("."):
            found.append(f"from {node.module}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_lapack_named_only_in_linalg(path):
    assert _lapack_names(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_lapack_name_is_detected():
    tree = ast.parse(
        "import numpy as np\nimport scipy.linalg\nimport scipy.linalg.lapack as lp\n"
        "from scipy.linalg import lapack\nfrom scipy.linalg.lapack import zgesdd\n"
        "m = np.eye(2)\n"
        "gesdd, = scipy.linalg.get_lapack_funcs(('gesdd',), (m,))\n"
        "w = scipy.linalg.lapack.zheevd(m)[0]\n"
        "s = np.linalg.svd(m, compute_uv=False)\n"
    )
    assert sorted(_lapack_names(tree)) == [
        "from scipy.linalg.lapack:5", "get_lapack_funcs:7", "lapack:3", "lapack:4", "lapack:8"]


# One JSON codec: `serialize` reads and writes every document through
# orjson, so the stdlib module's different spelling cannot creep back in.
STDLIB_JSON_CODEC = ("load", "loads", "dump", "dumps")


def _stdlib_json_uses(tree: ast.Module) -> list[str]:
    """`what:line` for each import of the stdlib `json` module and each
    call of `json.load`, `json.loads`, `json.dump` or `json.dumps`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}:{node.lineno}" for a in node.names
                      if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "json":
                found.append(f"from {node.module}:{node.lineno}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in STDLIB_JSON_CODEC
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            found.append(f"json.{node.func.attr}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_stdlib_json_codec(path):
    assert _stdlib_json_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_stdlib_json_codec_is_detected():
    tree = ast.parse(
        "import json\nimport json.decoder as jd\nfrom json import loads\nimport orjson\n"
        "from .serialize import load_json\n"
        "a = json.dumps({})\n"
        "b = orjson.loads(b'[]')\n"
        "c = load_json('x.json')\n"
        "d = json.load(open('x.json'))\n"
    )
    assert sorted(_stdlib_json_uses(tree)) == [
        "from json:3", "import json.decoder:2", "import json:1", "json.dumps:6", "json.load:9"]


# Binary matrix payloads are encoded and decoded in `serialize` alone, and
# decoded in one function there, beside the length and finiteness gates
# that every payload read from a file needs.
BINARY_MODULES = ("base64", "binascii")
BINARY_CALLS = ("b64encode", "b64decode", "frombuffer")


def _binary_codec_uses(tree: ast.AST) -> list[str]:
    """`what:line` for each import of `base64` or `binascii` and each call
    of `b64encode`, `b64decode` or `frombuffer`."""
    found = _calls_named(tree, BINARY_CALLS)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}:{node.lineno}" for a in node.names
                      if a.name.split(".")[0] in BINARY_MODULES]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and (node.module or "").split(".")[0] in BINARY_MODULES):
            found.append(f"from {node.module}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "serialize.py"],
                         ids=lambda p: p.name)
def test_binary_payloads_only_in_serialize(path):
    assert _binary_codec_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_one_gated_binary_decoder():
    tree = ast.parse((ROOT / "src" / "rclift" / "serialize.py").read_text(encoding="utf-8"))
    decoders = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                and _calls_named(f, ("b64decode", "frombuffer"))]
    assert [f.name for f in decoders] == ["_packed_to_matrix"]
    gates = {call.split(":")[0] for call in _calls_named(decoders[0], ("len", "_finite_matrix"))}
    assert gates == {"len", "_finite_matrix"}


def test_binary_codec_is_detected():
    tree = ast.parse(
        "import base64\nimport binascii as b\nfrom base64 import b64decode\nimport numpy as np\n"
        "x = base64.b64encode(b'')\n"
        "y = b64decode('')\n"
        "z = np.frombuffer(y, '<c16')\n"
        "w = np.fromiter(iter(()), float)\n"
    )
    assert sorted(_binary_codec_uses(tree)) == [
        "b64decode:6", "b64encode:5", "from base64:3", "frombuffer:7", "import base64:1",
        "import binascii:2"]


def _string_constants(tree: ast.Module, value: str) -> list[int]:
    """The line of each string constant equal to `value`, docstrings aside."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and n.value == value and id(n) not in docstrings)


def test_one_status_rule():
    # one rule decides "uncertified" (`lifting.Verdict.status`); every other
    # gate reads it from a verdict or combines verdicts
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in _string_constants(ast.parse(path.read_text(encoding="utf-8")),
                                           "uncertified")]
    assert len(found) == 1 and found[0].startswith("lifting.py:")


def test_status_strings_only_where_statuses_are_read():
    # "certified" and "refuted" are spelled in `lifting`, which decides
    # them, and in `cli` and `suite`, which report them; a certificate
    # that tested a status itself would be choosing among verdicts again,
    # which `lifting.decide` alone does
    found = {path.name for path in SOURCES for status in ("certified", "refuted")
             if _string_constants(ast.parse(path.read_text(encoding="utf-8")), status)}
    assert found <= {"lifting.py", "cli.py", "suite.py"}


def test_status_literal_is_detected():
    tree = ast.parse(
        '"""uncertified"""\n'
        'x = "uncertified"\n'
        'class C:\n    """uncertified"""\n\n'
        'def f():\n    """uncertified"""\n    return "uncertified" if x else "certified"\n'
    )
    assert _string_constants(tree, "uncertified") == [2, 8]


# No memo outlives one command: a module-level cache would carry results
# from one call (one suite run of many in a process) into the next.  Memos
# live on objects a command creates, such as the suite's pools.
MODULE_CACHES = ("cache", "lru_cache")


def _module_cache_uses(tree: ast.Module) -> list[str]:
    """`what:line` for each `functools.cache` or `functools.lru_cache`,
    as a decorator or a call, under any alias of functools, and each
    import of them by name."""
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "functools"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"from functools import {a.name}:{node.lineno}" for a in node.names
                      if a.name in MODULE_CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in MODULE_CACHES
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"functools.{node.attr}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_cache(path):
    assert _module_cache_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_module_level_cache_is_detected():
    tree = ast.parse(
        "import functools\nimport functools as ft\nfrom functools import lru_cache, wraps\n"
        "@functools.cache\ndef f(x): return x\n"
        "g = ft.lru_cache(maxsize=None)(f)\n"
        "class C:\n    @functools.cached_property\n    def p(self): return 1\n"
        "h = wraps(f)(f)\n"
    )
    assert sorted(_module_cache_uses(tree)) == [
        "from functools import lru_cache:3", "functools.cache:4", "functools.lru_cache:6"]


def _scopes(tree: ast.Module):
    """(node, own names) for each module-level statement; a module-level
    class is split into its methods, each owning the class name and its
    own, and the rest of the class, owning the class name."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            rest = stmt.bases + stmt.keywords + stmt.decorator_list
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, {stmt.name, item.name}
                else:
                    rest.append(item)
            for node in rest:
                yield node, {stmt.name}
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt, {stmt.name}
        else:
            yield stmt, set()


def _references(tree: ast.Module, attributes_only: bool = False) -> set[str]:
    """Names a module reads or imports (only the attribute names with
    `attributes_only`, the one way a method is reached), leaving out each
    definition's references to its own name (recursion is no use)."""
    found = set()
    for scope, own in _scopes(tree):
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif attributes_only:
                continue
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            if name not in own:
                found.add(name)
    return found


def _definitions(tree: ast.Module) -> list[str]:
    """Module-level functions and classes, and `Class.member` for each
    method, property or annotated field of a module-level class; dunders
    are exempt."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(stmt.name)
        if isinstance(stmt, ast.ClassDef):
            found += [
                f"{stmt.name}.{item.name}"
                for item in stmt.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
            found += [
                f"{stmt.name}.{item.target.id}"
                for item in stmt.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    return found


def _dead(trees: list[ast.Module], definitions: list[str]) -> list[str]:
    """The definitions that no tree references: a method or a field counts
    as referenced only through an attribute of its name."""
    names = set().union(*(_references(t) for t in trees))
    attributes = set().union(*(_references(t, attributes_only=True) for t in trees))
    return [d for d in definitions if d.rpartition(".")[2] not in (attributes if "." in d else names)]


def test_no_dead_definitions():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in _referrers(ROOT)]
    dead = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name in _dead(trees, _definitions(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert dead == []


def test_dead_definition_is_detected():
    tree = ast.parse(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "print(used())\n"
    )
    assert [n for n in _definitions(tree) if n not in _references(tree)] == ["recursive"]


def test_dead_method_is_detected():
    # a local variable that shares a method's name does not keep it alive
    tree = ast.parse(
        "class K:\n"
        "    size = 1\n\n"
        "    def __init__(self):\n        self.x = K.size\n\n"
        "    @property\n    def live(self):\n        return self.x\n\n"
        "    def dead(self, n):\n        return self.dead(n - 1)\n\n"
        "    def _hidden(self):\n        return 0\n\n"
        "_hidden = K().live\n"
    )
    assert _dead([tree], _definitions(tree)) == ["K.dead", "K._hidden"]


def test_dead_field_is_detected():
    # a field is read as an attribute; a keyword argument, a local name or
    # a dict key that shares its name does not keep it alive
    tree = ast.parse(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass R:\n"
        "    value: float\n    tol: float\n    checks: dict\n    limit = 1.0\n\n"
        "checks = {'tol': 1.0}\n"
        "r = R(value=1.0, tol=checks['tol'], checks=checks)\n"
        "print(r.value)\n"
    )
    assert _dead([tree], _definitions(tree)) == ["R.tol", "R.checks"]


def test_test_only_definition_is_detected(tmp_path):
    files = {
        "src/pkg.py": "def used():\n    return 1\n\ndef oracle():\n    return 2\n",
        "bench/run.py": "print(used())\n",
        "tests/test_pkg.py": "print(oracle())\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    trees = [ast.parse(p.read_text()) for p in _referrers(tmp_path)]
    package = ast.parse(files["src/pkg.py"])
    assert _dead(trees, _definitions(package)) == ["oracle"]


# The package definitions that only the benchmark references.  They stay
# in src/ while the benchmark calls them; the list may shrink, never grow.
BENCH_ONLY = ["redheffer.py:assemble_m", "serialize.py:parameter_to_json"]


def _bench_only(root: Path) -> list[str]:
    """`file:definition` for each package definition that the benchmark's
    references keep alive and the package's own do not."""
    sources = sorted((root / "src").rglob("*.py"))
    package = [ast.parse(p.read_text(encoding="utf-8")) for p in sources]
    referrers = [ast.parse(p.read_text(encoding="utf-8")) for p in _referrers(root)]
    found = []
    for path, tree in zip(sources, package):
        definitions = _definitions(tree)
        alive = set(definitions) - set(_dead(referrers, definitions))
        found += [f"{path.name}:{d}" for d in _dead(package, definitions) if d in alive]
    return found


def test_bench_only_definitions_do_not_grow():
    assert _bench_only(ROOT) == BENCH_ONLY


def test_bench_only_definition_is_detected(tmp_path):
    files = {
        "src/pkg.py": "def used():\n    return 1\n\ndef timed():\n    return 2\n\n"
                      "def oracle():\n    return 3\n\nprint(used())\n",
        "bench/run.py": "print(timed())\n",
        "tests/test_pkg.py": "print(oracle())\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert _bench_only(tmp_path) == ["pkg.py:timed"]
