"""Static checks on the package source (no linter is a dependency)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "rclift").glob("*.py"))
# every file whose references keep a package definition alive
REFERRERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


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


def _references(tree: ast.Module) -> set[str]:
    """Names a module reads or imports, leaving out each module-level
    definition's references to its own name (recursion is no use)."""
    found = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            if name != own:
                found.add(name)
    return found


def _definitions(tree: ast.Module) -> list[str]:
    return [s.name for s in tree.body if isinstance(s, (ast.FunctionDef, ast.ClassDef))]


def test_no_dead_definitions():
    referenced = set()
    for path in REFERRERS:
        referenced |= _references(ast.parse(path.read_text(encoding="utf-8")))
    dead = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in referenced
    ]
    assert dead == []


def test_dead_definition_is_detected():
    tree = ast.parse(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "print(used())\n"
    )
    assert [n for n in _definitions(tree) if n not in _references(tree)] == ["recursive"]
