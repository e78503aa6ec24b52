"""Dead code in the package, found with the standard ``ast`` module.

Three rules keep ``src/rwtree`` free of code that nothing uses:

- a module uses every name it imports;
- every top-level function and class is referred to somewhere in
  ``src/rwtree`` or ``bench/`` outside its own body;
- so is every method that is not a dunder.  Methods are matched by name
  only, so a library's hook that the package overrides counts as referred
  to when anything in those directories names it (``cli._Parser.error``
  is named by the benchmark's own ``ap.error``).

A reference is a name, an attribute, an imported name, or a string that is
the name (the benchmark traces functions by their names).  Tests do not
count, so code whose only caller is a test fails here.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwtree"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = MODULES + sorted((ROOT / "bench").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree: ast.AST) -> Counter[str]:
    """How often ``tree`` refers to each name."""
    out: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and type(node.value) is str:
            out[node.value] += 1
    return out


def _imported(tree: ast.Module) -> list[tuple[str, int]]:
    """Each name an import binds, with its line; ``__future__`` excluded."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.append((name, node.lineno))
    return out


def _used(tree: ast.Module) -> set[str]:
    """The names a module reads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = _parse(path)
    used = _used(tree)
    unused = [f"{name} (line {n})" for name, n in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_top_level_definition_is_referred_to():
    # how many top-level statements refer to each name
    count: Counter[str] = Counter()
    defined = []  # (module, definition, the names its own body refers to)
    for path in SOURCES:
        for stmt in _parse(path).body:
            names = set(_references(stmt))
            count.update(names)
            if path.parent == PACKAGE and isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)
            ):
                defined.append((path.name, stmt.name, names))
    unreferred = [
        f"{module}: {name}"
        for module, name, own in defined
        if count[name] == (name in own)
    ]
    assert not unreferred, f"defined but referred to nowhere: {unreferred}"


def test_every_method_is_referred_to():
    count: Counter[str] = Counter()  # references to each name, all sources
    methods = []  # (module, class, method, its own body's references)
    for path in SOURCES:
        tree = _parse(path)
        count += _references(tree)
        if path.parent != PACKAGE:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and not (
                    fn.name.startswith("__") and fn.name.endswith("__")
                ):
                    methods.append((path.name, cls.name, fn.name, _references(fn)))
    unreferred = [
        f"{module}: {cls}.{name}"
        for module, cls, name, own in methods
        if count[name] == own[name]
    ]
    assert not unreferred, f"methods referred to nowhere: {unreferred}"
