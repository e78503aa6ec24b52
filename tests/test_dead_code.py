"""Dead code in the package, found with the standard ``ast`` module.

Two rules keep ``src/rwtree`` free of code that nothing uses:

- a module uses every name it imports;
- every top-level function and class is referred to somewhere in
  ``src/rwtree`` or ``bench/`` outside its own body.  A reference is a
  name, an attribute, an imported name, or a string that is the name (the
  benchmark traces functions by their names).  Tests do not count, so code
  whose only caller is a test fails here.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwtree"
MODULES = sorted(PACKAGE.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referred(tree: ast.AST) -> set[str]:
    """Every name that ``tree`` refers to."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and type(node.value) is str:
            out.add(node.value)
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
    sources = MODULES + sorted((ROOT / "bench").glob("*.py"))
    # how many top-level statements refer to each name
    count: Counter[str] = Counter()
    defined = []  # (module, definition, the names its own body refers to)
    for path in sources:
        for stmt in _parse(path).body:
            names = _referred(stmt)
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
