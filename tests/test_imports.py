"""Every name a `propcalc` module imports is read in that module."""

import ast
from pathlib import Path

import propcalc

PACKAGE = Path(propcalc.__file__).parent

# perfbench's tracer rebinds `surjections.to_edge_weights` to its counting
# wrapper, so the name stays bound there although no line of the module reads it
KEPT = {("surjections", "to_edge_weights")}


def _unread_imports(tree):
    """The names bound by the module's imports that no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read_in_its_module():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    stale = []
    for path in modules:
        if path.name == "__init__.py":
            continue  # the package's imports are its public names, re-exported
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in _unread_imports(tree):
            if (path.stem, name) not in KEPT:
                stale.append(f"{path.name}:{line}: {name}")
    assert not stale, "imported but never read:\n" + "\n".join(stale)


def test_the_check_sees_an_unread_import():
    tree = ast.parse("import json\nfrom os import path, sep as s\nprint(path)\n")
    assert _unread_imports(tree) == [(1, "json"), (2, "s")]
